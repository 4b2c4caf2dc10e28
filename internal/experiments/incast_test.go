package experiments

import "testing"

// TestIncastBatchingReducesResultFrames is the acceptance gate of the
// result channel: at 64 nodes, the batched channel must cut result
// frames per high-cardinality query by at least 5x against the
// per-tuple baseline, with recall unchanged on both sides.
func TestIncastBatchingReducesResultFrames(t *testing.T) {
	cfg := DefaultIncast(false)
	runs, tbl := Incast(cfg)
	t.Log(tbl.Title + " — " + tbl.Note)
	baseline, batched := runs[0], runs[1]

	if baseline.Received != baseline.Expected {
		t.Fatalf("baseline recall changed: %d/%d", baseline.Received, baseline.Expected)
	}
	if batched.Received != batched.Expected {
		t.Fatalf("batched recall changed: %d/%d", batched.Received, batched.Expected)
	}
	if baseline.Expected == 0 {
		t.Fatal("degenerate workload: no expected results")
	}
	// The baseline ships one frame per tuple by construction.
	if baseline.Frames != baseline.Tuples {
		t.Fatalf("baseline not per-tuple: %d frames for %d tuples", baseline.Frames, baseline.Tuples)
	}
	if batched.Frames == 0 || baseline.Frames < 5*batched.Frames {
		t.Fatalf("frame reduction below 5x: baseline %d vs batched %d", baseline.Frames, batched.Frames)
	}
	// Both modes shipped every result exactly once (lossless network).
	if batched.Tuples != baseline.Tuples {
		t.Fatalf("batched shipped %d tuples, baseline %d", batched.Tuples, baseline.Tuples)
	}
}
