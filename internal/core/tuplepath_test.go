package core

import "testing"

// TestTuplePathPooledAllocRatio pins the PR's acceptance criterion in
// its in-process form: the pooled+interned codec discipline must cost
// at least 5x fewer heap allocations per frame round-trip
// (encode+decode) than the Marshal-per-frame discipline it replaced.
// Allocation counts are deterministic for the pinned frame shape, so
// this is gate-stable.
func TestTuplePathPooledAllocRatio(t *testing.T) {
	baseline, err := MeasureTuplePath(32, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := MeasureTuplePath(32, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	base := baseline.EncodeAllocs + baseline.DecodeAllocs
	opt := pooled.EncodeAllocs + pooled.DecodeAllocs
	if opt <= 0 {
		t.Fatalf("pooled path reported %.1f allocs/frame; measurement broken", opt)
	}
	if base < 5*opt {
		t.Fatalf("pooled path allocs/frame %.1f vs baseline %.1f: ratio %.1fx, want >= 5x",
			opt, base, base/opt)
	}
}
