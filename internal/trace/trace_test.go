package trace

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func randSpan(r *rand.Rand) *Span {
	return &Span{
		Stage: Stage(r.Intn(NumStages)),
		Node:  wiretest.Addr(r),
		Start: wiretest.Int64(r),
		Dur:   time.Duration(wiretest.Uint64(r) >> 1),
		Note:  wiretest.Str(r, 16),
		Seq:   r.Uint32(),
	}
}

// TestSpanWireRoundTrip is the codec property test for the trace span
// frame (tag 120, see wiretest.RoundTrip).
func TestSpanWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 1, 300, 120, 129, "d877eb00aefad64b", []wiretest.Gen{
		{Name: "Span", Make: func(r *rand.Rand) env.Message { return randSpan(r) }},
	})
}

// TestHostileSpansRejected: spans arrive over the network inside
// result frames; invalid stages (they index metric arrays) and
// negative durations (they corrupt histograms) must fail decode.
func TestHostileSpansRejected(t *testing.T) {
	ok, err := wire.Marshal(&Span{Stage: StageExecutor, Node: "n1", Start: 5, Dur: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ok...)
	bad[1] = 200 // stage byte follows the tag
	if _, err := wire.Unmarshal(bad); err == nil {
		t.Error("span with invalid stage accepted")
	}
	neg, err := wire.Marshal(&Span{Stage: StageExecutor, Node: "n1", Start: 5, Dur: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Unmarshal(neg); err == nil {
		t.Error("span with negative duration accepted")
	}
}

// TestBufferBounded: a flood of spans cannot grow the buffer past its
// capacity; the overflow is counted and drained alongside the spans.
func TestBufferBounded(t *testing.T) {
	b := NewBuffer(8)
	for i := 0; i < 100; i++ {
		b.Add(Span{Stage: StageResultFlush, Node: "n1", Start: int64(i)})
	}
	if b.Len() != 8 {
		t.Fatalf("buffer grew to %d spans, capacity 8", b.Len())
	}
	spans, drops := b.Drain()
	if len(spans) != 8 || drops != 92 {
		t.Fatalf("Drain = %d spans, %d drops; want 8, 92", len(spans), drops)
	}
	// Sequence numbers keep counting across the drop window and drain.
	b.Add(Span{Stage: StageResultFlush, Node: "n1"})
	spans, drops = b.Drain()
	if len(spans) != 1 || drops != 0 || spans[0].Seq != 100 {
		t.Fatalf("post-drain Drain = %d spans, %d drops, seq %d; want 1, 0, 100", len(spans), drops, spans[0].Seq)
	}
}

// TestTraceSortAndSets: Sort is a total deterministic order, and the
// node/stage sets reflect the spans.
func TestTraceSortAndSets(t *testing.T) {
	tr := &Trace{
		QueryID: 7,
		Root:    "n1",
		Started: 100,
		Spans: []Span{
			{Stage: StageResultFlush, Node: "n2", Start: 300, Seq: 1},
			{Stage: StageMulticast, Node: "n2", Start: 200, Seq: 0},
			{Stage: StageCollect, Node: "n1", Start: 100, Seq: 0},
			{Stage: StageExecutor, Node: "n3", Start: 200, Seq: 0},
		},
	}
	tr.Sort()
	order := make([]string, len(tr.Spans))
	for i, s := range tr.Spans {
		order[i] = string(s.Node) + "/" + s.Stage.String()
	}
	want := []string{"n1/collect", "n2/multicast", "n3/executor", "n2/result_flush"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("sort order %v, want %v", order, want)
		}
	}
	if nodes := tr.Nodes(); len(nodes) != 3 || nodes[0] != "n1" || nodes[2] != "n3" {
		t.Fatalf("Nodes = %v", nodes)
	}
	stages := tr.Stages()
	if len(stages) != 4 || stages[0] != StageMulticast || stages[3] != StageCollect {
		t.Fatalf("Stages = %v", stages)
	}
}

// TestRenderDeterministic: rendering the same trace twice yields the
// same text, with the initiator's block first and drops called out.
func TestRenderDeterministic(t *testing.T) {
	tr := &Trace{
		QueryID:  0xab,
		Root:     "n2",
		Started:  1000,
		Finished: 5000,
		Drops:    3,
		Spans: []Span{
			{Stage: StageCollect, Node: "n2", Start: 1000, Dur: 4000},
			{Stage: StageMulticast, Node: "n1", Start: 2000, Note: "query arrived: R"},
		},
	}
	tr.Sort()
	a, b := tr.RenderString(), tr.RenderString()
	if a != b {
		t.Fatal("Render is not deterministic")
	}
	for _, want := range []string{"query=ab", "3 spans dropped", "node n2 (initiator)", "multicast"} {
		if !strings.Contains(a, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, a)
		}
	}
	iInit := strings.Index(a, "node n2")
	iOther := strings.Index(a, "node n1")
	if iInit < 0 || iOther < 0 || iInit > iOther {
		t.Errorf("initiator block does not lead:\n%s", a)
	}
}

// TestHistogram: observations land in the right buckets, and the
// snapshot satisfies the Prometheus consistency rules (bucket counts
// sum to the total, sum tracks the observations).
func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	wantCounts := []uint64{1, 2, 1, 1}
	var total uint64
	for i, c := range s.Counts {
		if c != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, wantCounts[i])
		}
		total += c
	}
	if total != s.Count || s.Count != 5 {
		t.Fatalf("count %d, bucket total %d; want 5", s.Count, total)
	}
	if s.Sum != 56.05 {
		t.Fatalf("sum = %v, want 56.05", s.Sum)
	}
	// Boundary values belong to the bucket whose bound they equal.
	h2 := NewHistogram([]float64{1})
	h2.Observe(1)
	if got := h2.Snapshot().Counts[0]; got != 1 {
		t.Fatalf("boundary observation landed in overflow (counts[0]=%d)", got)
	}
}

// TestStageNames pins the stage enum to its metric label names.
func TestStageNames(t *testing.T) {
	names := StageNames()
	if len(names) != NumStages {
		t.Fatalf("%d names for %d stages", len(names), NumStages)
	}
	for i, n := range names {
		if Stage(i).String() != n {
			t.Errorf("stage %d: String %q != name %q", i, Stage(i).String(), n)
		}
		if !Stage(i).Valid() {
			t.Errorf("stage %d (%s) not Valid", i, n)
		}
	}
	if Stage(NumStages).Valid() {
		t.Error("sentinel stage reported Valid")
	}
}
