package stats

import (
	"math/rand"
	"testing"

	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func randSketch(r *rand.Rand) *Sketch {
	s := NewSketch(8 + r.Intn(56))
	for i, n := 0, r.Intn(2*s.K); i < n; i++ {
		s.Add(wiretest.Str(r, 16))
	}
	return s
}

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 11, 300, 100, 109, "c4b94a3f974d1c07", []wiretest.Gen{
		{Name: "summary", Make: func(r *rand.Rand) env.Message {
			return &Summary{
				Table:  wiretest.Str(r, 12),
				Nodes:  int64(wiretest.Uint64(r) >> 1),
				Tuples: int64(wiretest.Uint64(r) >> 1),
				Bytes:  int64(wiretest.Uint64(r) >> 1),
				Keys:   randSketch(r),
			}
		}},
		{Name: "summary-nil-sketch", Make: func(r *rand.Rand) env.Message {
			return &Summary{
				Table:  wiretest.Str(r, 12),
				Nodes:  1,
				Tuples: int64(wiretest.Uint64(r) >> 1),
				Bytes:  int64(wiretest.Uint64(r) >> 1),
			}
		}},
	})
}

// TestHostileSummaryRejected: frames no honest publisher produces —
// negative counters, out-of-order or over-capacity sketches — must fail
// decode rather than skew every reader's optimizer inputs.
func TestHostileSummaryRejected(t *testing.T) {
	cases := map[string]*Summary{
		"negative tuples": {Table: "R", Nodes: 1, Tuples: -5000, Bytes: 1},
		"negative nodes":  {Table: "R", Nodes: -1, Tuples: 1, Bytes: 1},
		"negative bytes":  {Table: "R", Nodes: 1, Tuples: 1, Bytes: -1},
		"sketch K=0":      {Table: "R", Nodes: 1, Tuples: 1, Bytes: 1, Keys: &Sketch{K: 0}},
		"unsorted hashes": {Table: "R", Nodes: 1, Tuples: 1, Bytes: 1,
			Keys: &Sketch{K: 4, Hashes: []uint64{^uint64(0), 1}}},
		"over capacity": {Table: "R", Nodes: 1, Tuples: 1, Bytes: 1,
			Keys: &Sketch{K: 1, Hashes: []uint64{1, 2}}},
	}
	for name, s := range cases {
		b, err := wire.Marshal(s)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if _, err := wire.Unmarshal(b); err == nil {
			t.Errorf("%s: hostile summary accepted", name)
		}
	}
}

// TestCorruptSketchLengthRejected: a hostile hash count larger than the
// frame must fail decode instead of committing a huge allocation.
func TestCorruptSketchLengthRejected(t *testing.T) {
	good, err := wire.Marshal(&Summary{Table: "R", Nodes: 1, Tuples: 1, Bytes: 1, Keys: NewSketch(4)})
	if err != nil {
		t.Fatal(err)
	}
	// The final two bytes are the sketch K varint and the zero hash
	// count; replace the count with a large one.
	bad := append(append([]byte(nil), good[:len(good)-1]...), 0xFF, 0xFF, 0x7F)
	if _, err := wire.Unmarshal(bad); err == nil {
		t.Fatal("oversized sketch count accepted")
	}
}
