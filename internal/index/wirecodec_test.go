package index

import (
	"math/rand"
	"testing"

	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func randTuple(r *rand.Rand) *core.Tuple {
	t := &core.Tuple{Rel: wiretest.Str(r, 6), Pad: r.Intn(64)}
	for i, n := 0, r.Intn(5); i < n; i++ {
		switch r.Intn(4) {
		case 0:
			t.Vals = append(t.Vals, wiretest.Int64(r))
		case 1:
			t.Vals = append(t.Vals, r.Float64())
		case 2:
			t.Vals = append(t.Vals, wiretest.Str(r, 8))
		default:
			t.Vals = append(t.Vals, nil)
		}
	}
	return t
}

func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 31, 300, 110, 119, "82af1a61f08af3ba", []wiretest.Gen{
		{Name: "Entry", Make: func(r *rand.Rand) env.Message {
			return &Entry{K: r.Uint64(), RID: wiretest.Str(r, 10), IID: wiretest.Int64(r), T: randTuple(r)}
		}},
		{Name: "Marker", Make: func(r *rand.Rand) env.Message { return &Marker{} }},
		{Name: "Def", Make: func(r *rand.Rand) env.Message {
			return &Def{
				Name:   "ix" + wiretest.Str(r, 6),
				Table:  "t" + wiretest.Str(r, 6),
				Col:    "c" + wiretest.Str(r, 6),
				ColIdx: r.Intn(16),
			}
		}},
	})
}

// TestHostileDefRejected asserts frames carrying definitions no honest
// creator can produce fail at decode instead of poisoning def caches.
func TestHostileDefRejected(t *testing.T) {
	for _, bad := range []*Def{
		{Name: "", Table: "t", Col: "c"},
		{Name: "a|b", Table: "t", Col: "c"},
		{Name: "x", Table: "t", Col: "c", ColIdx: -1},
	} {
		b, err := wire.Marshal(bad)
		if err != nil {
			continue // encoder may legitimately refuse; decode path below needs bytes
		}
		if _, err := wire.Unmarshal(b); err == nil {
			t.Fatalf("hostile def %+v decoded cleanly", bad)
		}
	}
}

// TestEntryWithoutTupleRejected asserts the executor can rely on every
// decoded entry carrying a tuple.
func TestEntryWithoutTupleRejected(t *testing.T) {
	b, err := wire.Marshal(&Entry{K: 1, RID: "r"})
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := wire.Unmarshal(b); err == nil {
		t.Fatalf("entry without tuple decoded cleanly")
	}
}
