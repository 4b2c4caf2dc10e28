package chaos

// The index-under-churn acceptance scenario (and the split/merge
// round-trip test riding the chaos schedules): the pinned-seed fault
// schedule of the base scenario, plus a PHT index over S.num2 whose
// range queries join the workload mix. Recall is measured against the
// fault-free oracle exactly like every other query kind, and the
// soft-state invariant additionally proves the whole trie — entries,
// interior markers, definitions — expired once its producers stopped.

import (
	"os"
	"testing"
)

func TestChaosRangePinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos scenario is slow")
	}
	cfg := DefaultRange(1)
	rep := Run(cfg)
	rep.Print(os.Stderr)
	pinned(t, rep, 0xc96e55759fc10889)
	for _, iv := range rep.Failed() {
		t.Errorf("invariant %s failed: %s", iv.Name, iv.Detail)
	}

	// The mix must actually contain range queries, and each must have
	// been compared against the oracle. (rep.Cfg is the normalized
	// config — Default leaves Queries to Norm's default.)
	specs := GenerateQueriesMix(rep.Cfg.Queries, rep.Cfg.Seed, true)
	ranges := 0
	for i, spec := range specs {
		if spec.Kind != QRange {
			continue
		}
		ranges++
		if !spec.Recallable() {
			t.Errorf("range query %d not recallable", i)
		}
		if i < len(rep.PerQueryRecall) && rep.PerQueryRecall[i] < cfg.RecallFloor/2 {
			t.Errorf("range query %d recall %.2f collapsed (floor %.2f)",
				i, rep.PerQueryRecall[i], cfg.RecallFloor)
		}
	}
	if ranges == 0 {
		t.Fatalf("generated mix of %d queries contains no range queries", rep.Cfg.Queries)
	}
}

func TestGenerateQueriesMixRangeFlag(t *testing.T) {
	base := GenerateQueries(16, 8)
	mixed := GenerateQueriesMix(16, 8, true)
	for i := range base {
		if base[i].Kind == QRange {
			t.Errorf("base mix contains a range query at %d", i)
		}
	}
	found := false
	for i := range mixed {
		if mixed[i].Kind == QRange {
			found = true
		} else if mixed[i] != base[i] {
			t.Errorf("range flag perturbed non-range query %d: %+v vs %+v", i, mixed[i], base[i])
		}
	}
	if !found {
		t.Errorf("range flag produced no range queries")
	}
}
