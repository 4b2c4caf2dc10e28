package experiments

// Acceptance tests for the range scenario: at ≤1% selectivity the
// index-backed scan must contact fewer nodes than the full scan (and
// return everything), and the access-path chooser must pick the full
// scan once the range covers half the table.

import (
	"testing"

	"pier/internal/opt"
)

func TestRangeSelectivityIndexBeatsScanWhenSelective(t *testing.T) {
	cfg := RangeSelConfig{
		Nodes:         48,
		Tuples:        1200,
		Selectivities: []float64{0.01, 0.5},
		Seed:          41,
	}
	runs, _ := RangeSelectivity(cfg)

	byKey := map[[2]bool]map[float64]RangeSelRun{}
	for _, r := range runs {
		k := [2]bool{r.Index, true}
		if byKey[k] == nil {
			byKey[k] = map[float64]RangeSelRun{}
		}
		byKey[k][r.Selectivity] = r
	}
	idx, scan := byKey[[2]bool{true, true}], byKey[[2]bool{false, true}]

	// Acceptance: at ≤1% selectivity the index contacts fewer nodes.
	lo := idx[0.01]
	if lo.NodesContacted >= scan[0.01].NodesContacted {
		t.Errorf("at 1%% selectivity the index contacted %d nodes, full scan %d — no win",
			lo.NodesContacted, scan[0.01].NodesContacted)
	}
	// Both paths must return the complete result at every operating
	// point (the index is an access path, not an approximation).
	for _, r := range runs {
		if r.Received != r.Expected {
			t.Errorf("sel=%.3f index=%v: received %d of %d results",
				r.Selectivity, r.Index, r.Received, r.Expected)
		}
	}

	// Acceptance: the optimizer picks the full scan at high selectivity
	// for this deployment's parameters...
	ts := opt.TableStats{Tuples: float64(cfg.Tuples), Selectivity: 0.5}
	net := opt.NetStats{Nodes: cfg.Nodes}
	if useIndex, iEst, fEst := opt.ChooseScan(ts, net, 16); useIndex {
		t.Errorf("ChooseScan picked the index at 50%% selectivity (index %.0f msgs, full %.0f)",
			iEst.Messages, fEst.Messages)
	}
	// ...and the index at 1%.
	ts.Selectivity = 0.01
	if useIndex, iEst, fEst := opt.ChooseScan(ts, net, 16); !useIndex {
		t.Errorf("ChooseScan picked the full scan at 1%% selectivity (index %.0f msgs, full %.0f)",
			iEst.Messages, fEst.Messages)
	}
}
