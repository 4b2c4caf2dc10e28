package experiments

import (
	"strings"
	"testing"
)

// TestSimHeapBudget holds the simulator's heap-per-node budget in
// tier-1: SimScale at n=20 000 must keep the substrate and the overlay
// under simSubstrateBudget / simOverlayBudget bytes per node, what a
// finished query leaves on each node under simResidueBudget, and
// return every row of the overlay scans. The quantities are independent
// of n, so this gates what the CI simscale-smoke job measures at
// n=100k, in ~4 s and ~90 MB. Not parallel: it reads process-wide heap
// deltas.
func TestSimHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 20k-node simulations")
	}
	cfg := DefaultSimScale(false)
	cfg.Nodes, cfg.OverlayNodes = 20_000, 20_000
	tbl, err := SimScale(cfg)
	var sb strings.Builder
	tbl.Print(&sb)
	t.Log(sb.String())
	if err != nil {
		t.Fatal(err)
	}
}
