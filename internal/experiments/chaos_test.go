package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pier/internal/chaos"
)

// TestChurnMatrixSmoke runs a tiny matrix end to end: recall must be
// measured everywhere, invariants must hold, and the fault-free column
// must beat the heavily churned one.
func TestChurnMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	cfg := ChurnMatrixConfig{
		Scenario: chaos.Config{
			Nodes:        32,
			Seed:         11,
			GracefulFrac: 0.3,
			BaseLoss:     0.01,
			STuples:      50,
			Queries:      2,
			QueryEvery:   45 * time.Second,
		},
		RefreshPeriods: []time.Duration{45 * time.Second},
		ChurnRates:     []float64{0, 8},
	}
	tbl := ChurnMatrix(cfg)
	if len(tbl.Rows) != 2 || len(tbl.Rows[0]) != 2 {
		t.Fatalf("matrix shape wrong: %+v", tbl.Rows)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if strings.HasSuffix(cell, "*") {
				t.Errorf("invariant violation in cell %q (row %s)", cell, row[0])
			}
		}
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	calm, churned := parse(tbl.Rows[0][1]), parse(tbl.Rows[1][1])
	if calm < churned-5 { // churn should not *improve* recall
		t.Errorf("recall under churn (%v) exceeds calm recall (%v)", churned, calm)
	}
	if calm < 50 {
		t.Errorf("calm recall implausibly low: %v", calm)
	}
}
