package experiments

import (
	"testing"

	"pier/internal/core"
)

// TestAdaptivePlannerMatchesOrBeatsBestFixed is the acceptance check
// for the statistics catalog: with no USING STRATEGY and a warmed
// catalog, the automatic choice must match or beat the best fixed
// strategy (by strategy traffic, the Figure 4 metric) on at least two
// of the three bench workloads — and must never lose results.
func TestAdaptivePlannerMatchesOrBeatsBestFixed(t *testing.T) {
	results, tbl := Adaptive(DefaultAdaptive(false))
	wins := 0
	chosen := map[core.Strategy]bool{}
	for _, res := range results {
		a := res.Adaptive
		if a.Received != a.Expected {
			t.Errorf("%s: adaptive run recall %d/%d", res.Workload.Key, a.Received, a.Expected)
			continue
		}
		chosen[a.Strategy] = true
		best, ok := res.BestFixed()
		if !ok {
			t.Errorf("%s: no fixed strategy achieved full recall", res.Workload.Key)
			continue
		}
		t.Logf("%s: adaptive chose %v (%.3f MB); best fixed %v (%.3f MB)",
			res.Workload.Key, a.Strategy, a.StrategyMB, best.Strategy, best.StrategyMB)
		if a.StrategyMB <= best.StrategyMB*1.05 {
			wins++
		}
	}
	if wins < 2 {
		tbl.Print(testWriter{t})
		t.Fatalf("adaptive matched or beat the best fixed strategy on %d/3 workloads, want >= 2", wins)
	}
	if len(chosen) < 2 {
		t.Fatalf("adaptive picked the same strategy everywhere (%v); workloads should separate", chosen)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
