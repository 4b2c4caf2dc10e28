package experiments

import (
	"sort"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/opt"
	"pier/internal/topology"
)

// TestOptimizerOrderingMatchesMeasurement cross-validates the §7
// cost model: the optimizer's predicted traffic ordering over the four
// strategies must match what the simulator measures at the same
// operating point.
func TestOptimizerOrderingMatchesMeasurement(t *testing.T) {
	const (
		nodes   = 64
		sTuples = 300
		selS    = 0.3
	)
	// Measure.
	measured := map[core.Strategy]float64{}
	for _, s := range selStrategies {
		res := RunJoin(JoinConfig{
			Nodes:    nodes,
			Topo:     topology.NewFullMesh(),
			Seed:     41,
			Strategy: s,
			STuples:  sTuples,
			SelS:     selS,
		})
		if res.Received != res.Expected {
			t.Fatalf("%v: recall %d/%d", s, res.Received, res.Expected)
		}
		measured[s] = res.StrategyMB
	}
	// Predict with the same parameters.
	ests := opt.Estimates(opt.JoinStats{
		Left: opt.TableStats{
			Tuples: 10 * sTuples, TupleBytes: 1024, Selectivity: 0.5,
			DistinctJoinKeys: 2 * sTuples,
		},
		Right: opt.TableStats{
			Tuples: sTuples, TupleBytes: 40, Selectivity: selS,
			HashedOnJoinAttr: true, DistinctJoinKeys: sTuples,
		},
		MatchFraction: 0.9,
	}, opt.NetStats{
		Nodes:      nodes,
		HopLatency: 100 * time.Millisecond,
		BloomBits:  float64(bloomBitsFor(2 * sTuples)),
	})
	predicted := map[core.Strategy]float64{}
	for _, e := range ests {
		predicted[e.Strategy] = e.TrafficBytes
	}

	order := func(m map[core.Strategy]float64) []core.Strategy {
		ss := append([]core.Strategy(nil), selStrategies...)
		sort.Slice(ss, func(a, b int) bool { return m[ss[a]] < m[ss[b]] })
		return ss
	}
	mo, po := order(measured), order(predicted)
	for i := range mo {
		if mo[i] != po[i] {
			t.Fatalf("orderings differ at rank %d: measured %v vs predicted %v\nmeasured=%v\npredicted(MB)=%v",
				i, mo, po, measured, scale(predicted))
		}
	}
}

func scale(m map[core.Strategy]float64) map[core.Strategy]float64 {
	out := map[core.Strategy]float64{}
	for k, v := range m {
		out[k] = v / 1e6
	}
	return out
}
