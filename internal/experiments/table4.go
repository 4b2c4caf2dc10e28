package experiments

import (
	"fmt"
	"time"

	"pier/internal/opt"
	"pier/internal/topology"
)

// Table4Config drives §5.5.1: the four join strategies with infinite
// bandwidth, measuring the average time to the last result tuple.
type Table4Config struct {
	Nodes   int
	STuples int
	Runs    int // independent simulations averaged (paper averages runs)
	Seed    int64
}

// DefaultTable4 returns the scaled default (paper: n = 1024).
func DefaultTable4(full bool) Table4Config {
	cfg := Table4Config{Nodes: 256, STuples: 256, Runs: 2, Seed: 11}
	if full {
		cfg.Nodes, cfg.STuples, cfg.Runs = 1024, 1024, 3
	}
	return cfg
}

// Table4 reproduces "Average time to receive the last result tuple" for
// the four strategies under propagation delay only, and appends the
// optimizer's closed-form latency (§5.5.1's model: d=4 CAN lookups of
// n^(1/4) hops, 100 ms per hop) evaluated at this network size.
func Table4(cfg Table4Config) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 4: avg time to last result tuple, infinite bandwidth, n=%d", cfg.Nodes),
		Note:    "paper (n=1024): sym-hash 3.73s, fetch-matches 3.78s, semi-join 4.47s, bloom 6.85s",
		Headers: []string{"strategy", "measured (s)", "analytic model (s)"},
	}
	for _, est := range opt.Estimates(opt.JoinStats{}, opt.NetStats{Nodes: cfg.Nodes}) {
		var sum time.Duration
		for run := 0; run < cfg.Runs; run++ {
			res := RunJoin(JoinConfig{
				Nodes:    cfg.Nodes,
				Topo:     topology.NewFullMeshInfinite(),
				Seed:     cfg.Seed + int64(run)*101,
				Strategy: est.Strategy,
				STuples:  cfg.STuples,
				// With unlimited bandwidth the pad only affects transfer
				// volume, not timing; keep it small to speed simulation.
				PadBytes: 64,
			})
			sum += res.TimeToLast
		}
		measured := sum / time.Duration(cfg.Runs)
		t.Rows = append(t.Rows, []string{est.Strategy.String(), secs(measured), secs(est.Latency)})
	}
	return t
}
