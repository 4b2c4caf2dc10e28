package experiments

import (
	"fmt"
	"time"

	"pier/internal/chaos"
)

// ChurnMatrixConfig drives the chaos-harness successor of the Figure 6
// experiment: where the paper only fails nodes, the harness also
// rejoins a fresh identity per departure (constant population, like a
// real long-lived deployment), mixes graceful leaves among the
// crashes, and measures recall for the full generated query mix
// against a fault-free oracle run of the same seed.
type ChurnMatrixConfig struct {
	Nodes          int
	STuples        int
	Queries        int
	QueryEvery     time.Duration
	RefreshPeriods []time.Duration
	// ChurnRates are departures/minute (each followed by a rejoin).
	ChurnRates   []float64
	GracefulFrac float64
	BaseLoss     float64
	Seed         int64
}

// DefaultChurnMatrix returns the scaled default; full widens to the
// paper's churn range at 4096-node population shape.
func DefaultChurnMatrix(full bool) ChurnMatrixConfig {
	cfg := ChurnMatrixConfig{
		Nodes:          64,
		STuples:        80,
		Queries:        4,
		QueryEvery:     45 * time.Second,
		RefreshPeriods: []time.Duration{30 * time.Second, 60 * time.Second, 150 * time.Second},
		ChurnRates:     []float64{0, 3, 6},
		GracefulFrac:   0.3,
		BaseLoss:       0.01,
		Seed:           11,
	}
	if full {
		cfg.Nodes = 1024
		cfg.STuples = 400
		cfg.Queries = 8
		cfg.ChurnRates = []float64{0, 6, 12, 24}
		cfg.RefreshPeriods = append(cfg.RefreshPeriods, 225*time.Second)
	}
	return cfg
}

// XLChurnMatrix is one churn-matrix point at n=100,000: a single
// refresh period and churn rate, exercising the full chaos harness
// (crash + rejoin + loss, oracle and faulted runs) at three orders of
// magnitude beyond the paper's churn experiment population. The churn
// rate scales with the population — 60 departures/min is 0.06%/min of
// a 100k network.
func XLChurnMatrix(seed int64) ChurnMatrixConfig {
	return ChurnMatrixConfig{
		Nodes:          100_000,
		STuples:        300,
		Queries:        2,
		QueryEvery:     30 * time.Second,
		RefreshPeriods: []time.Duration{45 * time.Second},
		ChurnRates:     []float64{60},
		GracefulFrac:   0.3,
		BaseLoss:       0.01,
		Seed:           seed,
	}
}

// ChurnMatrix runs the recall-under-churn matrix through the chaos
// harness and reports average recall percentages, plus whether every
// scenario kept its invariants.
func ChurnMatrix(cfg ChurnMatrixConfig) *Table {
	t := &Table{
		Title: fmt.Sprintf("Chaos churn matrix: recall (%%) vs churn with rejoin, n=%d, 1%% loss", cfg.Nodes),
		Note:  "rows: departures/min (30% graceful, each followed by a rejoin); columns: refresh period; * marks an invariant violation",
	}
	t.Headers = []string{"departures/min"}
	for _, rp := range cfg.RefreshPeriods {
		t.Headers = append(t.Headers, fmt.Sprintf("%ds refresh", int(rp.Seconds())))
	}
	for _, rate := range cfg.ChurnRates {
		row := []string{fmt.Sprintf("%.0f", rate)}
		for _, rp := range cfg.RefreshPeriods {
			rep := chaos.Run(chaos.Config{
				Nodes:         cfg.Nodes,
				Seed:          cfg.Seed,
				CrashesPerMin: rate,
				GracefulFrac:  cfg.GracefulFrac,
				BaseLoss:      cfg.BaseLoss,
				STuples:       cfg.STuples,
				RefreshPeriod: rp,
				Queries:       cfg.Queries,
				QueryEvery:    cfg.QueryEvery,
				RecallFloor:   0, // the matrix reports recall; it does not gate on it
			})
			cell := fmt.Sprintf("%.1f", 100*rep.Recall)
			if !rep.AllPass() {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ChaosScenario runs the pinned-seed reference scenario (the one CI
// smokes and the acceptance criteria name) and returns its report.
func ChaosScenario(seed int64, full bool) *chaos.Report {
	cfg := chaos.Default(seed)
	if full {
		cfg.Nodes = 256
		cfg.STuples = 200
		cfg.Queries = 16
	}
	return chaos.Run(cfg)
}

// RangeChaosScenario runs the pinned-seed scenario with the Prefix
// Hash Tree index in the workload mix: range queries traverse the trie
// under churn, partitions, and loss, and are held to the same recall,
// termination, soft-state-expiry, and replay-determinism invariants.
func RangeChaosScenario(seed int64, full bool) *chaos.Report {
	cfg := chaos.DefaultRange(seed)
	if full {
		cfg.Nodes = 256
		cfg.STuples = 200
		cfg.Queries = 16
	}
	return chaos.Run(cfg)
}

// FloodScenario runs the pinned-seed publish-flood scenario: a hot
// namespace flooded far past a per-node byte quota, with the unbounded
// oracle run defining what a node with enough memory would answer. The
// report carries the quota, backpressure, and forgetting invariants;
// TestChaosFloodPinnedSeed (internal/chaos) additionally pins how many
// flood results the bounded run keeps and what the faulted run may
// cost in traffic at seed 1.
func FloodScenario(seed int64, full bool) *chaos.Report {
	cfg := chaos.DefaultFlood(seed)
	if full {
		cfg.Nodes = 128
		cfg.PublishFlood = 3000
	}
	return chaos.Run(cfg)
}
