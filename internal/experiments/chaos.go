package experiments

import (
	"fmt"
	"time"

	"pier/internal/chaos"
)

// ChurnMatrixConfig drives a recall-under-churn matrix through the
// chaos harness: Scenario is run once per refresh period and churn
// rate. Every departure is followed by a fresh identity rejoining
// (constant population, §5.6), and recall is measured against a
// fault-free oracle run of the same seed.
type ChurnMatrixConfig struct {
	// Scenario fixes everything but RefreshPeriod and CrashesPerMin,
	// which each cell sets.
	Scenario       chaos.Config
	RefreshPeriods []time.Duration
	// ChurnRates are departures/minute (each followed by a rejoin).
	ChurnRates []float64
}

// Figure6 is the paper's Figure 6 (§5.6): the §5.1 join under crashes
// only, with no link loss (paper: n=4096, 15 s failure detection).
// full restores the paper's population and failure rates.
func Figure6(full bool) ChurnMatrixConfig {
	cfg := ChurnMatrixConfig{
		Scenario: chaos.Config{
			Nodes:      96,
			Seed:       5,
			STuples:    150,
			Queries:    4,
			QueryEvery: 45 * time.Second,
			PaperQuery: true,
		},
		RefreshPeriods: []time.Duration{30 * time.Second, 60 * time.Second, 150 * time.Second},
		ChurnRates:     []float64{0, 3, 6},
	}
	if full {
		cfg.Scenario.Nodes = 4096
		cfg.Scenario.STuples = 2000
		cfg.RefreshPeriods = append(cfg.RefreshPeriods, 225*time.Second)
		cfg.ChurnRates = []float64{0, 60, 120, 240}
	}
	return cfg
}

// DefaultChurnMatrix is the harness's successor of Figure 6: where the
// paper only fails nodes, it mixes graceful leaves among the crashes,
// adds 1% link loss, and measures the full generated query mix. full
// widens to the paper's churn range at 1024 nodes.
func DefaultChurnMatrix(full bool) ChurnMatrixConfig {
	cfg := ChurnMatrixConfig{
		Scenario: chaos.Config{
			Nodes:        64,
			Seed:         11,
			GracefulFrac: 0.3,
			BaseLoss:     0.01,
			STuples:      80,
			Queries:      4,
			QueryEvery:   45 * time.Second,
		},
		RefreshPeriods: []time.Duration{30 * time.Second, 60 * time.Second, 150 * time.Second},
		ChurnRates:     []float64{0, 3, 6},
	}
	if full {
		cfg.Scenario.Nodes = 1024
		cfg.Scenario.STuples = 400
		cfg.Scenario.Queries = 8
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
		Scenario: chaos.Config{
			Nodes:        100_000,
			Seed:         seed,
			GracefulFrac: 0.3,
			BaseLoss:     0.01,
			STuples:      300,
			Queries:      2,
			QueryEvery:   30 * time.Second,
		},
		RefreshPeriods: []time.Duration{45 * time.Second},
		ChurnRates:     []float64{60},
	}
}

// cell runs the matrix point at one refresh period and churn rate.
func (c ChurnMatrixConfig) cell(refresh time.Duration, rate float64) *chaos.Report {
	s := c.Scenario
	s.RefreshPeriod, s.CrashesPerMin = refresh, rate
	return chaos.Run(s)
}

// ChurnMatrix runs the matrix and reports average recall percentages,
// plus whether every scenario kept its invariants. The matrix reports
// recall; it does not gate on it.
func ChurnMatrix(cfg ChurnMatrixConfig) *Table {
	s := cfg.Scenario
	title := "Chaos churn matrix: recall (%) vs churn with rejoin"
	if s.PaperQuery {
		title = "Figure 6: average recall (%) of the §5.1 join vs failure rate"
	}
	t := &Table{
		Title: fmt.Sprintf("%s, n=%d, %.3g%% loss", title, s.Nodes, 100*s.BaseLoss),
		Note: fmt.Sprintf("rows: departures/min (%.3g%% graceful, each followed by a rejoin); columns: refresh period; * marks an invariant violation",
			100*s.GracefulFrac),
	}
	t.Headers = []string{"departures/min"}
	for _, rp := range cfg.RefreshPeriods {
		t.Headers = append(t.Headers, fmt.Sprintf("%ds refresh", int(rp.Seconds())))
	}
	for _, rate := range cfg.ChurnRates {
		row := []string{fmt.Sprintf("%.0f", rate)}
		for _, rp := range cfg.RefreshPeriods {
			rep := cfg.cell(rp, rate)
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
