package experiments

// The initiator-incast experiment: PIER's push-based dataflow ships
// operator output "as quickly as possible" (§3.3), and taken literally
// — one unicast resultMsg per tuple — any selective scan across n
// nodes becomes an n-way per-tuple incast at the query initiator. The
// result channel batches output into frames (by size and by a short
// timer) under a per-sender credit window; this sweep runs the same
// high-cardinality query both ways and compares result frames per
// query, the metric the channel exists to shrink. The paper has no
// figure for this (its hierarchical combine trees, §4.1, dodge the
// convergence pathology only for aggregates); the expected shape is a
// frames-per-query drop of roughly min(ResultBatch, tuples-per-node)
// with recall unchanged.

import (
	"fmt"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/sql"
	"pier/internal/topology"
	"pier/internal/workload"
)

// IncastConfig parameterizes the per-tuple vs batched comparison.
type IncastConfig struct {
	Nodes   int
	STuples int // |S|: the scanned relation (R is not loaded)
	Seed    int64
}

// incastSel is the scan selectivity: at 0.5 the query's result
// cardinality is high enough that delivery, not dissemination,
// dominates.
const incastSel = 0.5

// Norm fills defaults.
func (c IncastConfig) Norm() IncastConfig {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.STuples == 0 {
		c.STuples = 2000
	}
	return c
}

// DefaultIncast returns the scaled-down (or full-scale) defaults. The
// 64-node default is the acceptance configuration: batching must cut
// result frames per query by at least 5x with recall unchanged.
func DefaultIncast(full bool) IncastConfig {
	cfg := IncastConfig{Nodes: 64, STuples: 2000, Seed: 47}
	if full {
		cfg.Nodes, cfg.STuples = 256, 8000
	}
	return cfg.Norm()
}

// IncastRun is one measured delivery mode.
type IncastRun struct {
	Batched  bool
	Frames   uint64 // result frames shipped toward the initiator
	Tuples   uint64 // tuples those frames carried
	Grants   uint64 // creditMsgs the collector issued
	Stalls   uint64 // executor credit stalls
	Received int
	Expected int
	// InitiatorInMB is the initiator's total inbound traffic — the
	// incast link the channel protects.
	InitiatorInMB float64
	TimeToLast    time.Duration
}

// Incast runs the sweep — per-tuple baseline first, then the batched
// channel — and renders the comparison.
func Incast(cfg IncastConfig) ([]IncastRun, *Table) {
	cfg = cfg.Norm()
	baseline := runIncast(cfg, false)
	batched := runIncast(cfg, true)
	runs := []IncastRun{baseline, batched}

	ratio := 0.0
	if batched.Frames > 0 {
		ratio = float64(baseline.Frames) / float64(batched.Frames)
	}
	tbl := &Table{
		Title: fmt.Sprintf("Initiator incast: per-tuple vs batched+credit result delivery (n=%d, |S|=%d, sel=%.0f%%)",
			cfg.Nodes, cfg.STuples, incastSel*100),
		Note: fmt.Sprintf("result frames per query: %d -> %d (%.1fx reduction); recall must be unchanged",
			baseline.Frames, batched.Frames, ratio),
		Headers: []string{"mode", "frames", "tuples", "tuples/frame", "grants", "stalls", "recv", "expected", "init in MB", "t(s)"},
	}
	for _, r := range runs {
		mode := "per-tuple"
		if r.Batched {
			mode = "batched"
		}
		perFrame := 0.0
		if r.Frames > 0 {
			perFrame = float64(r.Tuples) / float64(r.Frames)
		}
		tbl.Rows = append(tbl.Rows, []string{
			mode,
			fmt.Sprint(r.Frames), fmt.Sprint(r.Tuples), fmt.Sprintf("%.1f", perFrame),
			fmt.Sprint(r.Grants), fmt.Sprint(r.Stalls),
			fmt.Sprint(r.Received), fmt.Sprint(r.Expected),
			fmt.Sprintf("%.2f", r.InitiatorInMB), secs(r.TimeToLast),
		})
	}
	return runs, tbl
}

// runIncast measures one delivery mode on a fresh deployment of the
// same seed. The batched mode is the engine's default result channel.
func runIncast(cfg IncastConfig, batched bool) IncastRun {
	opts := pier.DefaultOptions()
	if !batched {
		// The pre-channel baseline: one frame per tuple, no flow
		// control.
		opts.EngineConfig.ResultBatch = 1
		opts.EngineConfig.ResultCredit = -1
	}
	tables := workload.Generate(workload.Config{STuples: cfg.STuples, Seed: cfg.Seed + 1, PadBytes: 64})
	sn := deploy(cfg.Nodes, topology.NewFullMesh(), cfg.Seed, opts, simTable{"S", workload.SPkey, tables.S})
	_, c2, _ := workload.Constants(0.5, incastSel, 0.5)
	expected := 0
	for _, s := range tables.S {
		if v, ok := s.Vals[workload.SNum2].(int64); ok && v > c2 {
			expected++
		}
	}

	m := measure(sn, incastPlan(c2), expected, 5*time.Minute)
	// Let trailing flush timers and replenishment grants settle before
	// snapshotting counters.
	sn.RunFor(time.Second)
	sn.Nodes[0].Cancel(m.id)

	run := IncastRun{Batched: batched, Received: len(m.arrivals), Expected: expected, TimeToLast: m.last()}
	for _, n := range sn.Nodes {
		qs := n.QueryStats()
		run.Frames += qs.ResultBatches
		run.Tuples += qs.ResultTuples
		run.Grants += qs.CreditGrants
		run.Stalls += qs.CreditStalls
	}
	run.InitiatorInMB = float64(sn.Net.InboundOf(0)) / 1e6
	return run
}

// incastPlan is the incast query, a scan of S with num2 > c2.
func incastPlan(c2 int64) *core.Plan {
	return sql.MustPlan(fmt.Sprintf("SELECT pkey, num2 FROM S WHERE num2 > %d", c2), workload.Catalog)
}
