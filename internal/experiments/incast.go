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
	"pier/internal/topology"
	"pier/internal/workload"
)

// IncastConfig parameterizes the per-tuple vs batched comparison.
type IncastConfig struct {
	Nodes   int
	STuples int // |S|: the scanned relation (R is not loaded)
	Seed    int64
	// Sel is the scan selectivity; at 0.5 over STuples tuples the
	// query's result cardinality is high enough that delivery, not
	// dissemination, dominates.
	Sel float64
	// Batch, Credit, and FlushInterval shape the batched run's result
	// channel (the baseline run forces per-tuple delivery with flow
	// control off).
	Batch         int
	Credit        int
	FlushInterval time.Duration
}

// Norm fills defaults.
func (c IncastConfig) Norm() IncastConfig {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.STuples == 0 {
		c.STuples = 2000
	}
	if c.Sel == 0 {
		c.Sel = 0.5
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Credit == 0 {
		c.Credit = 128
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * time.Millisecond
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
			cfg.Nodes, cfg.STuples, cfg.Sel*100),
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
// same seed.
func runIncast(cfg IncastConfig, batched bool) IncastRun {
	opts := pier.DefaultOptions()
	if batched {
		opts.EngineConfig.ResultBatch = cfg.Batch
		opts.EngineConfig.ResultCredit = cfg.Credit
		opts.EngineConfig.ResultFlushInterval = cfg.FlushInterval
	} else {
		// The pre-channel baseline: one frame per tuple, no flow
		// control.
		opts.EngineConfig.ResultBatch = 1
		opts.EngineConfig.ResultCredit = -1
	}
	sn := pier.NewSimNetwork(cfg.Nodes, topology.NewFullMesh(), cfg.Seed, opts)

	tables := workload.Generate(workload.Config{STuples: cfg.STuples, Seed: cfg.Seed + 1, PadBytes: 64})
	for i, s := range tables.S {
		sn.Load("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, 0)
	}
	_, c2, _ := workload.Constants(0.5, cfg.Sel, 0.5)
	expected := 0
	for _, s := range tables.S {
		if v, ok := s.Vals[workload.SNum2].(int64); ok && v > c2 {
			expected++
		}
	}

	plan := &core.Plan{
		Tables: []core.TableRef{{
			NS:     "S",
			Filter: &core.Cmp{Op: core.GT, L: &core.Col{Idx: workload.SNum2}, R: &core.Const{V: c2}},
			RIDCol: workload.SPkey,
		}},
		Output: []core.Expr{&core.Col{Idx: workload.SPkey}, &core.Col{Idx: workload.SNum2}},
		TTL:    10 * time.Minute,
	}

	sn.Net.ResetStats()
	start := sn.Net.Now()
	received := 0
	var last time.Duration
	id, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) {
		received++
		last = sn.Net.Now().Sub(start)
	})
	if err != nil {
		panic(err)
	}
	sn.RunUntil(5*time.Minute, func() bool { return received >= expected })
	// Let trailing flush timers and replenishment grants settle before
	// snapshotting counters.
	sn.RunFor(2*cfg.FlushInterval + time.Second)
	sn.Nodes[0].Cancel(id)

	run := IncastRun{Batched: batched, Received: received, Expected: expected, TimeToLast: last}
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
