// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§5), plus this repo's own
// experiments (adaptive planner, incast, range index, chaos, simulator
// scale). Each harness returns its measured runs and a printable Table;
// cmd/pier-bench is the one runner that prints them, and the package's
// tests assert the properties that matter. Sizes default to a
// scaled-down configuration (documented in EXPERIMENTS.md); the full
// flag of each Default* restores paper scale. Speed and footprint
// claims are judged by benchmark/ (BENCHMARK.json), not here.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/topology"
	"pier/internal/workload"
)

// JoinConfig parameterizes one simulated run of the §5.1 workload query.
type JoinConfig struct {
	Nodes        int
	Topo         topology.Topology
	Seed         int64
	Strategy     core.Strategy
	STuples      int     // |S|; |R| = 10 × |S|
	PadBytes     int     // R.pad size
	SelS         float64 // selectivity of the predicate on S (paper default 0.5)
	ComputeNodes int     // 0 = all nodes participate in the join
	KthTuple     int     // the K in "time to K-th tuple" (paper: 30)
	Limit        time.Duration
	DHT          pier.DHTKind
	BloomWait    time.Duration
}

// Norm fills defaults.
func (c JoinConfig) Norm() JoinConfig {
	if c.Topo == nil {
		c.Topo = topology.NewFullMesh()
	}
	if c.SelS == 0 {
		c.SelS = 0.5
	}
	if c.PadBytes == 0 {
		c.PadBytes = 1024 - 60
	}
	if c.KthTuple == 0 {
		c.KthTuple = 30
	}
	if c.Limit == 0 {
		c.Limit = 4 * time.Hour
	}
	if c.BloomWait == 0 {
		c.BloomWait = 5 * time.Second
	}
	return c
}

// JoinResult is one measured run.
type JoinResult struct {
	Cfg        JoinConfig
	Expected   int
	Received   int
	TimeToKth  time.Duration // paper's "time to 30th result tuple"
	TimeToLast time.Duration
	TrafficMB  float64 // total aggregate network traffic
	// StrategyMB excludes result delivery to the initiator — the join
	// strategy's own bandwidth cost, Figure 4's comparison metric (the
	// result stream is identical across strategies).
	StrategyMB float64
	MaxInMB    float64 // maximum inbound traffic at any node
	AvgHops    float64 // average CAN lookup path length
}

// RunJoin loads the workload, runs the query from node 0, and measures
// the paper's metrics.
func RunJoin(cfg JoinConfig) JoinResult {
	cfg = cfg.Norm()
	opts := pier.DefaultOptions()
	opts.DHT = cfg.DHT
	sn := pier.NewSimNetwork(cfg.Nodes, cfg.Topo, cfg.Seed, opts)

	tables := workload.Generate(workload.Config{STuples: cfg.STuples, Seed: cfg.Seed + 1, PadBytes: cfg.PadBytes})
	for i, r := range tables.R {
		sn.Load("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, 0)
	}
	for i, s := range tables.S {
		sn.Load("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, 0)
	}

	// The predicate on R and the post-join predicate stay at the
	// paper's 50%; only S's selectivity is swept (Figures 4 and 5).
	c1, c2, c3 := workload.Constants(0.5, cfg.SelS, 0.5)
	expected := tables.ReferenceJoin(c1, c2, c3)

	plan := workload.JoinPlan(cfg.Strategy, c1, c2, c3)
	plan.ComputeNodes = cfg.ComputeNodes
	plan.BloomWait = cfg.BloomWait
	plan.TTL = cfg.Limit
	// Size Bloom filters for the scaled data (the paper's "small
	// temporary namespace"): ~10 bits per distinct join key. R's join
	// column draws from S's key domain plus ~10% misses, so both tables
	// have ≈ 2×|S| distinct keys.
	plan.BloomBits = bloomBitsFor(2 * cfg.STuples)

	sn.Net.ResetStats()
	start := sn.Net.Now()
	var arrivals []time.Duration
	frames, tupleBytes := resultFrames(sn), 0
	id, err := sn.Nodes[0].Query(plan, func(t *core.Tuple, _ int) {
		arrivals = append(arrivals, sn.Net.Now().Sub(start))
		tupleBytes += t.WireSize()
	})
	if err != nil {
		panic(err)
	}
	defer sn.Nodes[0].Cancel(id)
	want := len(expected)
	sn.RunUntil(cfg.Limit, func() bool { return len(arrivals) >= want })
	// Let in-flight strategy traffic (rehashes of non-matching tuples,
	// stragglers) finish so Figure 4's byte counts are complete. All
	// remaining events are bounded: maintenance is off in these runs.
	sn.Net.Drain()

	res := JoinResult{Cfg: cfg, Expected: want, Received: len(arrivals)}
	if k := cfg.KthTuple; len(arrivals) >= k {
		res.TimeToKth = arrivals[k-1]
	} else if len(arrivals) > 0 {
		res.TimeToKth = arrivals[len(arrivals)-1]
	}
	if len(arrivals) > 0 {
		res.TimeToLast = arrivals[len(arrivals)-1]
	}
	stats := sn.Net.Totals()
	res.TrafficMB = float64(stats.Bytes) / 1e6
	res.StrategyMB = float64(stats.Bytes-resultBytes(sn, id, frames, tupleBytes)) / 1e6
	res.MaxInMB = float64(sn.Net.MaxInbound()) / 1e6
	res.AvgHops = avgCANHops(sn)
	return res
}

// resultFrames counts the result frames every node has shipped so far.
func resultFrames(sn *pier.SimNetwork) (n uint64) {
	for _, nd := range sn.Nodes {
		n += nd.QueryStats().ResultBatches
	}
	return n
}

// resultBytes is what delivering query id's results cost on the
// simulated wire: the tuples the initiator received, plus an empty result
// frame and the per-send header for each frame shipped since the
// resultFrames reading taken before the query.
func resultBytes(sn *pier.SimNetwork, id uint64, framesBefore uint64, tupleBytes int) int64 {
	perFrame := env.HeaderSize + core.ResultFrameOverhead(id)
	return int64(tupleBytes) + int64(resultFrames(sn)-framesBefore)*int64(perFrame)
}

// bloomBitsFor sizes a filter at ~10 bits per expected key (≈1% false
// positives with 4 hashes), rounded up to a power of two, within
// [2^10, 2^16] (the upper bound is the paper-scale default).
func bloomBitsFor(keys int) int {
	bits := 1024
	for bits < 10*keys && bits < 1<<16 {
		bits <<= 1
	}
	return bits
}

func avgCANHops(sn *pier.SimNetwork) float64 {
	var hops, count int64
	for _, n := range sn.Nodes {
		if r, ok := n.Router().(interface {
			LookupStats() (count, hops int64)
		}); ok {
			c, h := r.LookupStats()
			count += c
			hops += h
		}
	}
	if count == 0 {
		return 0
	}
	return float64(hops) / float64(count)
}

// Table is a printable result table: what every harness renders.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
