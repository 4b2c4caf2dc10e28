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
	"pier/internal/sql"
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
	Limit        time.Duration
	DHT          pier.DHTKind
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
	if c.Limit == 0 {
		c.Limit = 4 * time.Hour
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

// kthTuple is the K in the paper's "time to K-th result tuple".
const kthTuple = 30

// RunJoin loads the workload, runs the query from node 0, and measures
// the paper's metrics.
func RunJoin(cfg JoinConfig) JoinResult {
	cfg = cfg.Norm()
	opts := pier.DefaultOptions()
	opts.DHT = cfg.DHT
	tables := workload.Generate(workload.Config{STuples: cfg.STuples, Seed: cfg.Seed + 1, PadBytes: cfg.PadBytes})
	sn := deploy(cfg.Nodes, cfg.Topo, cfg.Seed, opts, workloadTables(tables)...)

	// The predicate on R and the post-join predicate stay at the
	// paper's 50%; only S's selectivity is swept (Figures 4 and 5).
	c1, c2, c3 := workload.Constants(0.5, cfg.SelS, 0.5)
	want := len(tables.ReferenceJoin(c1, c2, c3))

	plan := sql.MustPlan(workload.JoinSQL(cfg.Strategy, c1, c2, c3), workload.Catalog)
	plan.ComputeNodes = cfg.ComputeNodes
	plan.TTL = cfg.Limit
	// Size Bloom filters for the scaled data (the paper's "small
	// temporary namespace"): ~10 bits per distinct join key. R's join
	// column draws from S's key domain plus ~10% misses, so both tables
	// have ≈ 2×|S| distinct keys.
	plan.BloomBits = bloomBitsFor(2 * cfg.STuples)

	m := measure(sn, plan, want, cfg.Limit)
	defer sn.Nodes[0].Cancel(m.id)
	// Let in-flight strategy traffic (rehashes of non-matching tuples,
	// stragglers) finish so Figure 4's byte counts are complete. All
	// remaining events are bounded: maintenance is off in these runs.
	sn.Net.Drain()

	res := JoinResult{Cfg: cfg, Expected: want, Received: len(m.arrivals), TimeToKth: m.last(), TimeToLast: m.last()}
	if len(m.arrivals) >= kthTuple {
		res.TimeToKth = m.arrivals[kthTuple-1]
	}
	stats := sn.Net.Totals()
	res.TrafficMB = float64(stats.Bytes) / 1e6
	res.StrategyMB = float64(stats.Bytes-m.deliveryBytes(sn)) / 1e6
	res.MaxInMB = float64(sn.Net.MaxInbound()) / 1e6
	res.AvgHops = avgCANHops(sn)
	return res
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
		c, h := n.Router().LookupStats()
		count += c
		hops += h
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
