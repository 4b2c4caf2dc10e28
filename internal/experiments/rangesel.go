package experiments

// The range-selectivity experiment: does the Prefix Hash Tree index
// (internal/index) actually beat the multicast full scan, and where is
// the crossover? For each selectivity the same range query runs twice —
// once through the index traversal, once as the classic full scan — and
// both are measured in nodes contacted, bytes, and time to the last
// result. The paper has no figure for this (it concedes range lookups
// as an open problem in §4.3); the expected shape is the classic
// access-path picture: the index wins by orders of magnitude at high
// selectivity and loses to the flat multicast cost once the range
// covers a large fraction of the table.

import (
	"fmt"
	"math/rand"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/topology"
)

// rangeDomain is the indexed value domain [0, rangeDomain).
const rangeDomain = 1_000_000

// RangeSelConfig parameterizes the sweep.
type RangeSelConfig struct {
	Nodes         int
	Tuples        int
	Selectivities []float64
	Seed          int64
}

// DefaultRangeSel returns the scaled-down (or full-scale) defaults.
func DefaultRangeSel(full bool) RangeSelConfig {
	cfg := RangeSelConfig{
		Nodes:         64,
		Tuples:        2000,
		Selectivities: []float64{0.001, 0.01, 0.05, 0.2, 0.5},
		Seed:          41,
	}
	if full {
		cfg.Nodes, cfg.Tuples = 256, 20000
	}
	return cfg
}

// rangeSchema is the experiment's table: an integer primary key and a
// uniformly distributed indexed attribute.
var rangeSchema = pier.SQLTable{
	Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey",
	Indexes: []pier.SQLIndex{{Name: "t_num", Col: "num"}},
}

// RangeSelRun is one measured (selectivity, access path) cell.
type RangeSelRun struct {
	Selectivity float64
	Index       bool
	// NodesContacted is trie nodes visited (index) or the multicast
	// reach (full scan).
	NodesContacted int
	Received       int
	Expected       int
	TrafficMB      float64
	TimeToLast     time.Duration
}

// RangeSelectivity runs the sweep and renders the comparison table.
func RangeSelectivity(cfg RangeSelConfig) ([]RangeSelRun, *Table) {
	sn, rows := buildRangeDeployment(cfg)

	tbl := &Table{
		Title: fmt.Sprintf("Range selectivity: PHT index scan vs multicast full scan (n=%d, |T|=%d)",
			cfg.Nodes, cfg.Tuples),
		Note:    "expected shape: index contacts O(matching leaves) nodes — far under n at high selectivity, crossing over as the range widens",
		Headers: []string{"selectivity", "idx nodes", "scan nodes", "idx MB", "scan MB", "idx t(s)", "scan t(s)", "idx recv", "scan recv", "expected"},
	}
	var runs []RangeSelRun
	for _, sel := range cfg.Selectivities {
		cut := int64(sel * rangeDomain)
		expected := 0
		for _, row := range rows {
			if row.Vals[1].(int64) < cut {
				expected++
			}
		}
		idxRun := runRangeQuery(sn, cfg, cut, sel, expected, true)
		scanRun := runRangeQuery(sn, cfg, cut, sel, expected, false)
		runs = append(runs, idxRun, scanRun)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f%%", sel*100),
			fmt.Sprint(idxRun.NodesContacted), fmt.Sprint(scanRun.NodesContacted),
			fmt.Sprintf("%.2f", idxRun.TrafficMB), fmt.Sprintf("%.2f", scanRun.TrafficMB),
			secs(idxRun.TimeToLast), secs(scanRun.TimeToLast),
			fmt.Sprint(idxRun.Received), fmt.Sprint(scanRun.Received),
			fmt.Sprint(expected),
		})
	}
	return runs, tbl
}

// buildRangeDeployment loads and indexes the table, returning the
// settled network and the generated rows.
func buildRangeDeployment(cfg RangeSelConfig) (*pier.SimNetwork, []*core.Tuple) {
	opts := pier.DefaultOptions()
	opts.Index.Interval = rangeIndexInterval
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	rows := make([]*core.Tuple, cfg.Tuples)
	for i := range rows {
		rows[i] = &core.Tuple{Rel: "T", Vals: []core.Value{int64(i), rng.Int63n(rangeDomain)}}
	}
	sn := deploy(cfg.Nodes, topology.NewFullMesh(), cfg.Seed, opts, simTable{"T", 0, rows})
	sn.Nodes[0].RegisterTable(rangeSchema, time.Hour)
	if err := sn.Nodes[0].CreateIndex(rangeSchema, "t_num", "num", time.Hour); err != nil {
		panic(err)
	}
	// Let the backfilled trie descend its prefix chain and split below
	// the leaf threshold (one level per maintenance tick).
	sn.RunFor(5 * time.Minute)
	return sn, rows
}

// rangeIndexInterval is the deployment's index maintenance period.
const rangeIndexInterval = 10 * time.Second

// runRangeQuery measures one access path for num < cut. It submits
// half an index period after the next maintenance tick: every window
// then starts at the same phase of the renewals (and after the tick's
// burst has landed), so a row's MB columns move only when its own
// duration does, not when an earlier row's did.
func runRangeQuery(sn *pier.SimNetwork, cfg RangeSelConfig, cut int64, sel float64, expected int, useIndex bool) RangeSelRun {
	phase := time.Duration(sn.Net.Now().UnixNano()) % rangeIndexInterval
	sn.RunFor((rangeIndexInterval*3/2 - phase) % rangeIndexInterval)
	plan, err := pier.ParseSQL(fmt.Sprintf("SELECT pkey, num FROM T WHERE num < %d", cut),
		pier.Catalog{"T": rangeSchema})
	if err != nil {
		panic(err)
	}
	plan.AutoAccess = false // the sweep forces each path explicitly
	if !useIndex {
		plan.Tables[0].IndexScan = nil
	}
	plan.TTL = 20 * time.Minute

	m := measure(sn, plan, expected, 10*time.Minute)
	run := RangeSelRun{
		Selectivity: sel,
		Index:       useIndex,
		Received:    len(m.arrivals),
		Expected:    expected,
		TrafficMB:   float64(sn.Net.Totals().Bytes) / 1e6,
		TimeToLast:  m.last(),
	}
	if useIndex {
		run.NodesContacted, _ = sn.Nodes[0].Engine().IndexContacts(m.id)
	} else {
		// A full scan multicasts the plan to the whole overlay.
		run.NodesContacted = cfg.Nodes
	}
	sn.Nodes[0].Cancel(m.id)
	return run
}
