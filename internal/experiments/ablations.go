package experiments

import (
	"fmt"
	"math"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht"
	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/sql"
	"pier/internal/topology"
)

// CANDims measures average lookup path length against the CAN paper's
// (d/4)·n^(1/d) model for several dimensionalities — the design choice
// §3.1.1 and §5.4 discuss ("this growth can be reduced ... by setting
// d = log n or using a different DHT design").
func CANDims(nodes int, dims []int, lookups int, seed int64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: CAN dimensionality vs lookup hops (n=%d)", nodes),
		Headers: []string{"d", "measured avg hops", "(d/4)·n^(1/d) model", "avg lookup latency (s)"},
	}
	for _, d := range dims {
		hops, latency := canLookupStats(nodes, d, lookups, seed)
		model := float64(d) / 4 * math.Pow(float64(nodes), 1/float64(d))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(d),
			fmt.Sprintf("%.2f", hops),
			fmt.Sprintf("%.2f", model),
			fmt.Sprintf("%.2f", latency.Seconds()),
		})
	}
	return t
}

func canLookupStats(nodes, dims, lookups int, seed int64) (avgHops float64, avgLatency time.Duration) {
	nw := simnet.New(topology.NewFullMeshInfinite(), seed)
	cfg := can.DefaultConfig()
	cfg.Dims = dims
	routers := make([]*can.Router, nodes)
	envs := make([]*simnet.NodeEnv, nodes)
	for i := range routers {
		e := nw.AddNode()
		r := can.New(e, cfg)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { r.HandleMessage(from, m) }))
		routers[i] = r
		envs[i] = e
	}
	can.Bootstrap(routers, seed)

	var total time.Duration
	done := 0
	start := nw.Now()
	for i := 0; i < lookups; i++ {
		src := i % nodes
		key := dht.KeyOf("ablation", fmt.Sprint(i))
		envs[src].Post(func() {
			routers[src].Lookup(key, func(env.Addr) {
				total += nw.Now().Sub(start)
				done++
			})
		})
	}
	nw.RunFor(30 * time.Minute)
	var hops, count int64
	for _, r := range routers {
		c, h := r.LookupStats()
		count += c
		hops += h
	}
	if count == 0 || done == 0 {
		return 0, 0
	}
	// Every lookup is issued at start, so total/done is the mean
	// simulated time from issue to answer.
	return float64(hops) / float64(count), total / time.Duration(done)
}

// ChordVsCAN runs the workload join over both DHTs — the paper's §3.2
// validation ("we also deployed PIER over ... Chord, which required a
// fairly minimal integration effort").
func ChordVsCAN(nodes, sTuples int, seed int64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: CAN vs Chord under the workload join (n=%d)", nodes),
		Headers: []string{"dht", "time to 30th (s)", "time to last (s)", "recall", "avg lookup hops"},
	}
	for _, kind := range []pier.DHTKind{pier.CAN, pier.Chord} {
		res := RunJoin(JoinConfig{
			Nodes:    nodes,
			Topo:     topology.NewFullMesh(),
			Seed:     seed,
			Strategy: core.SymmetricHash,
			STuples:  sTuples,
			DHT:      kind,
		})
		name := "CAN(d=4)"
		if kind == pier.Chord {
			name = "Chord"
		}
		recall := float64(res.Received) / float64(res.Expected)
		t.Rows = append(t.Rows, []string{
			name, secs(res.TimeToKth), secs(res.TimeToLast),
			fmt.Sprintf("%.3f", recall), fmt.Sprintf("%.2f", res.AvgHops),
		})
	}
	return t
}

// HierarchicalAgg compares flat DHT aggregation against the two-level
// hierarchy of §7 ("Hierarchical aggregation and DHTs"): one global
// COUNT/SUM over rows spread across n nodes, measuring the hottest
// node's inbound bytes (the root collector).
func HierarchicalAgg(nodes, rows int, fanouts []int, seed int64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: flat vs hierarchical aggregation (n=%d, one global group)", nodes),
		Note:    "fanout 0 = the paper's flat parallel-database scheme; >0 = two-level tree (§7)",
		Headers: []string{"fanout", "max node inbound (KB)", "total traffic (KB)", "time to result (s)"},
	}
	for _, f := range fanouts {
		maxIn, total, dur := hierAggRun(nodes, rows, f, seed)
		label := fmt.Sprint(f)
		if f == 0 {
			label = "flat"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%.1f", maxIn/1024),
			fmt.Sprintf("%.1f", total/1024),
			fmt.Sprintf("%.2f", dur.Seconds()),
		})
	}
	return t
}

func hierAggRun(nodes, rows, fanout int, seed int64) (maxIn, total float64, dur time.Duration) {
	m := make([]*core.Tuple, rows)
	for i := range m {
		m[i] = &core.Tuple{Rel: "m", Vals: []core.Value{"g", int64(1), int64(i)}}
	}
	sn := deploy(nodes, topology.NewFullMesh(), seed, pier.DefaultOptions(), simTable{"m", 2, m})
	run := measure(sn, hierAggPlan(fanout), 0, time.Minute)
	defer sn.Nodes[0].Cancel(run.id)
	return float64(sn.Net.MaxInbound()), float64(sn.Net.Totals().Bytes), run.last()
}

// hierAggPlan is the ablation's global COUNT/SUM over m, whose rows
// are ("g", 1, i), keyed by the row number i; the catalog lists only
// the columns the query reads.
func hierAggPlan(fanout int) *core.Plan {
	p := sql.MustPlan("SELECT grp, count(*), sum(v) FROM m GROUP BY grp WAIT '10s'",
		sql.Catalog{"m": {Name: "m", Cols: []string{"grp", "v"}, Key: "grp"}})
	p.AggFanout = fanout
	return p
}

// StrategyTraffic compares the four strategies' traffic and latency at
// one operating point — a compact summary for the README.
func StrategyTraffic(nodes, sTuples int, seed int64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Join strategies at 50%% selectivity (n=%d, 10Mbps)", nodes),
		Headers: []string{"strategy", "traffic (MB)", "time to last (s)", "recall"},
	}
	for _, s := range selStrategies {
		res := RunJoin(JoinConfig{
			Nodes:    nodes,
			Topo:     topology.NewFullMesh(),
			Seed:     seed,
			Strategy: s,
			STuples:  sTuples,
		})
		t.Rows = append(t.Rows, []string{
			s.String(),
			fmt.Sprintf("%.1f", res.TrafficMB),
			secs(res.TimeToLast),
			fmt.Sprintf("%.3f", float64(res.Received)/float64(res.Expected)),
		})
	}
	return t
}
