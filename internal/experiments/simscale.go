package experiments

// SimScale measures the simulation core's scale budget: how many bytes
// of heap one simulated node costs — split into the simnet+env
// substrate and the full PIER overlay stack — what each node keeps of
// every query it has finished, and how many events per second the
// discrete-event core sustains while routing. This is the harness
// behind the memory-per-node budget published in EXPERIMENTS.md: the
// three byte figures are held to the budget constants below by
// TestSimHeapBudget (tier-1, n=20k) and by the CI simscale-smoke job
// (`pier-bench -only simscale`, n=100k); events/sec is wall-clock and
// printed for information only.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/sql"
	"pier/internal/topology"
)

// SimScaleConfig sizes the measurement buckets.
type SimScaleConfig struct {
	// Nodes is the raw simulator population: bare simnet.Network +
	// NodeEnv with a forwarding handler, no PIER stack. This bucket is
	// the ≤10KB/node budget of the scaling work.
	Nodes int
	// OverlayNodes is the population for the full-stack bucket: a
	// bootstrapped CAN deployment with provider, engine, statistics,
	// and index agents per node, measured incrementally over the
	// substrate and exercised with one network-wide multicast scan,
	// then with the residue bucket's scans.
	OverlayNodes int
	Seed         int64
}

// DefaultSimScale returns the n=100k build-and-route configuration used
// by CI; -full raises the raw population to 250k.
func DefaultSimScale(full bool) SimScaleConfig {
	cfg := SimScaleConfig{
		Nodes:        100_000,
		OverlayNodes: 100_000,
		Seed:         1,
	}
	if full {
		cfg.Nodes = 250_000
	}
	return cfg
}

// The heap budget per simulated node, in settled bytes. The buckets
// are independent of n (substrate 214 B/node, overlay 3 086-3 092
// B/node and query residue 34-35 B/node per query from n=5k to
// n=100k), so one set of constants serves the 20k-node test and the
// 100k-node CI run, ~12% over the measurement.
const (
	simSubstrateBudget = 240  // bare simnet.Network + NodeEnv
	simOverlayBudget   = 3460 // full PIER stack, incremental over the substrate
	simResidueBudget   = 39   // per node per finished query: the flood and cancel memos

	// The residue bucket runs this many scan+cancel cycles, each to
	// completion within simResidueRun.
	simResidueQueries = 8
	simResidueRun     = 10 * time.Second
)

// The raw route pass is simWalkers concurrent random walks of simHops
// message hops each.
const simWalkers, simHops = 20_000, 20

// walkMsg is the raw route pass's payload: a hop budget.
type walkMsg struct{ hops int32 }

func (walkMsg) WireSize() int { return 64 }

// heapInUse settles the collector and returns live heap bytes.
// Signed, so a heap that shrank across a measurement yields a negative
// delta instead of wrapping.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// SimScale runs the three buckets and returns the table, plus an error
// naming every exceeded budget: substrate, overlay or residue bytes/node
// over their constants, or an overlay scan that lost rows.
func SimScale(cfg SimScaleConfig) (*Table, error) {
	tbl := &Table{
		Title: fmt.Sprintf("Simulation core at scale (raw n=%d, overlay n=%d)",
			cfg.Nodes, cfg.OverlayNodes),
		Headers: []string{"bucket", "nodes", "heap MB", "bytes/node", "events", "events/sec", "wall"},
	}
	var over []error
	// bucket records one bucket's row and holds its bytes per node (per
	// node and query for the residue) to budget. A non-positive delta is
	// a broken measurement, not a pass.
	bucket := func(name string, nodes int, bytes, per, budget int64, events int, wall time.Duration) {
		perNode := bytes / per
		tbl.Rows = append(tbl.Rows, []string{
			name, fmt.Sprint(nodes), fmt.Sprintf("%.1f", float64(bytes)/1e6),
			fmt.Sprint(perNode), fmt.Sprint(events), fmt.Sprintf("%.0f", float64(events)/wall.Seconds()),
			wall.Round(time.Millisecond).String(),
		})
		if perNode <= 0 || perNode > budget {
			over = append(over, fmt.Errorf("%s costs %d B/node, want (0, %d]", name, perNode, budget))
		}
	}

	// Bucket 1: the simulator substrate. Build n nodes with a
	// forwarding handler, measure the settled heap delta, then drive
	// the random walks and measure event throughput.
	base := heapInUse()
	nw := simnet.New(topology.NewFullMeshInfinite(), cfg.Seed)
	n := cfg.Nodes
	for i := 0; i < n; i++ {
		nd := nw.AddNode()
		nd.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			msg := m.(walkMsg)
			if msg.hops > 0 {
				next := int(nd.Rand().Int63n(int64(n)))
				nd.Send(nw.Node(next).Addr(), walkMsg{hops: msg.hops - 1})
			}
		}))
	}
	rawBytes := heapInUse() - base

	for i := 0; i < simWalkers; i++ {
		src := nw.Node((i * 104729) % n)
		src.After(time.Duration(i%1000)*time.Millisecond, func() {
			src.Send(src.Addr(), walkMsg{hops: simHops})
		})
	}
	start := time.Now()
	events := nw.Drain()
	bucket("simnet+env", n, rawBytes, int64(n), simSubstrateBudget, events, time.Since(start))
	runtime.KeepAlive(nw)
	nw = nil

	// Bucket 2: the full PIER stack, measured incrementally — build a
	// bootstrapped CAN deployment, load a small table, and run one
	// network-wide multicast scan as the route pass.
	on := cfg.OverlayNodes
	base = heapInUse()
	sn := deploy(on, topology.NewFullMesh(), cfg.Seed, pier.DefaultOptions())
	overlayBytes := heapInUse() - base

	const rows = 200
	u := make([]*core.Tuple, rows)
	for i := range u {
		u[i] = &core.Tuple{Rel: "u", Vals: []core.Value{int64(i)}}
	}
	load(sn, simTable{"u", 0, u})
	start = time.Now()
	m := measure(sn, simScalePlan(), 0, 90*time.Second)
	bucket("pier overlay", on, overlayBytes, int64(on), simOverlayBudget, m.events, time.Since(start))
	sn.Nodes[0].Cancel(m.id)
	got := len(m.arrivals)

	// Bucket 3: the query residue, what every node keeps of each query
	// it has finished: the two floods' fingerprints, the cancelled id.
	// Finish the route pass's cancel, then run more scan+cancel cycles
	// to completion.
	sn.Net.RunFor(simResidueRun)
	base = heapInUse()
	start, events = time.Now(), 0
	for k := 0; k < simResidueQueries; k++ {
		m := measure(sn, simScalePlan(), rows, simResidueRun)
		sn.Nodes[0].Cancel(m.id)
		events += m.events + sn.Net.RunFor(simResidueRun)
		got = min(got, len(m.arrivals))
	}
	wall := time.Since(start)
	bucket("query residue", on, heapInUse()-base, int64(on*simResidueQueries), simResidueBudget, events, wall)
	tbl.Note = fmt.Sprintf("overlay bytes/node are incremental over the substrate, query residue bytes/node are per finished query (%d scan+cancel cycles); the scans returned at least %d/%d rows", simResidueQueries, got, rows)
	runtime.KeepAlive(sn)
	if got != rows {
		over = append(over, fmt.Errorf("an overlay scan returned %d/%d rows", got, rows))
	}
	return tbl, errors.Join(over...)
}

// simScalePlan is the overlay bucket's route pass: a scan of all of u.
func simScalePlan() *core.Plan {
	p := sql.MustPlan("SELECT * FROM u", sql.Catalog{"u": {Name: "u", Cols: []string{"id"}, Key: "id"}})
	p.TTL = 2 * time.Minute
	return p
}
