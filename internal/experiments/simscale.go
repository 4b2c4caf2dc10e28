package experiments

// SimScale measures the simulation core's scale budget: how many bytes
// of heap one simulated node costs — split into the simnet+env
// substrate and the full PIER overlay stack — and how many events per
// second the discrete-event core sustains while routing. This is the
// harness behind the memory-per-node budget published in EXPERIMENTS.md:
// bytes per node are held to the two budget constants below by
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
	"pier/internal/topology"
)

// SimScaleConfig sizes the two measurement buckets.
type SimScaleConfig struct {
	// Nodes is the raw simulator population: bare simnet.Network +
	// NodeEnv with a forwarding handler, no PIER stack. This bucket is
	// the ≤10KB/node budget of the scaling work.
	Nodes int
	// OverlayNodes is the population for the full-stack bucket: a
	// bootstrapped CAN deployment with provider, engine, statistics,
	// and index agents per node, measured incrementally over the
	// substrate and exercised with one network-wide multicast scan.
	OverlayNodes int
	// Walkers and Hops shape the raw route pass: Walkers concurrent
	// random walks of Hops message hops each.
	Walkers, Hops int
	Seed          int64
}

// DefaultSimScale returns the n=100k build-and-route configuration used
// by CI; -full raises the raw population to 250k.
func DefaultSimScale(full bool) SimScaleConfig {
	cfg := SimScaleConfig{
		Nodes:        100_000,
		OverlayNodes: 100_000,
		Walkers:      20_000,
		Hops:         20,
		Seed:         1,
	}
	if full {
		cfg.Nodes = 250_000
	}
	return cfg
}

// The heap budget per simulated node, in settled bytes. Both buckets
// are independent of n (substrate 214 B/node, overlay 3 922-3 929
// B/node from n=5k to n=100k), so one pair of constants serves the
// 20k-node test and the 100k-node CI run, ~12% over the measurement.
const (
	simSubstrateBudget = 240  // bare simnet.Network + NodeEnv
	simOverlayBudget   = 4400 // full PIER stack, incremental over the substrate
)

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

// SimScale runs both buckets and returns the table, plus an error
// naming every exceeded budget: substrate or overlay bytes/node over
// their constants, or an overlay scan that lost rows.
func SimScale(cfg SimScaleConfig) (*Table, error) {
	tbl := &Table{
		Title: fmt.Sprintf("Simulation core at scale (raw n=%d, overlay n=%d)",
			cfg.Nodes, cfg.OverlayNodes),
		Headers: []string{"bucket", "nodes", "heap MB", "bytes/node", "events", "events/sec", "wall"},
	}

	// Bucket 1: the simulator substrate. Build n nodes with a
	// forwarding handler, measure the settled heap delta, then drive
	// Walkers random walks of Hops hops and measure event throughput.
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
	rawPerNode := rawBytes / int64(n)

	for i := 0; i < cfg.Walkers; i++ {
		src := nw.Node((i * 104729) % n)
		hops := int32(cfg.Hops)
		src.After(time.Duration(i%1000)*time.Millisecond, func() {
			src.Send(src.Addr(), walkMsg{hops: hops})
		})
	}
	start := time.Now()
	events := nw.Drain()
	wall := time.Since(start)
	rawEPS := float64(events) / wall.Seconds()
	tbl.Rows = append(tbl.Rows, []string{
		"simnet+env", fmt.Sprint(n), fmt.Sprintf("%.1f", float64(rawBytes)/1e6),
		fmt.Sprint(rawPerNode), fmt.Sprint(events), fmt.Sprintf("%.0f", rawEPS),
		wall.Round(time.Millisecond).String(),
	})
	runtime.KeepAlive(nw)
	nw = nil

	// Bucket 2: the full PIER stack, measured incrementally — build a
	// bootstrapped CAN deployment, load a small table, and run one
	// network-wide multicast scan as the route pass.
	on := cfg.OverlayNodes
	base = heapInUse()
	sn := pier.NewSimNetwork(on, topology.NewFullMesh(), cfg.Seed, pier.DefaultOptions())
	overlayBytes := heapInUse() - base
	overlayPerNode := overlayBytes / int64(on)

	const rows = 200
	for i := 0; i < rows; i++ {
		sn.Load("u", fmt.Sprint(i), int64(i), &core.Tuple{Rel: "u", Vals: []core.Value{int64(i)}}, 0)
	}
	plan := &core.Plan{Tables: []core.TableRef{{NS: "u"}}, TTL: 2 * time.Minute}
	got := 0
	id, err := sn.QueryFrom(0, plan, func(*core.Tuple, int) { got++ })
	if err != nil {
		panic(fmt.Sprintf("simscale: scan rejected: %v", err))
	}
	start = time.Now()
	events = sn.Net.RunFor(90 * time.Second)
	wall = time.Since(start)
	sn.Nodes[0].Cancel(id)
	overlayEPS := float64(events) / wall.Seconds()
	tbl.Rows = append(tbl.Rows, []string{
		"pier overlay", fmt.Sprint(on), fmt.Sprintf("%.1f", float64(overlayBytes)/1e6),
		fmt.Sprint(overlayPerNode), fmt.Sprint(events), fmt.Sprintf("%.0f", overlayEPS),
		wall.Round(time.Millisecond).String(),
	})
	tbl.Note = fmt.Sprintf("overlay bytes/node are incremental over the substrate; scan returned %d/%d rows", got, rows)
	runtime.KeepAlive(sn)

	var over []error
	// A non-positive delta is a broken measurement, not a pass.
	if rawPerNode <= 0 || rawPerNode > simSubstrateBudget {
		over = append(over, fmt.Errorf("substrate costs %d B/node, want (0, %d]", rawPerNode, simSubstrateBudget))
	}
	if overlayPerNode <= 0 || overlayPerNode > simOverlayBudget {
		over = append(over, fmt.Errorf("overlay costs %d B/node, want (0, %d]", overlayPerNode, simOverlayBudget))
	}
	if got != rows {
		over = append(over, fmt.Errorf("overlay scan returned %d/%d rows", got, rows))
	}
	return tbl, errors.Join(over...)
}
