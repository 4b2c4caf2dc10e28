package experiments

import (
	"fmt"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
)

// ScalabilityConfig drives Figures 3 and 7: grow the network and the
// load together and measure the time to the 30th result tuple.
type ScalabilityConfig struct {
	// Sizes are the network sizes to sweep (paper: 2 .. 10,000).
	Sizes []int
	// ComputeSeries are the computation-node counts; 0 means "N
	// computation nodes" (paper series: 1, 2, 8, 16, N).
	ComputeSeries []int
	// SPerNode scales the load with the network: |S| = SPerNode × n,
	// |R| = 10 × |S| (the paper loads ~0.5 MB of source data per node).
	SPerNode int
	// PadBytes overrides the R.pad size (0 keeps the paper's ~1KB
	// tuples). The n≥100k point shrinks it so the 11×SPerNode×n loaded
	// tuples fit in memory.
	PadBytes int
	// TransitStub switches to the Figure-7 topology; sizes above
	// maxTransitStubNodes are then skipped.
	TransitStub bool
	Seed        int64
}

// DefaultScalability is the scaled-down default configuration.
func DefaultScalability(full bool) ScalabilityConfig {
	cfg := ScalabilityConfig{
		Sizes:         []int{2, 8, 32, 128, 512},
		ComputeSeries: []int{1, 2, 8, 16, 0},
		SPerNode:      2,
		Seed:          1,
	}
	if full {
		cfg.Sizes = append(cfg.Sizes, 1024, 2048, 4096, 10000)
		cfg.SPerNode = 4
	}
	return cfg
}

// XLScalability is the Figure-3 shape an order of magnitude past paper
// scale: a single n=100,000 point with the 16-computation-node and
// N-computation-node series. One S tuple per node keeps the load at
// |R|+|S| = 1.1M tuples, and the 64-byte pad keeps them memory-feasible
// — the interesting quantity at this size is the shape (does time to
// the 30th tuple stay flat as multicast and rehash fan out over 100k
// nodes), not the absolute byte volume.
func XLScalability() ScalabilityConfig {
	return ScalabilityConfig{
		Sizes:         []int{100_000},
		ComputeSeries: []int{16, 0},
		SPerNode:      1,
		PadBytes:      64,
		Seed:          1,
	}
}

// maxTransitStubNodes is where Figure 7 ends: the paper's transit-stub
// simulator "tops out at 4096 nodes" (§5.7), so the sweep stops there
// whatever Sizes says.
const maxTransitStubNodes = 4096

// Scalability runs the sweep and returns the figure's series as a table:
// one row per network size, one column per computation-node series.
func Scalability(cfg ScalabilityConfig) *Table {
	title := "Figure 3: time to 30th result tuple vs network size (fully connected, 100ms, 10Mbps)"
	if cfg.TransitStub {
		title = "Figure 7: time to 30th result tuple vs network size (transit-stub topology)"
	}
	t := &Table{
		Title: title,
		Note:  fmt.Sprintf("load scales with network size: |S| = %d per node, |R| = 10x|S|", cfg.SPerNode),
	}
	t.Headers = []string{"nodes"}
	for _, k := range cfg.ComputeSeries {
		if k == 0 {
			t.Headers = append(t.Headers, "N comp (s)")
		} else {
			t.Headers = append(t.Headers, fmt.Sprintf("%d comp (s)", k))
		}
	}
	for _, n := range cfg.Sizes {
		if cfg.TransitStub && n > maxTransitStubNodes {
			continue
		}
		row := []string{fmt.Sprint(n)}
		for _, k := range cfg.ComputeSeries {
			if k > n {
				row = append(row, "-")
				continue
			}
			var topo topology.Topology
			if cfg.TransitStub {
				topo = topology.NewTransitStub(cfg.Seed)
			} else {
				topo = topology.NewFullMesh()
			}
			res := RunJoin(JoinConfig{
				Nodes:        n,
				Topo:         topo,
				Seed:         cfg.Seed + int64(n)*13 + int64(k),
				Strategy:     core.SymmetricHash,
				STuples:      cfg.SPerNode * n,
				PadBytes:     cfg.PadBytes,
				ComputeNodes: k,
				Limit:        4 * time.Hour,
			})
			row = append(row, secs(res.TimeToKth))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
