package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// fig3 is Figure 3 at small n, as pinned here and as TestFigure3Flat
// holds its claim.
var fig3 = ScalabilityConfig{Sizes: []int{2, 8, 32}, ComputeSeries: []int{1, 0}, SPerNode: 2, Seed: 1}

// TestFiguresUnchanged pins every table the experiments measure on the
// simulated clock, at small n: the FNV-64 hash of each table's printed
// form (the trace demo's report for TraceDemo). A change that claims
// to leave the engine's behaviour alone — a refactor, a deletion, a
// query rebuilt from SQL text instead of by hand — must leave every
// hash here as it was. A change that means to move a figure updates
// the hash it moves and says why.
//
// SimScale and Figure 8 (Cluster) are not here: both measure wall
// clock (events per second, loopback TCP arrival times), so their
// tables differ from run to run.
func TestFiguresUnchanged(t *testing.T) {
	text := func(tbls ...*Table) string {
		var b bytes.Buffer
		for _, tbl := range tbls {
			tbl.Print(&b)
		}
		return b.String()
	}
	fig7 := fig3
	fig7.TransitStub = true
	cases := []struct {
		name string
		run  func() string
		want uint64
	}{
		{"fig3", func() string { return text(Scalability(fig3)) }, 0xe5b8a3acc360a95a},
		// Figure 6 runs the chaos harness: the faulted run against its
		// oracle, one refresh column, a calm and a churned row.
		{"fig6", func() string {
			cfg := Figure6(false)
			cfg.Scenario.Nodes, cfg.Scenario.STuples, cfg.Scenario.Queries = 24, 30, 2
			cfg.RefreshPeriods, cfg.ChurnRates = cfg.RefreshPeriods[:1], []float64{0, 6}
			return text(ChurnMatrix(cfg))
		}, 0x0bc032a069b9f09d},
		// Bloom collectors emit once every owner of the key space has
		// reported, not after the wait, and per-node filters travel
		// sparse: fig45's Bloom times to last fell 5.31 -> 1.71/1.81 s,
		// table4's Bloom row 5.50 -> 2.10 s measured and 5.49 -> 1.49 s
		// modelled, strategies' Bloom 6.40 -> 1.70 s, and adaptive's
		// Bloom rows ~6.3 -> ~1.6 s with strategy MB 0.002-0.003 lower.
		// No adaptive pick changed.
		{"fig45", func() string {
			return text(Selectivity(SelectivityConfig{Nodes: 16, STuples: 40, Selectivities: []float64{0.5, 1}, Seed: 21}))
		}, 0xd5525994f7891397},
		{"fig7", func() string { return text(Scalability(fig7)) }, 0x7cfdc8001f7c02a9},
		{"table4", func() string { return text(Table4(Table4Config{Nodes: 32, STuples: 32, Runs: 1, Seed: 11})) }, 0xc1ec1395b1bb8c41},
		{"s53", func() string {
			return text(CentralizedVsDistributed(CentralizedConfig{Nodes: 32, STuples: 40, Computes: []int{1, 0}, Seed: 31}))
		}, 0x5d86347813f5d176},
		{"strategies", func() string { return text(StrategyTraffic(16, 40, 1)) }, 0xc8cee2930e07e89c},
		{"chordvscan", func() string { return text(ChordVsCAN(16, 40, 1)) }, 0x938121c1cbc712a3},
		{"hieragg", func() string { return text(HierarchicalAgg(16, 64, []int{0, 4}, 1)) }, 0xee0926acacd77fb1},
		{"candims", func() string { return text(CANDims(32, []int{2, 4}, 50, 1)) }, 0xa0b31882b2005094},
		{"incast", func() string {
			_, tbl := Incast(IncastConfig{Nodes: 16, STuples: 200, Seed: 47}.Norm())
			return text(tbl)
		}, 0xd2077748c263ba17},
		// The catalog no longer probes the overlay with a lookup per
		// refresh, so the auto rows' strategy MB lost the probe's bytes:
		// skewed 0.095 -> 0.092, selective 0.026 -> 0.024. No pick
		// changed.
		{"adaptive", func() string {
			_, tbl := Adaptive(AdaptiveConfig{Nodes: 16, STuples: 40, Seed: 23})
			return text(tbl)
		}, 0x9e7234a3195dc9d7},
		// Every row is submitted half an index period after a
		// maintenance tick, so a row's MB columns count the renewals of
		// its own window only: scan MB fell to 0.00 (no tick inside a
		// sub-second scan), idx MB is one tick's renewals in each row.
		// The wait also outlasts the marker cache, so the 20% row's
		// walk no longer inherits the 1% row's markers: its idx t(s)
		// is the cold walk's 8.11 again (it was 3.30 warm).
		{"range", func() string {
			_, tbl := RangeSelectivity(RangeSelConfig{Nodes: 16, Tuples: 300, Selectivities: []float64{0.01, 0.2}, Seed: 41})
			return text(tbl)
		}, 0xd0221bd018d584c9},
		{"tracedemo", func() string {
			s, err := TraceDemo(1, false)
			if err != nil {
				t.Fatalf("TraceDemo: %v", err)
			}
			return s
		}, 0x4ceb8e57af8317f5},
	}
	for _, tc := range cases {
		out := tc.run()
		h := fnv.New64a()
		h.Write([]byte(out))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: table hash %#016x, want %#016x; the table now reads:\n%s", tc.name, got, tc.want, out)
		}
	}
}
