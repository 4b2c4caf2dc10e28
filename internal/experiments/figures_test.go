package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"
)

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
	fig3 := ScalabilityConfig{Sizes: []int{2, 8, 32}, ComputeSeries: []int{1, 0}, SPerNode: 2, Seed: 1}
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
		{"fig45", func() string {
			return text(Selectivity(SelectivityConfig{Nodes: 16, STuples: 40, Selectivities: []float64{0.5, 1}, Seed: 21}))
		}, 0x2ea5ca0f139fa166},
		{"fig7", func() string { return text(Scalability(fig7)) }, 0x7cfdc8001f7c02a9},
		{"table4", func() string { return text(Table4(Table4Config{Nodes: 32, STuples: 32, Runs: 1, Seed: 11})) }, 0x7a416052ed472a64},
		{"s53", func() string {
			return text(CentralizedVsDistributed(CentralizedConfig{Nodes: 32, STuples: 40, Computes: []int{1, 0}, Seed: 31}))
		}, 0x5d86347813f5d176},
		{"strategies", func() string { return text(StrategyTraffic(16, 40, 1)) }, 0x5be9b27a9e8b73d4},
		{"chordvscan", func() string { return text(ChordVsCAN(16, 40, 1)) }, 0x938121c1cbc712a3},
		{"hieragg", func() string { return text(HierarchicalAgg(16, 64, []int{0, 4}, 1)) }, 0xee0926acacd77fb1},
		{"candims", func() string { return text(CANDims(32, []int{2, 4}, 50, 1)) }, 0xa0b31882b2005094},
		{"incast", func() string {
			_, tbl := Incast(IncastConfig{Nodes: 16, STuples: 200, Seed: 47}.Norm())
			return text(tbl)
		}, 0xd2077748c263ba17},
		{"adaptive", func() string {
			_, tbl := Adaptive(AdaptiveConfig{Nodes: 16, STuples: 40, Seed: 23})
			return text(tbl)
		}, 0x6e1748783c82e510},
		// The second row's walk starts with the first row's markers
		// cached and asks for the whole frontier in one round: its idx
		// t(s) fell 8.11 -> 3.30, and the 10 s marker renewals fall in
		// other windows of the MB columns. Scans ship at their end:
		// scan t(s) fell 0.2 s, so the 20% row's windows start earlier
		// (idx) or end earlier (scan) and count other renewals.
		{"range", func() string {
			_, tbl := RangeSelectivity(RangeSelConfig{Nodes: 16, Tuples: 300, Selectivities: []float64{0.01, 0.2}, Seed: 41})
			return text(tbl)
		}, 0x9563ac2bf47fa339},
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
