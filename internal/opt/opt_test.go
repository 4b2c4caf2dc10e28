package opt

import (
	"testing"
	"time"

	"pier/internal/core"
)

// workloadStats mirrors the §5.1 evaluation workload at a given scale.
func workloadStats(sTuples float64, selS float64) JoinStats {
	return JoinStats{
		Left: TableStats{
			Tuples: 10 * sTuples, TupleBytes: 1024, Selectivity: 0.5,
			DistinctJoinKeys: 2 * sTuples,
		},
		Right: TableStats{
			Tuples: sTuples, TupleBytes: 40, Selectivity: selS,
			HashedOnJoinAttr: true, DistinctJoinKeys: sTuples,
		},
		MatchFraction: 0.9,
		AvgMatches:    1,
	}
}

func paperNet() NetStats {
	return NetStats{Nodes: 1024, HopLatency: 100 * time.Millisecond}
}

func byStrategy(ests []Estimate) map[core.Strategy]Estimate {
	m := map[core.Strategy]Estimate{}
	for _, e := range ests {
		m[e.Strategy] = e
	}
	return m
}

func TestLatencyOrderingMatchesTable4(t *testing.T) {
	// Table 4's ordering: sym-hash < fetch matches < semi-join < bloom.
	m := byStrategy(Estimates(workloadStats(90000, 0.5), paperNet()))
	if !(m[core.SymmetricHash].Latency <= m[core.FetchMatches].Latency) {
		t.Error("sym-hash should not be slower than fetch matches")
	}
	if !(m[core.FetchMatches].Latency < m[core.SymmetricSemiJoin].Latency) {
		t.Error("fetch matches should beat semi-join on latency")
	}
	if !(m[core.SymmetricSemiJoin].Latency < m[core.BloomJoin].Latency) {
		t.Error("semi-join should beat bloom on latency")
	}
}

func TestTrafficShapeMatchesFigure4(t *testing.T) {
	// At paper scale and low-to-moderate S selectivity, symmetric hash
	// moves the most bytes and both rewrites undercut it; the rewrites'
	// advantage shrinks linearly as selectivity rises (Figure 4). The
	// crossover past ~90% matches what the simulator measures (see
	// EXPERIMENTS.md): per-pair message overheads eventually exceed the
	// rehash savings.
	for _, sel := range []float64{0.1, 0.3, 0.5} {
		m := byStrategy(Estimates(workloadStats(90000, sel), paperNet()))
		if m[core.SymmetricHash].TrafficBytes < m[core.SymmetricSemiJoin].TrafficBytes {
			t.Errorf("sel=%.1f: semi-join (%.1fMB) above sym-hash (%.1fMB)",
				sel, m[core.SymmetricSemiJoin].TrafficBytes/1e6, m[core.SymmetricHash].TrafficBytes/1e6)
		}
		if m[core.BloomJoin].TrafficBytes > m[core.SymmetricHash].TrafficBytes {
			t.Errorf("sel=%.1f: bloom (%.1fMB) above sym-hash (%.1fMB)",
				sel, m[core.BloomJoin].TrafficBytes/1e6, m[core.SymmetricHash].TrafficBytes/1e6)
		}
	}
	// Bloom's advantage shrinks monotonically with selectivity.
	lo := byStrategy(Estimates(workloadStats(90000, 0.1), paperNet()))
	hi := byStrategy(Estimates(workloadStats(90000, 0.9), paperNet()))
	gapLo := lo[core.SymmetricHash].TrafficBytes - lo[core.BloomJoin].TrafficBytes
	gapHi := hi[core.SymmetricHash].TrafficBytes - hi[core.BloomJoin].TrafficBytes
	if gapHi >= gapLo {
		t.Error("bloom's advantage should shrink as S selectivity rises (Figure 4)")
	}
	// Semi-join grows linearly: equal increments in selectivity add
	// roughly equal traffic.
	s3 := byStrategy(Estimates(workloadStats(90000, 0.3), paperNet()))[core.SymmetricSemiJoin].TrafficBytes
	s5 := byStrategy(Estimates(workloadStats(90000, 0.5), paperNet()))[core.SymmetricSemiJoin].TrafficBytes
	s7 := byStrategy(Estimates(workloadStats(90000, 0.7), paperNet()))[core.SymmetricSemiJoin].TrafficBytes
	if d1, d2 := s5-s3, s7-s5; d1 <= 0 || d2 <= 0 || d2/d1 > 1.2 || d1/d2 > 1.2 {
		t.Errorf("semi-join not linear: increments %.1fMB vs %.1fMB", d1/1e6, d2/1e6)
	}
}

func TestFetchMatchesInfeasibleWithoutHashing(t *testing.T) {
	j := workloadStats(1000, 0.5)
	j.Right.HashedOnJoinAttr = false
	s, ests := Choose(j, paperNet(), MinLatency)
	if s == core.FetchMatches {
		t.Fatal("chose infeasible fetch matches")
	}
	for _, e := range ests {
		if e.Strategy == core.FetchMatches && e.Feasible {
			t.Fatal("fetch matches must be marked infeasible")
		}
	}
}

func TestChooseObjectives(t *testing.T) {
	j := workloadStats(90000, 0.3)
	trafficPick, _ := Choose(j, paperNet(), MinTraffic)
	latencyPick, _ := Choose(j, paperNet(), MinLatency)
	// Low selectivity on S: a bandwidth-reducing rewrite should win on
	// traffic, while symmetric hash wins on pure latency.
	if trafficPick == core.SymmetricHash {
		t.Errorf("MinTraffic picked symmetric hash at 30%% selectivity")
	}
	if latencyPick != core.SymmetricHash {
		t.Errorf("MinLatency picked %v, want symmetric hash", latencyPick)
	}
}

func TestBloomLosesAtTinyScale(t *testing.T) {
	// When filters rival the data (the scale artifact EXPERIMENTS.md
	// documents), bloom must stop being the traffic winner.
	j := workloadStats(50, 0.5) // ~500 tuples total vs 8KB filters
	pick, _ := Choose(j, paperNet(), MinTraffic)
	if pick == core.BloomJoin {
		t.Fatal("bloom chosen even though filters dwarf the data")
	}
}

func TestDefaultsFilledAndFeasible(t *testing.T) {
	_, ests := Choose(JoinStats{Left: TableStats{Tuples: 10}, Right: TableStats{Tuples: 1}}, NetStats{}, MinTraffic)
	if len(ests) != 4 {
		t.Fatalf("estimates = %d, want 4", len(ests))
	}
	for _, e := range ests {
		if e.TrafficBytes <= 0 || e.Latency <= 0 {
			t.Fatalf("degenerate estimate: %+v", e)
		}
		if e.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestBloomFPBounds(t *testing.T) {
	if fp := bloomFP(1<<16, 0); fp != 0 {
		t.Fatal("no keys must mean no false positives")
	}
	if fp := bloomFP(1<<16, 1000); fp > 0.01 {
		t.Fatalf("fp %.4f too high for 64Kbit/1000 keys", fp)
	}
	if fp := bloomFP(1<<10, 1e6); fp < 0.99 {
		t.Fatalf("saturated filter should approach fp=1, got %f", fp)
	}
}

// --- edge cases ---------------------------------------------------------

func TestChooseZeroCardinalityTables(t *testing.T) {
	// An empty catalog entry (both relations at zero tuples) must not
	// produce NaN costs or an infeasible pick: every strategy's traffic
	// degenerates to its fixed overhead and Choose still returns a
	// feasible strategy.
	j := JoinStats{Left: TableStats{}, Right: TableStats{}}
	s, ests := Choose(j, paperNet(), MinTraffic)
	if len(ests) != 4 {
		t.Fatalf("estimates = %d, want 4", len(ests))
	}
	for _, e := range ests {
		if e.TrafficBytes != e.TrafficBytes || e.TrafficBytes < 0 {
			t.Fatalf("%v: traffic %v not a finite non-negative cost", e.Strategy, e.TrafficBytes)
		}
		if e.Latency < 0 {
			t.Fatalf("%v: negative latency %v", e.Strategy, e.Latency)
		}
	}
	picked := byStrategy(ests)[s]
	if !picked.Feasible {
		t.Fatalf("chose infeasible strategy %v", s)
	}
	// Fetch Matches needs the inner table hashed on the join attribute,
	// which the zero value does not claim.
	if s == core.FetchMatches {
		t.Fatalf("fetch matches chosen without its precondition")
	}
}

func TestChooseObjectivesDisagree(t *testing.T) {
	// The rewrites (§4.2) spend latency to save rehash bytes: the
	// semi-join's second round of gets, Bloom's filter gather and
	// second multicast. With highly selective matches and no wait to
	// lean on, the two objectives must still pick different strategies,
	// and each pick must be optimal under its own metric among feasible
	// strategies.
	j := workloadStats(1000, 0.5)
	j.Left.HashedOnJoinAttr = false
	j.Right.HashedOnJoinAttr = false // rules fetch matches out
	j.MatchFraction = 0.02
	net := paperNet()
	sTraffic, estsTraffic := Choose(j, net, MinTraffic)
	sLatency, estsLatency := Choose(j, net, MinLatency)
	if sTraffic == sLatency {
		t.Fatalf("objectives agree on %v; operating point should separate them", sTraffic)
	}
	mt := byStrategy(estsTraffic)
	ml := byStrategy(estsLatency)
	if ml[core.BloomJoin].Latency <= ml[core.SymmetricHash].Latency {
		t.Errorf("bloom (%v) priced no slower than symmetric hash (%v)",
			ml[core.BloomJoin].Latency, ml[core.SymmetricHash].Latency)
	}
	for s, e := range mt {
		if e.Feasible && e.TrafficBytes < mt[sTraffic].TrafficBytes {
			t.Errorf("MinTraffic picked %v but %v moves fewer bytes", sTraffic, s)
		}
	}
	for s, e := range ml {
		if e.Feasible && e.Latency < ml[sLatency].Latency {
			t.Errorf("MinLatency picked %v but %v finishes sooner", sLatency, s)
		}
	}
}

func TestChooseSingleNodeDeployment(t *testing.T) {
	// A one-node "network" still costs out: no strategy may be priced
	// below zero, estimates stay finite, and the pick is feasible.
	j := workloadStats(100, 0.5)
	net := NetStats{Nodes: 1, HopLatency: time.Millisecond}
	s, ests := Choose(j, net, MinLatency)
	if !byStrategy(ests)[s].Feasible {
		t.Fatalf("chose infeasible strategy %v", s)
	}
	for _, e := range ests {
		if e.TrafficBytes != e.TrafficBytes || e.TrafficBytes < 0 || e.Latency < 0 {
			t.Fatalf("%v: degenerate cost (%v bytes, %v)", e.Strategy, e.TrafficBytes, e.Latency)
		}
	}
}

func TestChooseInfeasibleRanksLast(t *testing.T) {
	// Even when fetch matches would be by far the cheapest, an unmet
	// precondition must keep it out of the pick.
	j := workloadStats(1000, 0.5)
	j.Right.HashedOnJoinAttr = false
	s, ests := Choose(j, paperNet(), MinTraffic)
	if s == core.FetchMatches {
		t.Fatal("picked fetch matches despite unmet precondition")
	}
	last := ests[len(ests)-1]
	if last.Feasible || last.Strategy != core.FetchMatches {
		t.Fatalf("infeasible strategy not ranked last: %+v", ests)
	}
}
