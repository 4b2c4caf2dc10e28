package experiments

import (
	"strings"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
)

func TestRunJoinBasics(t *testing.T) {
	res := RunJoin(JoinConfig{Nodes: 32, Seed: 3, Strategy: core.SymmetricHash, STuples: 60})
	if res.Received != res.Expected {
		t.Fatalf("recall %d/%d on a healthy network", res.Received, res.Expected)
	}
	if res.TimeToLast <= 0 || res.TimeToKth <= 0 {
		t.Fatalf("times not measured: %+v", res)
	}
	if res.TimeToKth > res.TimeToLast {
		t.Fatal("30th tuple after last tuple")
	}
	if res.TrafficMB <= 0 || res.MaxInMB <= 0 {
		t.Fatal("traffic not accounted")
	}
}

func TestFewerComputationNodesConcentrateTraffic(t *testing.T) {
	// §5.4: with few computation nodes the bottleneck moves to their
	// inbound links. Verify concentration: max inbound with 1
	// computation node far exceeds the N-node case.
	// 256 S-tuples: enough data that inbound-link congestion at the
	// single computation node dominates placement noise for any seed.
	one := RunJoin(JoinConfig{Nodes: 64, Seed: 5, Strategy: core.SymmetricHash, STuples: 256, ComputeNodes: 1})
	all := RunJoin(JoinConfig{Nodes: 64, Seed: 5, Strategy: core.SymmetricHash, STuples: 256})
	if one.Received != one.Expected || all.Received != all.Expected {
		t.Fatalf("recall loss: one=%d/%d all=%d/%d", one.Received, one.Expected, all.Received, all.Expected)
	}
	if one.MaxInMB < 2*all.MaxInMB {
		t.Fatalf("1 computation node max inbound %.2fMB not >> N-node %.2fMB", one.MaxInMB, all.MaxInMB)
	}
	if one.TimeToLast <= all.TimeToLast {
		t.Fatalf("congested single computation node should be slower: %v vs %v", one.TimeToLast, all.TimeToLast)
	}
}

func TestFigure4Shape(t *testing.T) {
	// The Figure-4 orderings at 50% selectivity: symmetric hash moves
	// the most bytes; the semi-join rewrite moves fewer; Bloom fewer
	// than symmetric hash.
	// Data must dominate Bloom-filter size for the Figure-4 ordering to
	// show, as at paper scale (1 GB tables vs ~8 KB filters).
	cfg := JoinConfig{Nodes: 32, Seed: 9, STuples: 600}
	traffic := map[core.Strategy]float64{}
	for _, s := range []core.Strategy{core.SymmetricHash, core.SymmetricSemiJoin, core.BloomJoin} {
		c := cfg
		c.Strategy = s
		res := RunJoin(c)
		if res.Received != res.Expected {
			t.Fatalf("%v recall %d/%d", s, res.Received, res.Expected)
		}
		traffic[s] = res.StrategyMB
	}
	if traffic[core.SymmetricSemiJoin] >= traffic[core.SymmetricHash] {
		t.Fatalf("semi-join traffic %.2f should undercut symmetric hash %.2f",
			traffic[core.SymmetricSemiJoin], traffic[core.SymmetricHash])
	}
	if traffic[core.BloomJoin] >= traffic[core.SymmetricHash] {
		t.Fatalf("bloom traffic %.2f should undercut symmetric hash %.2f at 50%% selectivity",
			traffic[core.BloomJoin], traffic[core.SymmetricHash])
	}
}

func TestFetchMatchesTrafficFlatAcrossSelectivity(t *testing.T) {
	// Figure 4: Fetch Matches "uses a constant amount of network
	// resources" regardless of the selectivity on S.
	lo := RunJoin(JoinConfig{Nodes: 32, Seed: 11, Strategy: core.FetchMatches, STuples: 100, SelS: 0.1})
	hi := RunJoin(JoinConfig{Nodes: 32, Seed: 11, Strategy: core.FetchMatches, STuples: 100, SelS: 1.0})
	ratio := hi.StrategyMB / lo.StrategyMB
	if ratio > 1.3 {
		t.Fatalf("fetch-matches strategy traffic should be ~flat in S selectivity; got lo=%.2f hi=%.2f", lo.StrategyMB, hi.StrategyMB)
	}
}

func TestRecallDropsWithFailuresAndRecoversWithRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run")
	}
	cfg := DefaultRecall(false)
	cfg.Nodes = 48
	cfg.STuples = 80
	cfg.Queries = 2
	healthy := recallRun(cfg, 60*time.Second, 0)
	if healthy < 0.99 {
		t.Fatalf("recall without failures = %.3f, want ~1", healthy)
	}
	churn := recallRun(cfg, 60*time.Second, 8)
	if churn > healthy+1e-9 {
		t.Fatalf("churn recall %.3f should not exceed healthy %.3f", churn, healthy)
	}
	if churn < 0.5 {
		t.Fatalf("churn recall %.3f collapsed; soft-state refresh is not repairing losses", churn)
	}
}

func TestTransitStubSlowerThanFullMesh(t *testing.T) {
	// §5.7: same trends, larger absolute values (avg delay 170ms vs
	// 100ms).
	fm := RunJoin(JoinConfig{Nodes: 64, Seed: 13, Strategy: core.SymmetricHash, STuples: 64, Topo: topology.NewFullMesh()})
	ts := RunJoin(JoinConfig{Nodes: 64, Seed: 13, Strategy: core.SymmetricHash, STuples: 64, Topo: topology.NewTransitStub(13)})
	if fm.Received != fm.Expected || ts.Received != ts.Expected {
		t.Fatal("recall loss")
	}
	if ts.TimeToKth <= fm.TimeToKth/2 {
		t.Fatalf("transit-stub %.2fs implausibly fast vs full mesh %.2fs",
			ts.TimeToKth.Seconds(), fm.TimeToKth.Seconds())
	}
}

// TestTransitStubSweepStopsAt4096: Figure 7 ends where the paper's
// transit-stub simulator did (§5.7), whatever sizes the caller passes —
// the cap is Scalability's, so no runner can forget it. The oversized
// point is skipped, not run, which is why this test is cheap.
func TestTransitStubSweepStopsAt4096(t *testing.T) {
	cfg := ScalabilityConfig{Sizes: []int{2, 10000}, ComputeSeries: []int{1}, SPerNode: 2, Seed: 1}
	cfg.TransitStub = true
	tbl := Scalability(cfg)
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "2" {
		t.Fatalf("transit-stub sweep rows %v, want only n=2", tbl.Rows)
	}
}

func TestTablesRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Headers: []string{"col", "wider-col"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "a note", "col", "wider-col", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
