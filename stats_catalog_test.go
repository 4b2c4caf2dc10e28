package pier

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht"
	"pier/internal/dht/storage"
	"pier/internal/opt"
	"pier/internal/topology"
	"pier/internal/workload"
)

// statsOptions enables the catalog with a short refresh interval.
func statsOptions(interval time.Duration) Options {
	opts := DefaultOptions()
	opts.Stats.Interval = interval
	return opts
}

// TestStatsCatalogConvergesAcross50Nodes is the tentpole's convergence
// check: after a bulk load into a 50-node network, the merged
// catalog statistics must be queryable from an arbitrary node within
// one refresh interval — exact tuple and byte totals, distinct keys
// within sketch error.
func TestStatsCatalogConvergesAcross50Nodes(t *testing.T) {
	const interval = 30 * time.Second
	sn := NewSimNetwork(50, topology.NewFullMesh(), 71, statsOptions(interval))

	const rows = 500
	wantBytes := 0
	for i := 0; i < rows; i++ {
		tu := &Tuple{Rel: "R", Vals: []Value{int64(i), int64(i % 97)}}
		wantBytes += tu.WireSize()
		sn.Load("R", fmt.Sprint(i), int64(i), tu, 0)
	}

	// One refresh interval (plus network slack for the puts to land).
	sn.RunFor(interval + 5*time.Second)

	var got opt.TableStats
	fetched := false
	sn.Nodes[37].Stats().Fetch("R", func(ts opt.TableStats, ok bool) {
		got, fetched = ts, ok
	})
	sn.RunFor(30 * time.Second)

	if !fetched {
		t.Fatal("catalog returned nothing for R one interval after the bulk load")
	}
	if got.Tuples != rows {
		t.Fatalf("catalog tuples = %.0f, want exactly %d", got.Tuples, rows)
	}
	if want := float64(wantBytes) / rows; math.Abs(got.TupleBytes-want) > 0.5 {
		t.Fatalf("catalog tuple bytes = %.1f, want %.1f", got.TupleBytes, want)
	}
	if err := math.Abs(got.DistinctJoinKeys-rows) / rows; err > 0.25 {
		t.Fatalf("distinct keys = %.0f, want ≈%d (%.0f%% error)", got.DistinctJoinKeys, rows, 100*err)
	}
}

// TestStatsCatalogAgesOut: a node's contribution is soft state; without
// renewal (the loop stopped) it must disappear after its lifetime.
func TestStatsCatalogAgesOut(t *testing.T) {
	sn := NewSimNetwork(16, topology.NewFullMesh(), 73, statsOptions(20*time.Second))
	for i := 0; i < 100; i++ {
		sn.Load("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}}, 0)
	}
	sn.RunFor(25 * time.Second)
	found := false
	sn.Nodes[3].Stats().Fetch("T", func(_ opt.TableStats, ok bool) { found = ok })
	sn.RunFor(10 * time.Second)
	if !found {
		t.Fatal("summaries should be live while the loop renews them")
	}
	for _, nd := range sn.Nodes {
		nd.Stats().Stop()
	}
	// Past the 3×interval lifetime with no renewals.
	sn.RunFor(2 * time.Minute)
	found = false
	sn.Nodes[3].Stats().Fetch("T", func(_ opt.TableStats, ok bool) { found = ok })
	sn.RunFor(10 * time.Second)
	if found {
		t.Fatal("unrenewed summaries survived their lifetime")
	}
}

// loadWorkloadTables loads the §5.1 tables and returns the SQL catalog
// describing them.
func loadWorkloadTables(sn *SimNetwork, sTuples int, seed int64) Catalog {
	tables := workload.Generate(workload.Config{STuples: sTuples, Seed: seed})
	for i, r := range tables.R {
		sn.Load("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, 0)
	}
	for i, s := range tables.S {
		sn.Load("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, 0)
	}
	return Catalog{
		"R": SQLTable{Name: "R", Cols: []string{"pkey", "num1", "num2", "num3"}, Key: "pkey"},
		"S": SQLTable{Name: "S", Cols: []string{"pkey", "num2", "num3"}, Key: "pkey"},
	}
}

const workloadJoinSQL = `SELECT R.pkey, S.pkey FROM R, S WHERE R.num1 = S.pkey AND R.num2 > 49 AND S.num2 > 49`

// TestAutoStrategyWithWarmCatalog: SQL with no USING STRATEGY over a
// warmed catalog must run with a catalog-chosen strategy — here Fetch
// Matches, since S is hashed on the join attribute — and return the
// right rows.
func TestAutoStrategyWithWarmCatalog(t *testing.T) {
	sn := NewSimNetwork(24, topology.NewFullMesh(), 74, statsOptions(30*time.Second))
	cat := loadWorkloadTables(sn, 80, 75)
	sn.RunFor(40 * time.Second)
	warm := 0
	sn.Nodes[0].Stats().Fetch("R", func(opt.TableStats, bool) { warm++ })
	sn.Nodes[0].Stats().Fetch("S", func(opt.TableStats, bool) { warm++ })
	sn.RunFor(20 * time.Second)
	if warm != 2 {
		t.Fatal("catalog failed to warm")
	}

	plan, err := ParseSQL(workloadJoinSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.AutoStrategy {
		t.Fatal("SQL without USING STRATEGY must mark the plan AutoStrategy")
	}
	rows := 0
	if _, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) { rows++ }); err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != FetchMatches {
		t.Fatalf("warm catalog chose %v, want fetch matches at this operating point", plan.Strategy)
	}
	sn.RunFor(3 * time.Minute)
	if rows == 0 {
		t.Fatal("auto-strategy query returned no rows")
	}
}

// TestAutoStrategyFallsBackOnColdCatalog: with no statistics published
// at all, the planner must keep the default strategy and still answer
// correctly — and an explicit USING STRATEGY must never consult the
// catalog.
func TestAutoStrategyFallsBackOnColdCatalog(t *testing.T) {
	sn := NewSimNetwork(16, topology.NewFullMesh(), 76, DefaultOptions()) // catalog disabled: nothing published
	cat := loadWorkloadTables(sn, 40, 77)
	sn.RunFor(10 * time.Second)

	plan, err := ParseSQL(workloadJoinSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if _, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) { rows++ }); err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != SymmetricHash {
		t.Fatalf("cold catalog changed the default strategy to %v", plan.Strategy)
	}
	sn.RunFor(3 * time.Minute)
	if rows == 0 {
		t.Fatal("fallback query returned no rows")
	}

	explicit, err := ParseSQL(workloadJoinSQL+` USING STRATEGY 'semijoin'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if explicit.AutoStrategy || explicit.Strategy != SymmetricSemiJoin {
		t.Fatalf("USING STRATEGY must pin the plan: auto=%v strategy=%v",
			explicit.AutoStrategy, explicit.Strategy)
	}
}

// TestObservedCardinalityFeedback: after a join's results are
// delivered, the engine reports the observed cardinality and the
// catalog learns a match-fraction correction for the table pair.
func TestObservedCardinalityFeedback(t *testing.T) {
	sn := NewSimNetwork(24, topology.NewFullMesh(), 78, statsOptions(30*time.Second))
	loadWorkloadTables(sn, 80, 79)
	sn.RunFor(40 * time.Second)
	warm := 0
	sn.Nodes[0].Stats().Fetch("R", func(opt.TableStats, bool) { warm++ })
	sn.Nodes[0].Stats().Fetch("S", func(opt.TableStats, bool) { warm++ })
	sn.RunFor(20 * time.Second)
	if warm != 2 {
		t.Fatal("catalog failed to warm")
	}

	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	plan := workload.JoinPlan(SymmetricHash, c1, c2, c3)
	plan.TTL = 10 * time.Minute
	id, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	sn.RunFor(2 * time.Minute)
	sn.Nodes[0].Cancel(id) // closes the collector and reports the window

	if _, ok := sn.Nodes[0].Stats().MatchCorrection("R", "S"); !ok {
		t.Fatal("no correction learned from the observed cardinality")
	}
	m, _ := sn.Nodes[0].Stats().MatchCorrection("R", "S")
	if m <= 0 || m > 1 {
		t.Fatalf("correction %v out of range", m)
	}
}

// TestRefreshWithNothingToSayIsSilent: a catalog tick on a node that
// stores no table and has nothing cached has nothing to publish or
// re-fetch, so it must send nothing. The deployment inputs are read
// from lookups the node makes anyway, never bought with a probe.
func TestRefreshWithNothingToSayIsSilent(t *testing.T) {
	sn := NewSimNetwork(16, topology.NewFullMesh(), 81, DefaultOptions())
	sn.RunFor(10 * time.Second)
	before := sn.Net.Totals().Messages
	sn.Nodes[5].RefreshStats()
	sn.RunFor(10 * time.Second)
	if sent := sn.Net.Totals().Messages - before; sent != 0 {
		t.Fatalf("an empty node's catalog refresh sent %d messages", sent)
	}
}

// TestHopLatencyReadsRealLookups: one remote get is enough for the
// node's snapshot to report a per-hop latency, with no catalog refresh
// ever run: the figure comes from the get's own lookup.
func TestHopLatencyReadsRealLookups(t *testing.T) {
	sn := NewSimNetwork(16, topology.NewFullMesh(), 82, DefaultOptions())
	sn.Load("T", "k", 1, &Tuple{Rel: "T", Vals: []Value{int64(1)}}, 0)
	sn.RunFor(time.Second)
	asker := sn.Nodes[0]
	if asker.Router().Owns(dht.KeyOf("T", "k")) {
		asker = sn.Nodes[1]
	}
	if ms := asker.Snapshot().HopLatencyMS; ms != 0 {
		t.Fatalf("hop latency %v ms before any lookup", ms)
	}
	got := 0
	asker.Provider().Get("T", "k", func(items []*storage.Item) { got = len(items) })
	sn.RunFor(10 * time.Second)
	if got != 1 {
		t.Fatalf("remote get returned %d items", got)
	}
	if ms := asker.Snapshot().HopLatencyMS; ms <= 0 {
		t.Fatalf("hop latency %v ms after a remote get", ms)
	}
}

// TestTransportStatsAccessor: the simulator has no link counters; the
// accessor must say so rather than report zeros as truth.
func TestTransportStatsAccessor(t *testing.T) {
	sn := NewSimNetwork(4, topology.NewFullMesh(), 80, DefaultOptions())
	if _, ok := sn.Nodes[0].TransportStats(); ok {
		t.Fatal("simulated node claims real link counters")
	}
}
