package index_test

// End-to-end tests of the Prefix Hash Tree over a simulated deployment:
// CREATE INDEX on loaded data backfills and splits into a trie, range
// queries via the engine's index path return exactly the reference
// results while contacting a fraction of the overlay, and expiring the
// bulk of the data shrinks the trie back (merge + orphan expiry).

import (
	"fmt"
	"testing"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/dht/storage"
	"pier/internal/index"
	"pier/internal/topology"
)

const (
	testNodes  = 24
	testTuples = 300
)

var testSchema = pier.SQLTable{
	Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey",
	Indexes: []pier.SQLIndex{{Name: "t_num", Col: "num"}},
}

// buildIndexed returns a simulated deployment with table T loaded
// (lifetime 0 = immortal), indexed on num, and the trie settled.
func buildIndexed(t *testing.T, lifetime time.Duration) *pier.SimNetwork {
	t.Helper()
	opts := pier.DefaultOptions()
	opts.Index.Interval = 10 * time.Second
	sn := pier.NewSimNetwork(testNodes, topology.NewFullMesh(), 5, opts)
	for i := 0; i < testTuples; i++ {
		tp := &pier.Tuple{Rel: "T", Vals: []pier.Value{int64(i), num(i)}}
		sn.Load("T", fmt.Sprint(i), int64(i), tp, lifetime)
	}
	sn.Nodes[0].RegisterTable(testSchema, time.Hour)
	if err := sn.Nodes[0].CreateIndex(testSchema, "t_num", "num", time.Hour); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// Backfill then enough ticks for the trie to descend the shared
	// prefix chain and split below the leaf threshold.
	sn.RunFor(4 * time.Minute)
	return sn
}

// num spreads the indexed values deterministically over [0, 1e6).
func num(i int) int64 { return int64(i*7919) % 1_000_000 }

// countIndexItems tallies entries and markers across all live stores.
func countIndexItems(sn *pier.SimNetwork) (entries, markers int) {
	for i, n := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		n.Provider().Scan(index.NS, func(it *storage.Item) bool {
			switch it.Payload.(type) {
			case *index.Entry:
				entries++
			case *index.Marker:
				markers++
			}
			return true
		})
	}
	return entries, markers
}

// rangePlan plans num < hi through the SQL planner, which attaches the
// index scan.
func rangePlan(t *testing.T, hi int64, forceIndex bool) *pier.Plan {
	t.Helper()
	src := fmt.Sprintf("SELECT pkey FROM T WHERE num < %d", hi)
	plan, err := pier.ParseSQL(src, pier.Catalog{"T": testSchema})
	if err != nil {
		t.Fatalf("ParseSQL: %v", err)
	}
	if plan.Tables[0].IndexScan == nil {
		t.Fatalf("planner did not attach an index scan to %q", src)
	}
	if forceIndex {
		plan.AutoAccess = false // bypass the catalog's access choice
	}
	plan.TTL = 5 * time.Minute
	return plan
}

// rangeQuery runs num < hi from node 0 and returns the received pkeys
// plus the trie nodes the traversal contacted.
func rangeQuery(t *testing.T, sn *pier.SimNetwork, hi int64, forceIndex bool) (got map[int64]bool, contacted int) {
	t.Helper()
	plan := rangePlan(t, hi, forceIndex)
	got = map[int64]bool{}
	id, err := sn.Nodes[0].Query(plan, func(tp *core.Tuple, _ int) {
		got[tp.Vals[0].(int64)] = true
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	sn.RunFor(2 * time.Minute)
	contacted, _ = sn.Nodes[0].Engine().IndexContacts(id)
	sn.Nodes[0].Cancel(id)
	return got, contacted
}

// walkRange runs num < hi through the index from node i and drives the
// simulation only until the traversal has finished. It returns the
// received pkeys, the trie nodes contacted, and the simulated time from
// submit to the last row.
func walkRange(t *testing.T, sn *pier.SimNetwork, i int, hi int64) (got map[int64]bool, contacted int, last time.Duration) {
	t.Helper()
	got = map[int64]bool{}
	start := sn.Net.Now()
	id, err := sn.Nodes[i].Query(rangePlan(t, hi, true), func(tp *core.Tuple, _ int) {
		got[tp.Vals[0].(int64)] = true
		last = sn.Net.Now().Sub(start)
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !sn.RunUntil(time.Minute, func() bool {
		contacted, _ = sn.Nodes[i].Engine().IndexContacts(id)
		return contacted > 0
	}) {
		t.Fatalf("num < %d: traversal did not finish within a minute", hi)
	}
	sn.Nodes[i].Cancel(id)
	return got, contacted, last
}

// sameRows fails the test unless got holds exactly the pkeys of want.
func sameRows(t *testing.T, what string, got, want map[int64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", what, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing pkey %d", what, k)
		}
	}
}

// liveRows returns the pkeys of the base tuples stored on live nodes.
func liveRows(sn *pier.SimNetwork) map[int64]bool {
	rows := map[int64]bool{}
	for i, n := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		n.Provider().Scan("T", func(it *storage.Item) bool {
			if tp, ok := it.Payload.(*core.Tuple); ok {
				rows[tp.Vals[0].(int64)] = true
			}
			return true
		})
	}
	return rows
}

func expectRange(hi int64) map[int64]bool {
	want := map[int64]bool{}
	for i := 0; i < testTuples; i++ {
		if num(i) < hi {
			want[int64(i)] = true
		}
	}
	return want
}

func TestIndexBuildsAndAnswersRangeQueries(t *testing.T) {
	sn := buildIndexed(t, 0)

	entries, markers := countIndexItems(sn)
	if entries < testTuples {
		t.Fatalf("backfill incomplete: %d entries for %d tuples", entries, testTuples)
	}
	if markers == 0 {
		t.Fatalf("no interior markers: the trie never split")
	}

	for _, hi := range []int64{50_000, 400_000, 999_999} {
		got, contacted := rangeQuery(t, sn, hi, true)
		sameRows(t, fmt.Sprintf("num < %d", hi), got, expectRange(hi))
		if contacted == 0 {
			t.Fatalf("num < %d: traversal reported no contacted trie nodes", hi)
		}
	}

	// Selective ranges must touch a small corner of the trie.
	_, contacted := rangeQuery(t, sn, 50_000, true)
	if _, markers := countIndexItems(sn); contacted >= markers {
		t.Fatalf("selective range contacted %d trie nodes of %d markers — no pruning", contacted, markers)
	}
}

// TestWarmRangeWalkTakesOneRound: a querier that has just walked a
// range holds the trie's interior in its marker cache, so the same walk
// asks for every trie node of the range at once instead of one level
// per round trip. The reply still decides what is read, so the rows and
// the nodes contacted stay the same.
func TestWarmRangeWalkTakesOneRound(t *testing.T) {
	sn := buildIndexed(t, 0)
	const hi = 400_000
	want := expectRange(hi)
	cold, coldContacts, coldLast := walkRange(t, sn, 0, hi)
	_, visits0, ahead0, wasted0 := sn.Nodes[0].Indexes().Stats()
	warm, warmContacts, warmLast := walkRange(t, sn, 0, hi)
	_, visits1, ahead1, wasted1 := sn.Nodes[0].Indexes().Stats()
	sameRows(t, "cold walk", cold, want)
	sameRows(t, "warm walk", warm, want)
	if coldContacts != warmContacts {
		t.Fatalf("warm walk contacted %d trie nodes, cold walk %d", warmContacts, coldContacts)
	}
	if warmLast*3 > coldLast {
		t.Fatalf("warm walk's last row after %v, cold walk's after %v: want at most a third", warmLast, coldLast)
	}
	// Every node but the root was asked for ahead of its parent's reply,
	// and none of those gets was wasted.
	if ahead, visits := ahead1-ahead0, visits1-visits0; ahead != visits-1 || wasted1 != wasted0 {
		t.Fatalf("warm walk: %d of %d visits ahead, %d wasted", ahead, visits, wasted1-wasted0)
	}
}

// TestCreateIndexNameConflictRejected pins the re-CREATE semantics: an
// identical re-run is an idempotent refresh, but reusing a name for a
// different column must fail — the trie stays keyed on the first
// column, so accepting the second would let planners prune by the
// wrong encoding.
func TestCreateIndexNameConflictRejected(t *testing.T) {
	opts := pier.DefaultOptions()
	sn := pier.NewSimNetwork(4, topology.NewFullMesh(), 9, opts)
	cat := pier.Catalog{"T": {Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey"}}
	node := sn.Nodes[0]

	if err := node.Exec("CREATE INDEX t_ix ON T (num)", cat); err != nil {
		t.Fatalf("first CREATE INDEX: %v", err)
	}
	sn.RunFor(time.Second) // deliver the announce
	if err := node.Exec("CREATE INDEX t_ix ON T (num)", cat); err != nil {
		t.Fatalf("idempotent re-run rejected: %v", err)
	}
	if got := len(cat["T"].Indexes); got != 1 {
		t.Fatalf("re-run duplicated the declaration: %d entries", got)
	}
	if err := node.Exec("CREATE INDEX t_ix ON T (pkey)", cat); err == nil {
		t.Fatalf("conflicting CREATE INDEX over another column accepted")
	}
	if err := node.Indexes().Create(index.Def{Name: "t_ix", Table: "T", Col: "pkey", ColIdx: 0}, 0); err == nil {
		t.Fatalf("Manager.Create accepted a known-conflicting definition")
	}
}

// TestDefCacheAgesOutWithDeadCreator pins the cache side of the
// soft-state promise: when an index's creator dies and its DefNS item
// expires, every node's cached definition must age out too — otherwise
// the orphaned trie would be re-fed and its marker chains renewed
// forever.
func TestDefCacheAgesOutWithDeadCreator(t *testing.T) {
	opts := pier.DefaultOptions()
	opts.Index.Interval = 10 * time.Second
	sn := pier.NewSimNetwork(8, topology.NewFullMesh(), 13, opts)
	schema := pier.SQLTable{Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey"}
	if err := sn.Nodes[0].CreateIndex(schema, "t_num", "num", 30*time.Second); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	sn.RunFor(15 * time.Second)
	if len(sn.Nodes[3].Indexes().Defs("T")) == 0 {
		t.Fatalf("announce did not reach node 3")
	}

	sn.Kill(0) // the creator stops renewing the definition
	sn.RunFor(2 * time.Minute)
	for i := 1; i < len(sn.Nodes); i++ {
		if !sn.Alive(i) {
			continue
		}
		if defs := sn.Nodes[i].Indexes().Defs("T"); len(defs) != 0 {
			t.Fatalf("node %d still caches %v after the definition expired", i, defs)
		}
	}
}

func TestIndexShrinksWhenDataExpires(t *testing.T) {
	// Long enough to survive buildIndexed's settle; short enough that
	// unrenewed tuples age out within the renewal phases below.
	lifetime := 10 * time.Minute
	sn := buildIndexed(t, lifetime)
	_, grownMarkers := countIndexItems(sn)
	if grownMarkers == 0 {
		t.Fatalf("no interior markers after load")
	}

	// Keep renewing only the 20 smallest pkeys; everything else — base
	// tuples and index entries alike — ages out, and the trie must
	// merge/expire back toward a small tree. Node 0 walks the whole
	// range twice per maintenance period throughout, so its marker cache
	// stays warm while the interior it caches merges away under it; each
	// answer must hold exactly the base tuples live during the walk.
	keep := 20
	_, _, ahead0, _ := sn.Nodes[0].Indexes().Stats()
	for phase := 0; phase < 14; phase++ {
		for i := 0; i < keep; i++ {
			tp := &pier.Tuple{Rel: "T", Vals: []pier.Value{int64(i), num(i)}}
			sn.Nodes[0].Renew("T", fmt.Sprint(i), int64(i), tp, lifetime)
		}
		for step := 0; step < 12; step++ {
			sn.RunFor(5 * time.Second)
			before := liveRows(sn)
			got, _, _ := walkRange(t, sn, 0, 1_000_000)
			after := liveRows(sn)
			for k := range got {
				if !before[k] {
					t.Fatalf("phase %d step %d: warm walk returned pkey %d, expired before the walk", phase, step, k)
				}
			}
			for k := range after {
				if !got[k] {
					t.Fatalf("phase %d step %d: warm walk lost live pkey %d (got %d of %d rows)", phase, step, k, len(got), len(after))
				}
			}
		}
	}
	if _, _, ahead, _ := sn.Nodes[0].Indexes().Stats(); ahead == ahead0 {
		t.Fatalf("the querier's walks never used its marker cache")
	}

	entries, markers := countIndexItems(sn)
	if entries > 2*keep {
		t.Fatalf("%d entries still indexed; want about %d", entries, keep)
	}
	if markers >= grownMarkers/2 {
		t.Fatalf("trie did not shrink: %d markers now vs %d grown", markers, grownMarkers)
	}

	// The survivors must still be exactly rangeable.
	got, _ := rangeQuery(t, sn, 1_000_000, true)
	for i := 0; i < keep; i++ {
		if !got[int64(i)] {
			t.Fatalf("surviving pkey %d missing from range query (got %d rows)", i, len(got))
		}
	}
}
