package pier

// Eviction/renewal regression tests: quota eviction changes what a node
// silently forgets, so these pin the soft-state healing behaviors that
// must keep masking that forgetting — publishers re-insert evicted
// index entries on renew, stats summaries re-converge within one
// refresh interval, and a renew of a spilled item promotes it back to
// the memory tier. Eviction is simulated by removing items straight
// from the owning stores (the quota path is pinned separately by the
// storage suite and the flood chaos scenario), so each test isolates
// one healing mechanism.

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/opt"
	"pier/internal/simnet"
	"pier/internal/stats"
	"pier/internal/topology"
)

// evictNamespace removes every live item of a namespace matching keep
// from all live stores — a simulated quota eviction — and returns how
// many items it removed.
func evictNamespace(sn *SimNetwork, ns string, victim func(*storage.Item) bool) int {
	type identity struct {
		rid string
		iid int64
	}
	removed := 0
	for i, n := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		var ids []identity
		n.Provider().Scan(ns, func(it *storage.Item) bool {
			if victim(it) {
				ids = append(ids, identity{rid: it.ResourceID, iid: it.InstanceID})
			}
			return true
		})
		for _, id := range ids {
			if n.Provider().Store().Remove(ns, id.rid, id.iid) {
				removed++
			}
		}
	}
	return removed
}

// countIndexEntries tallies live index entries across all stores.
func countIndexEntries(sn *SimNetwork) int {
	entries := 0
	for i, n := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		n.Provider().Scan(index.NS, func(it *storage.Item) bool {
			if _, ok := it.Payload.(*index.Entry); ok {
				entries++
			}
			return true
		})
	}
	return entries
}

// TestEvictedIndexLeavesHealOnRenew: evicting a trie leaf's entries
// loses range-query results only until the publishers' next renewal —
// every renew re-inserts the entry at the leaf currently covering its
// key, so within one maintenance tick of the renewals the index answers
// in full again.
func TestEvictedIndexLeavesHealOnRenew(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated index scenario")
	}
	const rows = 120
	schema := SQLTable{
		Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey",
		Indexes: []SQLIndex{{Name: "t_num", Col: "num"}},
	}
	opts := DefaultOptions()
	opts.Index.Interval = 10 * time.Second
	sn := NewSimNetwork(16, topology.NewFullMesh(), 91, opts)

	sn.Nodes[0].RegisterTable(schema, time.Hour)
	if err := sn.Nodes[0].CreateIndex(schema, "t_num", "num", time.Hour); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	sn.RunFor(30 * time.Second)

	tup := func(i int) *Tuple {
		return &Tuple{Rel: "T", Vals: []Value{int64(i), int64(i*7919) % 1_000_000}}
	}
	for i := 0; i < rows; i++ {
		sn.Nodes[0].Publish("T", fmt.Sprint(i), int64(i), tup(i), 2*time.Hour)
	}
	sn.RunFor(2 * time.Minute) // place entries, let the trie split

	rangeRows := func() int {
		plan, err := ParseSQL("SELECT pkey FROM T WHERE num < 1000000", Catalog{"T": schema})
		if err != nil {
			t.Fatalf("ParseSQL: %v", err)
		}
		if plan.Tables[0].IndexScan == nil {
			t.Fatal("planner did not attach an index scan")
		}
		plan.AutoAccess = false // always take the index path
		plan.TTL = 5 * time.Minute
		got := map[int64]bool{}
		id, err := sn.Nodes[0].Query(plan, func(tp *core.Tuple, _ int) {
			got[tp.Vals[0].(int64)] = true
		})
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		sn.RunFor(90 * time.Second)
		sn.Nodes[0].Cancel(id)
		return len(got)
	}

	if got := rangeRows(); got != rows {
		t.Fatalf("baseline range query returned %d rows, want %d", got, rows)
	}

	isEntry := func(it *storage.Item) bool { _, ok := it.Payload.(*index.Entry); return ok }
	if removed := evictNamespace(sn, index.NS, isEntry); removed < rows {
		t.Fatalf("evicted only %d index entries, expected at least %d", removed, rows)
	}
	if left := countIndexEntries(sn); left != 0 {
		t.Fatalf("%d index entries survived the eviction", left)
	}
	// A few relocation puts from the maintenance tick may still be in
	// flight and re-deliver entries, so the gutted trie is "almost
	// empty" rather than exactly empty; what matters is that results
	// were lost and stay lost until the publishers renew.
	if got := rangeRows(); got >= rows/2 {
		t.Fatalf("range query over the gutted trie returned %d of %d rows", got, rows)
	}

	// The healing path: publishers renew their tuples (as wrappers do
	// every RefreshPeriod), and each renew re-inserts the index entry.
	for i := 0; i < rows; i++ {
		sn.Nodes[0].Renew("T", fmt.Sprint(i), int64(i), tup(i), 2*time.Hour)
	}
	sn.RunFor(opts.Index.Interval + 20*time.Second)

	if entries := countIndexEntries(sn); entries < rows {
		t.Fatalf("only %d entries healed within one maintenance tick, want >= %d", entries, rows)
	}
	if got := rangeRows(); got != rows {
		t.Fatalf("healed range query returned %d rows, want %d", got, rows)
	}
}

// TestEvictedStatsSummariesReconverge: evicting every published catalog
// summary blinds planners only until the next refresh tick — each node
// re-samples its local tables and re-publishes, so one interval later
// an arbitrary node's fetch is exact again.
func TestEvictedStatsSummariesReconverge(t *testing.T) {
	const (
		rows     = 200
		interval = 30 * time.Second
	)
	opts := DefaultOptions()
	opts.Stats.Interval = interval
	sn := NewSimNetwork(16, topology.NewFullMesh(), 92, opts)
	for i := 0; i < rows; i++ {
		sn.Load("R", fmt.Sprint(i), int64(i),
			&Tuple{Rel: "R", Vals: []Value{int64(i), int64(i % 97)}}, 0)
	}
	sn.RunFor(interval + 5*time.Second)

	fetchTuples := func(from int) (float64, bool) {
		var got opt.TableStats
		fetched := false
		sn.Nodes[from].Stats().Fetch("R", func(ts opt.TableStats, ok bool) {
			got, fetched = ts, ok
		})
		sn.RunFor(15 * time.Second)
		return got.Tuples, fetched
	}

	if tuples, ok := fetchTuples(3); !ok || tuples != rows {
		t.Fatalf("catalog not warm before eviction: ok=%v tuples=%.0f", ok, tuples)
	}

	all := func(*storage.Item) bool { return true }
	if removed := evictNamespace(sn, stats.CatalogNS, all); removed == 0 {
		t.Fatal("no catalog summaries found to evict")
	}

	// One refresh interval later every node has re-published; a node
	// that never fetched before must see the exact totals again.
	sn.RunFor(interval + 5*time.Second)
	republished := 0
	for i, n := range sn.Nodes {
		if !sn.Alive(i) {
			continue
		}
		republished += n.Provider().Store().Len(stats.CatalogNS)
	}
	if republished == 0 {
		t.Fatal("no summaries re-published within one refresh interval")
	}
	if tuples, ok := fetchTuples(7); !ok || tuples != rows {
		t.Fatalf("catalog did not re-converge: ok=%v tuples=%.0f, want %d", ok, tuples, rows)
	}
}

// TestRenewPromotesSpilledItemThroughProvider drives the disk-spill
// store through the full simulated put path: a publish flood past the
// namespace quota pushes the oldest items to disk, and a renew of one
// of them — arriving as an ordinary put at the owner — promotes it back
// to the memory tier with its disk copy tombstoned, leaving exactly one
// live copy carrying the extended lifetime.
func TestRenewPromotesSpilledItemThroughProvider(t *testing.T) {
	// One node that starts its own overlay, over a store opened on the
	// simulated clock before the node exists, as StartNode opens one.
	nw := simnet.New(topology.NewFullMesh(), 93)
	sp, err := storage.Open(nw.Now, storage.QuotaConfig{Quotas: map[string]int64{"K": 1 << 10}}, t.TempDir())
	if err != nil {
		t.Fatalf("storage.Open: %v", err)
	}
	node := buildNode(nw.AddNode(), DefaultOptions(), sp)
	node.router.Join(env.NilAddr)
	tup := func(i int) *Tuple {
		return &Tuple{Rel: "K", Vals: []Value{int64(i)}, Pad: 80}
	}
	for i := 0; i < 40; i++ {
		node.Publish("K", fmt.Sprintf("k%02d", i), int64(i), tup(i), time.Hour)
	}
	nw.RunFor(2 * time.Minute) // let throttled puts retry and land

	before := sp.Stats()
	if before.SpilledLive == 0 {
		t.Fatalf("quota never pushed items to the disk tier: %+v", before)
	}
	// Every item shares one expiry, so victims fall in store order and
	// k00 — the first store — is the first one spilled.
	renewedAt := nw.Now()
	node.Renew("K", "k00", 0, tup(0), 2*time.Hour)
	nw.RunFor(time.Minute)

	after := sp.Stats()
	promoted := (after.ItemsSpilled - before.ItemsSpilled) -
		int64(after.SpilledLive-before.SpilledLive)
	if promoted < 1 {
		t.Fatalf("renew promoted nothing: before %+v, after %+v", before, after)
	}
	items := sp.Retrieve("K", "k00")
	if len(items) != 1 {
		t.Fatalf("tiers hold %d copies of the renewed item, want exactly 1", len(items))
	}
	if !items[0].Expires.After(renewedAt.Add(90 * time.Minute)) {
		t.Fatalf("renew did not extend the promoted item's lifetime: expires %v", items[0].Expires)
	}
}
