package index

// Tests of the range walk against its own marker cache: a cache that
// claims interior nodes the trie does not have costs gets, never rows.

import (
	"sort"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht/can"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
	"pier/internal/wire"
)

// testTrie is a small simulated overlay whose nodes run only the
// router, the provider and an index agent with the loop off.
type testTrie struct {
	nw   *simnet.Network
	envs []*simnet.NodeEnv
	mgrs []*Manager
	keys map[string]uint64 // base rid -> encoded key
}

func newTestTrie(t *testing.T, nodes int) *testTrie {
	t.Helper()
	tt := &testTrie{nw: simnet.New(topology.NewFullMeshInfinite(), 3), keys: map[string]uint64{}}
	var routers []*can.Router
	for i := 0; i < nodes; i++ {
		e := tt.nw.AddNode()
		r := can.New(e, can.DefaultConfig())
		p := provider.New(e, r, provider.Config{}, nil)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if !r.HandleMessage(from, m) {
				p.HandleMessage(from, m)
			}
		}))
		tt.envs = append(tt.envs, e)
		tt.mgrs = append(tt.mgrs, New(e, p, Config{}))
		routers = append(routers, r)
	}
	can.Bootstrap(routers, 5)
	return tt
}

// load inserts n rows from alternating nodes and runs the maintenance
// tick on every node until the trie has grown down to its leaves.
func (tt *testTrie) load(n int) {
	def := Def{Name: "t_num", Table: "T", Col: "num", ColIdx: 1}
	for i := 0; i < n; i++ {
		i := i
		rid := string(rune('a'+i%26)) + string(rune('a'+i/26))
		tp := &core.Tuple{Rel: "T", Vals: []core.Value{int64(i), int64(i*7919) % 1_000_000}}
		tt.keys[rid] = wire.OrderedKey(tp.At(1))
		at := i % len(tt.mgrs)
		tt.envs[at].Post(func() { tt.mgrs[at].Insert(def, rid, int64(i), tp, 0) })
	}
	tt.nw.RunFor(time.Second)
	for tick := 0; tick < 2*wire.OrderedKeyBits; tick++ {
		for i, m := range tt.mgrs {
			tt.envs[i].Post(m.Tick)
		}
		tt.nw.RunFor(time.Second)
	}
}

// nodes maps every stored trie node to whether it holds a marker.
func (tt *testTrie) nodes() map[string]bool {
	out := map[string]bool{}
	for _, m := range tt.mgrs {
		m.prov.Scan(NS, func(it *storage.Item) bool {
			_, marker := it.Payload.(*Marker)
			out[it.ResourceID] = out[it.ResourceID] || marker
			return true
		})
	}
	return out
}

// scan runs one range walk from node i and returns the base rids it
// found and the trie nodes it contacted.
func (tt *testTrie) scan(t *testing.T, i int, lo, hi uint64) (map[string]bool, int) {
	t.Helper()
	got, contacted, done := map[string]bool{}, 0, false
	tt.envs[i].Post(func() {
		tt.mgrs[i].RangeScan("t_num", lo, hi, func(rid string, _ int64, _ *core.Tuple) { got[rid] = true },
			func(c int) { contacted, done = c, true })
	})
	tt.nw.RunWhile(tt.nw.Now().Add(time.Minute), func() bool { return !done })
	if !done {
		t.Fatalf("[%x, %x]: walk from node %d did not finish", lo, hi, i)
	}
	return got, contacted
}

// TestStaleMarkerCacheNeverLosesRows marks as interior, in one
// querier's cache, every leaf of a settled trie, prefixes below those
// leaves, and absent children of interior nodes. The querier's walks
// must return exactly the rows of a cold querier's walks and of the
// reference, at no fewer trie nodes; the extra gets come back empty and
// are counted as wasted.
func TestStaleMarkerCacheNeverLosesRows(t *testing.T) {
	tt := newTestTrie(t, 8)
	tt.load(200)
	trie := tt.nodes()
	var stale []string
	leaves := 0
	for rid, marker := range trie {
		if !marker {
			leaves++
			stale = append(stale, rid, rid+"0", rid+"1", rid+"01", rid+"10")
			continue
		}
		for _, child := range []string{rid + "0", rid + "1"} {
			if _, ok := trie[child]; !ok {
				stale = append(stale, child, child+"1")
			}
		}
	}
	if leaves < 8 {
		t.Fatalf("trie has %d leaves; want a split trie", leaves)
	}

	var sorted []uint64
	for _, k := range tt.keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ranges := [][2]uint64{
		{0, ^uint64(0)},
		{sorted[10], sorted[60]},
		{sorted[100], sorted[100]},
		{sorted[150] + 1, sorted[151] - 1},
		{sorted[190], ^uint64(0)},
	}
	warm, cold := tt.mgrs[0], tt.mgrs[1]
	for _, r := range ranges {
		want := map[string]bool{}
		for rid, k := range tt.keys {
			if k >= r[0] && k <= r[1] {
				want[rid] = true
			}
		}
		cold.markerSeen = nil
		coldGot, coldContacts := tt.scan(t, 1, r[0], r[1])
		for _, rid := range stale {
			warm.sawMarker(rid)
		}
		warmGot, warmContacts := tt.scan(t, 0, r[0], r[1])
		for what, got := range map[string]map[string]bool{"cold": coldGot, "stale": warmGot} {
			if len(got) != len(want) {
				t.Fatalf("[%x, %x]: %s walk found %d rows, want %d", r[0], r[1], what, len(got), len(want))
			}
			for rid := range want {
				if !got[rid] {
					t.Fatalf("[%x, %x]: %s walk lost row %s", r[0], r[1], what, rid)
				}
			}
		}
		if warmContacts < coldContacts {
			t.Fatalf("[%x, %x]: stale walk contacted %d trie nodes, cold walk %d", r[0], r[1], warmContacts, coldContacts)
		}
	}
	if _, _, ahead, wasted := warm.Stats(); wasted == 0 || wasted > ahead {
		t.Fatalf("stale walks: %d gets ahead, %d wasted", ahead, wasted)
	}
	if _, _, ahead, _ := cold.Stats(); ahead != 0 {
		t.Fatalf("cold walks issued %d gets ahead", ahead)
	}
}

// TestTickAgesMarkerCache: the maintenance tick drops marker-cache
// entries older than cacheTTL and keeps fresh ones.
func TestTickAgesMarkerCache(t *testing.T) {
	tt := newTestTrie(t, 2)
	m := tt.mgrs[0]
	tt.envs[0].Post(func() { m.sawMarker("t_num|0") })
	tt.nw.RunFor(m.cacheTTL / 2)
	tt.envs[0].Post(func() { m.sawMarker("t_num|1") })
	tt.nw.RunFor(m.cacheTTL/2 + time.Millisecond)
	tt.envs[0].Post(m.Tick)
	tt.nw.RunFor(time.Millisecond)
	if _, ok := m.markerSeen["t_num|0"]; ok {
		t.Fatalf("tick kept a marker-cache entry older than cacheTTL")
	}
	if _, ok := m.markerSeen["t_num|1"]; !ok || len(m.markerSeen) != 1 {
		t.Fatalf("tick left %v; want only the fresh entry", m.markerSeen)
	}
}
