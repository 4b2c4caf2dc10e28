package storage

// The scan contract (Manager.Scan's doc comment): what a callback may
// do to the store it is scanning and what the scan then visits, checked
// against all three configurations; the allocation gates that keep a
// steady-state scan a plain walk; and the scan benchmark.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// scanIDs scans the namespace, running visit (if not nil) from inside
// the callback, and returns what was visited as "rid/iid".
func scanIDs(s *Manager, ns string, visit func(it *Item)) []string {
	var got []string
	s.Scan(ns, func(it *Item) bool {
		got = append(got, fmt.Sprintf("%s/%d", it.ResourceID, it.InstanceID))
		if visit != nil {
			visit(it)
		}
		return true
	})
	return got
}

func wantIDs(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s visited %v, want %v", what, got, want)
	}
}

func TestConformanceScanCallbackRemoves(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		exp := c.t.Add(time.Hour)
		load := func() {
			for _, rid := range []string{"a", "b", "c"} {
				s.Store(item("t", rid, 1, exp))
				s.Store(item("t", rid, 2, exp))
			}
		}
		load()
		// A later instance of the resourceID being visited (a nil
		// dereference before the ordered store).
		got := scanIDs(s, "t", func(it *Item) {
			if it.ResourceID == "a" && it.InstanceID == 1 {
				s.Remove("t", "a", 2)
			}
		})
		wantIDs(t, "remove-later-instance", got, "a/1", "b/1", "b/2", "c/1", "c/2")

		load()
		got = scanIDs(s, "t", func(it *Item) {
			if it.ResourceID == "a" && it.InstanceID == 2 {
				s.Remove("t", "b", 1)
				s.Remove("t", "b", 2)
			}
		})
		wantIDs(t, "remove-later-rid", got, "a/1", "a/2", "c/1", "c/2")

		load()
		got = scanIDs(s, "t", func(it *Item) {
			if !s.Remove("t", it.ResourceID, it.InstanceID) {
				t.Fatalf("visited %s/%d is not stored", it.ResourceID, it.InstanceID)
			}
		})
		wantIDs(t, "remove-self", got, "a/1", "a/2", "b/1", "b/2", "c/1", "c/2")
		if s.TotalLen() != 0 || len(s.Namespaces()) != 0 {
			t.Fatalf("remove-self left %d items in %v", s.TotalLen(), s.Namespaces())
		}

		// An earlier instance goes while a later one is being visited, and
		// the visited one is renewed: neither shifts the scan.
		load()
		got = scanIDs(s, "t", func(it *Item) {
			if it.InstanceID == 2 {
				s.Remove("t", it.ResourceID, 1)
				s.Store(item("t", it.ResourceID, 2, exp.Add(time.Hour)))
			}
		})
		wantIDs(t, "remove-earlier-and-renew", got, "a/1", "a/2", "b/1", "b/2", "c/1", "c/2")
	})
}

func TestConformanceScanCallbackStores(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		exp := c.t.Add(time.Hour)
		for _, rid := range []string{"b", "d", "f"} {
			s.Store(item("t", rid, 1, exp))
		}
		// New resourceIDs on both sides of the cursor, and into another
		// namespace: none is visited by the scan that stored them.
		got := scanIDs(s, "t", func(it *Item) {
			if it.ResourceID == "d" {
				s.Store(item("t", "a", 1, exp))
				s.Store(item("t", "e", 1, exp))
				s.Store(item("t", "g", 1, exp))
				s.Store(item("u", "e", 1, exp))
			}
		})
		wantIDs(t, "store-new-rid", got, "b/1", "d/1", "f/1")
		wantIDs(t, "the next scan", scanIDs(s, "t", nil), "a/1", "b/1", "d/1", "e/1", "f/1", "g/1")
		wantIDs(t, "the other namespace", scanIDs(s, "u", nil), "e/1")
		if s.Len("t") != 6 || s.Len("u") != 1 {
			t.Fatalf("Len t=%d u=%d, want 6 and 1", s.Len("t"), s.Len("u"))
		}
		// A replacement stored before its turn is what the scan visits.
		var renewed *Item
		s.Scan("t", func(it *Item) bool {
			if it.ResourceID == "a" {
				renewed = item("t", "g", 1, exp.Add(time.Hour))
				s.Store(renewed)
			}
			if it.ResourceID == "g" && it != renewed {
				t.Fatal("scan visited the replaced item, not its replacement")
			}
			return true
		})
	})
}

func TestConformanceNestedScan(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		exp := c.t.Add(time.Hour)
		for _, rid := range []string{"b", "d"} {
			s.Store(item("t", rid, 1, exp))
			s.Store(item("u", rid, 7, exp))
		}
		var inner, other []string
		got := scanIDs(s, "t", func(it *Item) {
			if it.ResourceID != "b" {
				return
			}
			// The nested scan of the same namespace has fresh slots to
			// fold in and an emptied one to drop, under the outer scan.
			s.Store(item("t", "a", 1, exp))
			s.Store(item("t", "c", 1, exp))
			s.Remove("t", "d", 1)
			inner = scanIDs(s, "t", nil)
			s.Store(item("t", "d", 1, exp))
			other = scanIDs(s, "u", nil)
		})
		// d/1 was removed before its turn; the d/1 stored afterwards is a
		// new resourceID as far as the running scan is concerned.
		wantIDs(t, "outer scan", got, "b/1")
		wantIDs(t, "nested scan of the same namespace", inner, "a/1", "b/1", "c/1")
		wantIDs(t, "nested scan of another namespace", other, "b/7", "d/7")
		wantIDs(t, "the next scan", scanIDs(s, "t", nil), "a/1", "b/1", "c/1", "d/1")
	})
}

// stored reports whether the manager holds the identity, in memory or on
// disk.
func stored(s *Manager, ns, rid string, iid int64) bool {
	_, ok := s.get(ns, rid, iid)
	return ok
}

func TestConformanceEvictionInsideScanCallback(t *testing.T) {
	// Room for about ten items per namespace: the puts made from inside
	// the scan evict the nearest-to-expiry items, which are the ones the
	// scan has not reached yet. With a spill log they go to disk and the
	// scan still owes each of them its visit.
	sz := int64(spillItem("t", "r00", 1, 8, time.Unix(0, 0).Add(time.Minute)).WireSize())
	forEachStoreWith(t, QuotaConfig{DefaultQuota: 10 * sz}, func(t *testing.T, s *Manager, c *clock) {
		const n = 10
		for i := 0; i < n; i++ {
			s.Store(spillItem("t", fmt.Sprintf("r%02d", i), 1, 8, c.t.Add(time.Duration(2*n-i)*time.Minute)))
			s.Store(spillItem("u", fmt.Sprintf("r%02d", i), 1, 8, c.t.Add(time.Duration(2*n-i)*time.Minute)))
		}
		// next is the item the scan owes the next visit to: the first one
		// after the last visited that is still stored. Only the callback
		// changes the store, so it is exact.
		next, visited := "r00", 0
		s.Scan("t", func(it *Item) bool {
			if it.ResourceID != next {
				t.Fatalf("visited %s, want %q: every item still stored at its turn, once, in order", it.ResourceID, next)
			}
			visited++
			// What a rehash does: a put into the scanned namespace and
			// one into another, each over quota.
			s.Store(spillItem("t", "x"+it.ResourceID, 1, 8, c.t.Add(time.Hour)))
			s.Store(spillItem("u", "x"+it.ResourceID, 1, 8, c.t.Add(time.Hour)))
			next = ""
			for i := n - 1; i >= 0; i-- {
				if rid := fmt.Sprintf("r%02d", i); rid > it.ResourceID && stored(s, "t", rid, 1) {
					next = rid
				}
			}
			return true
		})
		if next != "" {
			t.Fatalf("the scan ended after %d visits with %s still stored", visited, next)
		}
		st := s.Stats()
		if s.quota != nil && st.ItemsEvicted == 0 {
			t.Fatal("the callback's puts evicted nothing: the test exercises no eviction")
		}
		if s.log != nil && (st.SpilledLive == 0 || visited != n) {
			t.Fatalf("with a spill log every item stays stored: %d visits, stats %+v", visited, st)
		}
	})
}

func TestSpillScanSkipsItemsRemovedFromEitherTier(t *testing.T) {
	// A removal from inside the callback must be honoured whether the
	// item was in memory or on disk.
	c := &clock{t: time.Unix(0, 0)}
	sz := int64(spillItem("t", "a", 1, 8, c.t.Add(time.Minute)).WireSize())
	sp := openTest(t, c, QuotaConfig{DefaultQuota: 3 * sz}, t.TempDir())
	for i, rid := range []string{"a", "b", "c", "d", "e", "f"} {
		sp.Store(spillItem("t", rid, 1, 8, c.t.Add(time.Duration(i+1)*time.Minute)))
	}
	if sp.Stats().SpilledLive != 3 {
		t.Fatalf("SpilledLive = %d, want 3 (a, b, c on disk)", sp.Stats().SpilledLive)
	}
	got := scanIDs(sp, "t", func(it *Item) {
		if it.ResourceID == "a" {
			sp.Remove("t", "b", 1) // on disk
			sp.Remove("t", "e", 1) // in memory
		}
	})
	wantIDs(t, "scan", got, "a/1", "c/1", "d/1", "f/1")
}

func TestConformanceScanUnderChurn(t *testing.T) {
	// Hundreds of resourceIDs stored, renewed, removed and swept at
	// random, with a purge now and then that empties most slots without
	// a scan in between (so the merge runs from inside Remove); scans
	// fold in fresh tails that already hold emptied slots. Every scan is
	// compared with a sorted model.
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		r := rand.New(rand.NewSource(5))
		model := map[string]time.Time{} // "rid/iid" -> expiry
		check := func(step int) {
			t.Helper()
			var want []string
			for id, exp := range model {
				if exp.After(c.t) {
					want = append(want, id)
				}
			}
			sort.Strings(want)
			if got := scanIDs(s, "t", nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d: scan has %d items, model %d\n got %v\nwant %v", step, len(got), len(want), got, want)
			}
			if s.Len("t") != len(model) {
				t.Fatalf("step %d: Len = %d, model %d", step, s.Len("t"), len(model))
			}
		}
		remove := func(step int, rid string, iid int64) {
			t.Helper()
			id := fmt.Sprintf("%s/%d", rid, iid)
			_, want := model[id]
			delete(model, id)
			if s.Remove("t", rid, iid) != want {
				t.Fatalf("step %d: Remove(%s) != %v", step, id, want)
			}
		}
		for step := 0; step < 6000; step++ {
			rid, iid := fmt.Sprintf("r%03d", r.Intn(400)), int64(r.Intn(2))
			if r.Intn(3) > 0 {
				exp := c.t.Add(time.Duration(1+r.Intn(120)) * time.Minute)
				s.Store(item("t", rid, iid, exp))
				model[fmt.Sprintf("%s/%d", rid, iid)] = exp
			} else {
				remove(step, rid, iid)
			}
			if r.Intn(200) == 0 {
				c.t = c.t.Add(10 * time.Minute)
				s.SweepExpired()
				for id, exp := range model {
					if !exp.After(c.t) {
						delete(model, id)
					}
				}
			}
			if step%1500 == 1499 {
				for i := 10; i < 400; i++ {
					remove(step, fmt.Sprintf("r%03d", i), 0)
					remove(step, fmt.Sprintf("r%03d", i), 1)
				}
			}
			if r.Intn(40) == 0 || step%1500 == 1499 {
				check(step)
			}
		}
	})
}

func TestNeverScannedNamespaceDropsEmptiedSlots(t *testing.T) {
	// A namespace that is written and expired but never scanned (every
	// published table between queries) must not keep a slot per
	// resourceID it ever held.
	m, c := newTestManager()
	m.Store(item("w", "keep", 1, time.Time{}))
	for i := 0; i < 10_000; i++ {
		m.Store(item("w", fmt.Sprint(i), 1, c.t.Add(time.Minute)))
		if i%100 == 99 {
			c.t = c.t.Add(2 * time.Minute)
			m.SweepExpired()
		}
	}
	sp := m.spaces["w"]
	if n := len(sp.order) + len(sp.fresh); n > 2*minDead+1 {
		t.Fatalf("%d slots kept for 1 stored item", n)
	}
}

func TestScanOfUnchangedNamespaceDoesNotAllocate(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		const n = 10_000
		for i := 0; i < n; i++ {
			s.Store(item("t", fmt.Sprint(i), 1, c.t.Add(time.Hour)))
		}
		visited := 0
		f := func(*Item) bool { visited++; return true }
		s.Scan("t", f) // folds the loaded slots in
		if visited != n {
			t.Fatalf("first scan visited %d of %d", visited, n)
		}
		if a := testing.AllocsPerRun(10, func() { s.Scan("t", f) }); a != 0 {
			t.Fatalf("scan of an unchanged namespace allocates %v times, want 0", a)
		}
		// Renewals change no resourceID: still a plain walk.
		for i := 0; i < n; i += 7 {
			s.Store(item("t", fmt.Sprint(i), 1, c.t.Add(2*time.Hour)))
		}
		if a := testing.AllocsPerRun(10, func() { s.Scan("t", f) }); a != 0 {
			t.Fatalf("scan after renewals allocates %v times, want 0", a)
		}
		var got []*Item
		if a := testing.AllocsPerRun(100, func() { got = s.Retrieve("t", "42") }); a > 1 {
			t.Fatalf("Retrieve of a one-instance rid allocates %v times, want <= 1", a)
		}
		if len(got) != 1 {
			t.Fatalf("Retrieve = %v", got)
		}
	})
}

// TestManagerSizeWithoutOptionalParts: most simulated nodes hold an idle,
// unbounded manager, so the quota and the spill log may cost it one
// pointer each and nothing else (seven words before they moved in).
func TestManagerSizeWithoutOptionalParts(t *testing.T) {
	if got, max := unsafe.Sizeof(Manager{}), 9*unsafe.Sizeof(uintptr(0)); got > max {
		t.Fatalf("Manager is %d bytes, want at most %d", got, max)
	}
}

// BenchmarkStoreScan measures lscan at a benchmark node's size (tcp-scan
// holds ~37 500 tuples a node): cold is the first scan after a bulk
// load (sort and merge every slot), steady the scan every later query
// pays, after-100-inserts the scan that follows a trickle of puts,
// steady-spilled the steady scan of a namespace with a few items on
// disk (a walk plus one load each, not a sort of the namespace).
func BenchmarkStoreScan(b *testing.B) {
	const n = 37_500
	load := func() *Manager {
		m := New(func() time.Time { return time.Unix(0, 0) })
		for i := 0; i < n; i++ {
			m.Store(item("t", fmt.Sprintf("%x", uint32(i)*2654435761), 1, time.Unix(3600, 0)))
		}
		return m
	}
	visited := 0
	f := func(*Item) bool { visited++; return true }
	perItem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := load()
			b.StartTimer()
			m.Scan("t", f)
		}
		perItem(b)
	})
	b.Run("steady", func(b *testing.B) {
		m := load()
		m.Scan("t", f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Scan("t", f)
		}
		perItem(b)
	})
	b.Run("after-100-inserts", func(b *testing.B) {
		m := load()
		m.Scan("t", f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for k := 0; k < 100; k++ {
				m.Remove("t", fmt.Sprintf("new%d-%d", i-1, k), 1)
				m.Store(item("t", fmt.Sprintf("new%d-%d", i, k), 1, time.Unix(3600, 0)))
			}
			b.StartTimer()
			m.Scan("t", f)
		}
		perItem(b)
	})
	b.Run("steady-spilled", func(b *testing.B) {
		// The same load under a quota a few items short of it, so the
		// first few stored end up on disk.
		items, total := make([]*Item, n), 0
		for i := range items {
			items[i] = spillItem("t", fmt.Sprintf("%x", uint32(i)*2654435761), 1, 2, time.Unix(3600, 0))
			total += items[i].WireSize()
		}
		m, err := Open(func() time.Time { return time.Unix(0, 0) },
			QuotaConfig{DefaultQuota: int64(total - 8*items[n-1].WireSize())}, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		for _, it := range items {
			m.Store(it)
		}
		if got := m.Stats().SpilledLive; got < 4 || got > 16 {
			b.Fatalf("%d items on disk, want about 8", got)
		}
		m.Scan("t", f)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Scan("t", f)
		}
		perItem(b)
	})
	if visited == 0 {
		b.Fatal("nothing scanned")
	}
}
