package storage

// The conformance suite: every behavior the provider relies on — store,
// replace-is-renew, lazy expiry, sweep, deterministic scan order, and
// byte accounting exact to WireSize — checked identically against the
// three configurations of the one Manager through one harness.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// wideQuota is a quota so generous that behavior under it must match
// the unbounded manager exactly.
var wideQuota = QuotaConfig{DefaultQuota: 1 << 30}

// forEachStore runs f once per configuration, each with a fresh manager
// and its own fake clock.
func forEachStore(t *testing.T, f func(t *testing.T, s *Manager, c *clock)) {
	t.Helper()
	forEachStoreWith(t, wideQuota, f)
}

// forEachStoreWith runs f against the unbounded manager ("manager"),
// one under the quota cfg ("bounded"), and one under cfg with a spill
// log ("spill").
func forEachStoreWith(t *testing.T, cfg QuotaConfig, f func(t *testing.T, s *Manager, c *clock)) {
	t.Helper()
	for _, name := range []string{"manager", "bounded", "spill"} {
		name := name
		t.Run(name, func(t *testing.T) {
			c := &clock{t: time.Unix(0, 0)}
			switch name {
			case "manager":
				f(t, New(c.now), c)
			case "bounded":
				f(t, openTest(t, c, cfg, ""), c)
			case "spill":
				f(t, openTest(t, c, cfg, t.TempDir()), c)
			}
		})
	}
}

// openTest opens a manager on the fake clock, closed with the test.
func openTest(t *testing.T, c *clock, cfg QuotaConfig, spillDir string) *Manager {
	t.Helper()
	m, err := Open(c.now, cfg, spillDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestConformanceStoreRetrieveRemove(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		exp := c.t.Add(time.Hour)
		s.Store(item("r", "k1", 2, exp))
		s.Store(item("r", "k1", 1, exp))
		s.Store(item("r", "k2", 1, exp))
		got := s.Retrieve("r", "k1")
		if len(got) != 2 || got[0].InstanceID != 1 || got[1].InstanceID != 2 {
			t.Fatalf("Retrieve = %v, want iids [1 2]", got)
		}
		if !s.Remove("r", "k1", 1) || s.Remove("r", "k1", 1) {
			t.Fatal("Remove must report existence exactly once")
		}
		if s.TotalLen() != 2 || s.Len("r") != 2 {
			t.Fatalf("TotalLen=%d Len=%d, want 2,2", s.TotalLen(), s.Len("r"))
		}
	})
}

func TestConformanceReplaceIsRenew(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		s.Store(item("r", "k", 1, c.t.Add(time.Minute)))
		s.Store(item("r", "k", 1, c.t.Add(10*time.Minute)))
		if s.TotalLen() != 1 {
			t.Fatalf("TotalLen = %d after replace, want 1", s.TotalLen())
		}
		c.t = c.t.Add(5 * time.Minute)
		if swept := s.SweepExpired(); len(swept) != 0 {
			t.Fatalf("sweep removed renewed item: %v", swept)
		}
		got := s.Retrieve("r", "k")
		if len(got) != 1 || !got[0].Expires.Equal(time.Unix(0, 0).Add(10*time.Minute)) {
			t.Fatalf("renew did not extend lifetime: %v", got)
		}
	})
}

func TestConformanceExpiry(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		s.Store(item("r", "a", 1, c.t.Add(time.Minute)))
		s.Store(item("r", "b", 1, c.t.Add(time.Hour)))
		s.Store(&Item{Namespace: "r", ResourceID: "imm", InstanceID: 1, Payload: payload{5}})
		at, ok := s.NextExpiry()
		if !ok || !at.Equal(c.t.Add(time.Minute)) {
			t.Fatalf("NextExpiry = %v,%v", at, ok)
		}
		c.t = c.t.Add(2 * time.Minute)
		if got := s.Retrieve("r", "a"); len(got) != 0 {
			t.Fatalf("expired item returned: %v", got)
		}
		swept := s.SweepExpired()
		if len(swept) != 1 || swept[0].ResourceID != "a" {
			t.Fatalf("sweep = %v, want just a", swept)
		}
		c.t = c.t.Add(1000 * time.Hour)
		s.SweepExpired()
		if len(s.Retrieve("r", "imm")) != 1 {
			t.Fatal("immortal item vanished")
		}
	})
}

func TestConformanceScanOrderDeterministic(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		r := rand.New(rand.NewSource(7))
		var want []string
		for _, rid := range []string{"a", "b", "c", "d"} {
			for iid := int64(0); iid < 3; iid++ {
				want = append(want, fmt.Sprintf("%s/%d", rid, iid))
			}
		}
		perm := r.Perm(len(want))
		for _, i := range perm {
			rid := want[i][:1]
			var iid int64
			fmt.Sscanf(want[i][2:], "%d", &iid)
			s.Store(item("ns", rid, iid, c.t.Add(time.Hour)))
		}
		collect := func() []string {
			var got []string
			s.Scan("ns", func(it *Item) bool {
				got = append(got, fmt.Sprintf("%s/%d", it.ResourceID, it.InstanceID))
				return true
			})
			return got
		}
		first := collect()
		if fmt.Sprint(first) != fmt.Sprint(want) {
			t.Fatalf("scan order = %v, want sorted %v", first, want)
		}
		if second := collect(); fmt.Sprint(second) != fmt.Sprint(first) {
			t.Fatalf("scan order changed between runs: %v vs %v", first, second)
		}
		// ScanAll covers namespaces in sorted order with early stop.
		s.Store(item("aa", "z", 1, c.t.Add(time.Hour)))
		var all []string
		s.ScanAll(func(it *Item) bool {
			all = append(all, it.Namespace+"/"+it.ResourceID)
			return len(all) < 3
		})
		if len(all) != 3 || all[0] != "aa/z" {
			t.Fatalf("ScanAll = %v, want aa first and early stop at 3", all)
		}
	})
}

func TestConformanceUsageExactToWireSize(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		sized := func(ns, rid string, iid int64, size int, exp time.Time) *Item {
			return &Item{Namespace: ns, ResourceID: rid, InstanceID: iid, Payload: payload{size}, Expires: exp}
		}
		a := sized("x", "k", 1, 100, c.t.Add(time.Minute))
		b := sized("x", "k", 2, 50, time.Time{})
		d := sized("y", "k", 1, 30, c.t.Add(time.Hour))
		s.Store(a)
		s.Store(b)
		s.Store(d)
		want := int64(a.WireSize() + b.WireSize() + d.WireSize())
		u := s.Usage()
		if u.Bytes != want {
			t.Fatalf("Usage.Bytes = %d, want %d", u.Bytes, want)
		}
		if u.ByNamespace["x"] != int64(a.WireSize()+b.WireSize()) || u.ByNamespace["y"] != int64(d.WireSize()) {
			t.Fatalf("per-namespace usage = %v", u.ByNamespace)
		}
		// Replace charges the delta, not the sum.
		b2 := sized("x", "k", 2, 500, time.Time{})
		s.Store(b2)
		want += int64(b2.WireSize() - b.WireSize())
		if got := s.Usage().Bytes; got != want {
			t.Fatalf("Usage.Bytes after replace = %d, want %d", got, want)
		}
		// Remove and sweep both release their bytes.
		s.Remove("y", "k", 1)
		want -= int64(d.WireSize())
		c.t = c.t.Add(2 * time.Minute)
		s.SweepExpired()
		want -= int64(a.WireSize())
		u = s.Usage()
		if u.Bytes != want {
			t.Fatalf("Usage.Bytes after remove+sweep = %d, want %d", u.Bytes, want)
		}
		if _, ok := u.ByNamespace["y"]; ok {
			t.Fatal("emptied namespace still charged")
		}
	})
}

func TestConformanceStatsZeroWithoutPressure(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		for i := 0; i < 20; i++ {
			s.Store(item("r", fmt.Sprint(i), 1, c.t.Add(time.Hour)))
		}
		st := s.Stats()
		if st.ItemsEvicted != 0 || st.PutsDropped != 0 || st.ItemsSpilled != 0 || st.SpilledLive != 0 {
			t.Fatalf("unbounded workload produced pressure stats: %+v", st)
		}
	})
}

// TestConformanceProperty model-checks random op sequences (store,
// remove, clock advance + sweep) against a reference map, asserting
// retrieval sets, item counts, and byte accounting stay exact.
func TestConformanceProperty(t *testing.T) {
	forEachStore(t, func(t *testing.T, s *Manager, c *clock) {
		type modelItem struct {
			size    int
			expires time.Time
		}
		model := map[[2]int]modelItem{}
		start := c.t
		step := 0
		// scanMatches compares a Scan with the model's live items in
		// sorted order (rids and iids are single digits, so string order
		// is (rid, iid) order).
		scanMatches := func() bool {
			var want []string
			for k, mi := range model {
				if mi.expires.IsZero() || mi.expires.After(c.t) {
					want = append(want, fmt.Sprintf("%d/%d", k[0], k[1]))
				}
			}
			sort.Strings(want)
			return fmt.Sprint(scanIDs(s, "p", nil)) == fmt.Sprint(want)
		}
		check := func(ops []struct {
			RID, IID, Op, Size uint8
		}) bool {
			for _, op := range ops {
				// A scan between two steps in about one of three: after
				// stores (fresh slots to fold in), after removes (emptied
				// slots), after a sweep, and twice in a row.
				if op.Size%3 == 0 && !scanMatches() {
					return false
				}
				rid, iid := int(op.RID%6), int64(op.IID%3)
				key := [2]int{rid, int(iid)}
				switch op.Op % 5 {
				case 0, 1: // store with lifetime
					exp := c.t.Add(time.Duration(30+op.Size%60) * time.Minute)
					it := &Item{Namespace: "p", ResourceID: fmt.Sprint(rid), InstanceID: iid,
						Payload: payload{int(op.Size)}, Expires: exp}
					s.Store(it)
					model[key] = modelItem{size: it.WireSize(), expires: exp}
				case 2: // store immortal
					it := &Item{Namespace: "p", ResourceID: fmt.Sprint(rid), InstanceID: iid,
						Payload: payload{int(op.Size)}}
					s.Store(it)
					model[key] = modelItem{size: it.WireSize()}
				case 3: // remove
					want := false
					if _, ok := model[key]; ok {
						want = true
						delete(model, key)
					}
					if s.Remove("p", fmt.Sprint(rid), iid) != want {
						return false
					}
				case 4: // advance and sweep
					c.t = c.t.Add(20 * time.Minute)
					s.SweepExpired()
					for k, mi := range model {
						if !mi.expires.IsZero() && !mi.expires.After(c.t) {
							delete(model, k)
						}
					}
				}
			}
			var wantBytes int64
			for _, mi := range model {
				wantBytes += int64(mi.size)
			}
			if s.Usage().Bytes != wantBytes || s.TotalLen() != len(model) || s.Len("p") != len(model) {
				return false
			}
			if !scanMatches() {
				return false
			}
			for rid := 0; rid < 6; rid++ {
				got := s.Retrieve("p", fmt.Sprint(rid))
				live := 0
				for iid := 0; iid < 3; iid++ {
					mi, ok := model[[2]int{rid, iid}]
					if ok && (mi.expires.IsZero() || mi.expires.After(c.t)) {
						live++
					}
				}
				if len(got) != live {
					return false
				}
			}
			step++
			return true
		}
		// One long-lived store per impl across iterations: the model
		// persists, so accounting errors accumulate and surface.
		cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(int64(11)))}
		if err := quick.Check(check, cfg); err != nil {
			t.Fatalf("after %d sequences from %v: %v", step, start, err)
		}
	})
}
