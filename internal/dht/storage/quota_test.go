package storage

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/env"
)

func newTestBounded(cfg QuotaConfig) (*Manager, *clock) {
	c := &clock{t: time.Unix(0, 0)}
	m, _ := Open(c.now, cfg, "") // no spill log: nothing to fail
	return m, c
}

// probeExpiry gives a size probe the encoded width of the expiries the
// tests store (an hour to a hundred hours past the test clock's epoch: a
// seven-byte varint; an immortal item's zero flag is one byte).
var probeExpiry = time.Unix(0, 0).Add(time.Hour)

func sizedItem(ns, rid string, iid int64, size int, exp time.Time) *Item {
	return &Item{Namespace: ns, ResourceID: rid, InstanceID: iid, Payload: payload{size}, Expires: exp}
}

func TestBoundedEvictsExpiredFirst(t *testing.T) {
	// All rids are 4 chars so the live items have identical WireSize and
	// the quota fits exactly three of them.
	probe := sizedItem("r", "xxxx", 0, 10, probeExpiry)
	quota := int64(3 * probe.WireSize())
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	b.Store(sizedItem("r", "dead", 1, 10, c.t.Add(time.Minute)))
	b.Store(sizedItem("r", "live", 1, 10, c.t.Add(time.Hour)))
	c.t = c.t.Add(2 * time.Minute) // "dead" expires but is not swept
	b.Store(sizedItem("r", "aaaa", 1, 10, c.t.Add(time.Hour)))
	b.Store(sizedItem("r", "bbbb", 1, 10, c.t.Add(time.Hour)))
	// Four items ≈ quota+1: the expired one is reclaimed instead of a
	// live victim.
	if len(b.Retrieve("r", "live")) != 1 || len(b.Retrieve("r", "aaaa")) != 1 || len(b.Retrieve("r", "bbbb")) != 1 {
		t.Fatal("live item evicted while an expired item was reclaimable")
	}
	if b.Stats().ItemsEvicted != 0 {
		t.Fatalf("expiry reclamation counted as eviction: %+v", b.Stats())
	}
}

func TestBoundedEvictsNearestToExpiry(t *testing.T) {
	probe := sizedItem("r", "xxxx", 0, 10, probeExpiry)
	quota := int64(2 * probe.WireSize())
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	b.Store(sizedItem("r", "far0", 1, 10, c.t.Add(10*time.Hour)))
	b.Store(sizedItem("r", "near", 1, 10, c.t.Add(time.Hour)))
	b.Store(sizedItem("r", "mid0", 1, 10, c.t.Add(5*time.Hour)))
	if len(b.Retrieve("r", "near")) != 0 {
		t.Fatal("nearest-to-expiry item survived over-quota store")
	}
	if len(b.Retrieve("r", "far0")) != 1 || len(b.Retrieve("r", "mid0")) != 1 {
		t.Fatal("wrong victim: far/mid should survive")
	}
	st := b.Stats()
	if st.ItemsEvicted != 1 || st.EvictedByNS["r"] != 1 {
		t.Fatalf("stats = %+v, want 1 eviction in r", st)
	}
}

func TestBoundedImmortalLRUAndRenewRefreshes(t *testing.T) {
	probe := sizedItem("r", "x", 0, 10, time.Time{})
	quota := int64(2 * probe.WireSize())
	b, _ := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	b.Store(sizedItem("r", "a", 1, 10, time.Time{}))
	b.Store(sizedItem("r", "b", 1, 10, time.Time{}))
	// Renewing "a" makes "b" the coldest immortal item.
	b.Store(sizedItem("r", "a", 1, 10, time.Time{}))
	b.Store(sizedItem("r", "c", 1, 10, time.Time{}))
	if len(b.Retrieve("r", "b")) != 0 {
		t.Fatal("coldest immortal item was not the LRU victim")
	}
	if len(b.Retrieve("r", "a")) != 1 || len(b.Retrieve("r", "c")) != 1 {
		t.Fatal("renewed/new items must survive")
	}
}

func TestBoundedExpiringEvictedBeforeImmortal(t *testing.T) {
	probe := sizedItem("r", "xxx", 0, 10, time.Time{})
	quota := int64(2 * probe.WireSize())
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	b.Store(sizedItem("r", "imm", 1, 10, time.Time{}))
	b.Store(sizedItem("r", "exp", 1, 10, c.t.Add(100*time.Hour)))
	b.Store(sizedItem("r", "new", 1, 10, time.Time{}))
	if len(b.Retrieve("r", "exp")) != 0 {
		t.Fatal("expiring item must be evicted before immortal state")
	}
	if len(b.Retrieve("r", "imm")) != 1 {
		t.Fatal("immortal item evicted while an expiring one remained")
	}
}

func TestBoundedIncomingItemCanBeDropped(t *testing.T) {
	probe := sizedItem("r", "x", 0, 10, probeExpiry)
	quota := int64(2 * probe.WireSize())
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	b.Store(sizedItem("r", "a", 1, 10, c.t.Add(10*time.Hour)))
	b.Store(sizedItem("r", "b", 1, 10, c.t.Add(10*time.Hour)))
	// The incoming item expires soonest, so it is its own victim.
	b.Store(sizedItem("r", "soon", 1, 10, c.t.Add(time.Minute)))
	if len(b.Retrieve("r", "soon")) != 0 {
		t.Fatal("soonest-expiring incoming item should have been dropped")
	}
	st := b.Stats()
	if st.PutsDropped != 1 || st.ItemsEvicted != 0 {
		t.Fatalf("stats = %+v, want exactly one dropped put", st)
	}
}

func TestBoundedReservedNamespacesExemptFromDefaultQuota(t *testing.T) {
	probe := sizedItem("pier.stats", "x", 0, 10, time.Time{})
	quota := int64(probe.WireSize()) // default quota fits one item
	b, c := newTestBounded(QuotaConfig{DefaultQuota: quota})
	for i := int64(0); i < 10; i++ {
		b.Store(sizedItem("pier.stats", fmt.Sprint(i), i, 10, c.t.Add(time.Hour)))
		b.Store(sizedItem("pier.index.def", fmt.Sprint(i), i, 10, c.t.Add(time.Hour)))
	}
	if b.Len("pier.stats") != 10 || b.Len("pier.index.def") != 10 {
		t.Fatalf("reserved catalogs evicted under default quota: stats=%d defs=%d",
			b.Len("pier.stats"), b.Len("pier.index.def"))
	}
	if b.Stats().ItemsEvicted != 0 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestBoundedNeverExceedsQuota(t *testing.T) {
	quota := int64(500)
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": quota}})
	for i := int64(0); i < 200; i++ {
		b.Store(sizedItem("r", fmt.Sprint(i%17), i%3, int(i%90)+5, c.t.Add(time.Duration(i%7+1)*time.Minute)))
		if got := b.Usage().ByNamespace["r"]; got > quota {
			t.Fatalf("after store %d: usage %d exceeds quota %d", i, got, quota)
		}
		if i%20 == 19 {
			c.t = c.t.Add(time.Minute)
		}
	}
}

func TestBoundedOverHighWater(t *testing.T) {
	probe := sizedItem("r", "x", 0, 80, probeExpiry)
	one := int64(probe.WireSize())
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": 4 * one}})
	if b.OverHighWater("r") {
		t.Fatal("empty namespace over high water")
	}
	for i := int64(0); i < 3; i++ {
		b.Store(sizedItem("r", fmt.Sprint(i), i, 80, c.t.Add(time.Hour)))
	}
	// 3/4 = 0.75 < 0.85 default high water.
	if b.OverHighWater("r") {
		t.Fatal("over high water below the threshold")
	}
	b.Store(sizedItem("r", "3", 3, 80, c.t.Add(time.Hour)))
	if !b.OverHighWater("r") {
		t.Fatal("full namespace not over high water")
	}
	if b.OverHighWater("pier.stats") {
		t.Fatal("reserved namespace reported pressure")
	}
	if b.OverHighWater("other") {
		t.Fatal("unbounded namespace reported pressure")
	}
}

func TestBoundedEvictionDeterministic(t *testing.T) {
	// The schedule is observed from outside: after every store, which of
	// the identities the store held before it are gone.
	run := func() []string {
		b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": 400}})
		held := func() map[string]bool {
			ids := map[string]bool{}
			b.ScanAll(func(it *Item) bool {
				ids[fmt.Sprintf("%s/%d", it.ResourceID, it.InstanceID)] = true
				return true
			})
			return ids
		}
		var evicted []string
		for i := int64(0); i < 100; i++ {
			exp := time.Time{}
			if i%3 != 0 {
				exp = c.t.Add(time.Duration(i%11+1) * time.Minute)
			}
			before := held()
			b.Store(sizedItem("r", fmt.Sprint(i%13), i%5, int(i%60)+10, exp))
			after := held()
			for _, id := range env.SortedKeys(before) {
				if !after[id] {
					evicted = append(evicted, fmt.Sprintf("%d:%s", i, id))
				}
			}
			if i%25 == 24 {
				c.t = c.t.Add(90 * time.Second)
			}
		}
		return evicted
	}
	a, bb := run(), run()
	if len(a) == 0 {
		t.Fatal("workload produced no evictions; test is vacuous")
	}
	if fmt.Sprint(a) != fmt.Sprint(bb) {
		t.Fatalf("eviction schedule not deterministic:\n%v\n%v", a, bb)
	}
}

// TestBoundedVictimHeapStaysBounded: a namespace that never goes over
// quota never pops its victim heap, so steady renews must not grow it —
// nor keep the replaced and expired items reachable through it.
func TestBoundedVictimHeapStaysBounded(t *testing.T) {
	const items, renews = 50, 2000
	b, c := newTestBounded(QuotaConfig{Quotas: map[string]int64{"r": 1 << 30}})
	for round := 0; round < renews; round++ {
		c.t = c.t.Add(time.Second)
		for i := int64(0); i < items; i++ {
			b.Store(sizedItem("r", fmt.Sprint(i), i, 10, c.t.Add(time.Minute)))
		}
		b.SweepExpired() // the provider's expiry timer; nothing is due
		if n := b.quota.victims["r"].Len(); n > 2*items+64 {
			t.Fatalf("round %d: victim heap holds %d entries for %d live items", round, n, items)
		}
	}
	if st := b.Stats(); st.ItemsEvicted != 0 || st.PutsDropped != 0 {
		t.Fatalf("namespace went over quota, test is vacuous: %+v", st)
	}
	c.t = c.t.Add(time.Hour)
	if swept := b.SweepExpired(); len(swept) != items {
		t.Fatalf("swept %d items, want %d", len(swept), items)
	}
	if h := b.quota.victims["r"]; h != nil {
		t.Fatalf("victim heap still holds %d entries for an empty namespace", h.Len())
	}
}
