package storage

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

type payload struct{ size int }

func (p payload) WireSize() int { return p.size }

type clock struct{ t time.Time }

func (c *clock) now() time.Time { return c.t }

func newTestManager() (*Manager, *clock) {
	c := &clock{t: time.Unix(0, 0)}
	return New(c.now), c
}

func item(ns, rid string, iid int64, exp time.Time) *Item {
	return &Item{Namespace: ns, ResourceID: rid, InstanceID: iid, Payload: payload{10}, Expires: exp}
}

func TestStoreRetrieveRemove(t *testing.T) {
	m, c := newTestManager()
	exp := c.t.Add(time.Hour)
	m.Store(item("r", "k1", 1, exp))
	m.Store(item("r", "k1", 2, exp))
	m.Store(item("r", "k2", 1, exp))

	got := m.Retrieve("r", "k1")
	if len(got) != 2 {
		t.Fatalf("Retrieve returned %d items, want 2", len(got))
	}
	if got[0].InstanceID != 1 || got[1].InstanceID != 2 {
		t.Fatalf("unexpected order %v", got)
	}
	if !m.Remove("r", "k1", 1) {
		t.Fatal("Remove returned false for existing item")
	}
	if m.Remove("r", "k1", 1) {
		t.Fatal("Remove returned true for missing item")
	}
	if len(m.Retrieve("r", "k1")) != 1 {
		t.Fatal("item not removed")
	}
	if m.TotalLen() != 2 {
		t.Fatalf("TotalLen = %d, want 2", m.TotalLen())
	}
}

func TestStoreReplacesSameIdentity(t *testing.T) {
	m, c := newTestManager()
	m.Store(item("r", "k", 1, c.t.Add(time.Minute)))
	m.Store(item("r", "k", 1, c.t.Add(2*time.Minute)))
	if m.TotalLen() != 1 {
		t.Fatalf("TotalLen = %d, want 1 after replace", m.TotalLen())
	}
	got := m.Retrieve("r", "k")
	if len(got) != 1 || !got[0].Expires.Equal(c.t.Add(2*time.Minute)) {
		t.Fatalf("replace did not extend lifetime: %+v", got)
	}
}

func TestExpiryLazyOnRetrieve(t *testing.T) {
	m, c := newTestManager()
	m.Store(item("r", "k", 1, c.t.Add(time.Minute)))
	c.t = c.t.Add(2 * time.Minute)
	if got := m.Retrieve("r", "k"); len(got) != 0 {
		t.Fatalf("expired item returned: %v", got)
	}
}

func TestSweepExpiredAndRenewSkipsStaleEntries(t *testing.T) {
	m, c := newTestManager()
	m.Store(item("r", "a", 1, c.t.Add(time.Minute)))
	m.Store(item("r", "b", 1, c.t.Add(3*time.Minute)))
	// Renew "a" before it expires.
	m.Store(item("r", "a", 1, c.t.Add(5*time.Minute)))

	c.t = c.t.Add(2 * time.Minute)
	removed := m.SweepExpired()
	if len(removed) != 0 {
		t.Fatalf("sweep removed %v; renewed item must survive", removed)
	}
	c.t = c.t.Add(2 * time.Minute) // t = 4min: "b" expired, "a" lives to 5min
	removed = m.SweepExpired()
	if len(removed) != 1 || removed[0].ResourceID != "b" {
		t.Fatalf("sweep removed %v, want just b", removed)
	}
	if len(m.Retrieve("r", "a")) != 1 {
		t.Fatal("renewed item lost")
	}
}

func TestNamespaceLifecycle(t *testing.T) {
	m, c := newTestManager()
	if n := m.Namespaces(); len(n) != 0 {
		t.Fatalf("namespaces = %v, want none", n)
	}
	m.Store(item("intrusions", "f1", 1, c.t.Add(time.Minute)))
	if n := m.Namespaces(); len(n) != 1 || n[0] != "intrusions" {
		t.Fatalf("namespaces = %v", n)
	}
	// Implicit destruction when the last item goes (§3.2.3).
	c.t = c.t.Add(2 * time.Minute)
	m.SweepExpired()
	if n := m.Namespaces(); len(n) != 0 {
		t.Fatalf("namespace not destroyed after last expiry: %v", n)
	}
}

func TestScanVisitsOnlyLiveItemsOfNamespace(t *testing.T) {
	m, c := newTestManager()
	m.Store(item("r", "a", 1, c.t.Add(time.Minute)))
	m.Store(item("r", "b", 1, c.t.Add(time.Hour)))
	m.Store(item("s", "c", 1, c.t.Add(time.Hour)))
	c.t = c.t.Add(30 * time.Minute)
	var seen []string
	m.Scan("r", func(it *Item) bool {
		seen = append(seen, it.ResourceID)
		return true
	})
	if len(seen) != 1 || seen[0] != "b" {
		t.Fatalf("scan saw %v, want [b]", seen)
	}
}

func TestScanEarlyStop(t *testing.T) {
	m, c := newTestManager()
	for i := 0; i < 10; i++ {
		m.Store(item("r", fmt.Sprint(i), 1, c.t.Add(time.Hour)))
	}
	n := 0
	m.Scan("r", func(*Item) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("scan visited %d items after early stop, want 3", n)
	}
}

func TestNextExpiry(t *testing.T) {
	m, c := newTestManager()
	if _, ok := m.NextExpiry(); ok {
		t.Fatal("empty manager reported a next expiry")
	}
	m.Store(item("r", "a", 1, c.t.Add(2*time.Minute)))
	m.Store(item("r", "b", 1, c.t.Add(1*time.Minute)))
	at, ok := m.NextExpiry()
	if !ok || !at.Equal(c.t.Add(time.Minute)) {
		t.Fatalf("NextExpiry = %v,%v", at, ok)
	}
	// Renewing b invalidates its heap entry.
	m.Store(item("r", "b", 1, c.t.Add(10*time.Minute)))
	at, ok = m.NextExpiry()
	if !ok || !at.Equal(c.t.Add(2*time.Minute)) {
		t.Fatalf("NextExpiry after renew = %v,%v, want a's 2min", at, ok)
	}
}

func TestZeroExpiryMeansImmortal(t *testing.T) {
	m, c := newTestManager()
	m.Store(&Item{Namespace: "r", ResourceID: "a", InstanceID: 1, Payload: payload{1}})
	c.t = c.t.Add(1000 * time.Hour)
	if len(m.Retrieve("r", "a")) != 1 {
		t.Fatal("zero-expiry item vanished")
	}
	if got := m.SweepExpired(); len(got) != 0 {
		t.Fatalf("sweep removed immortal item: %v", got)
	}
}

func TestItemKeyMatchesNamingScheme(t *testing.T) {
	a := item("ns", "rid", 1, time.Time{})
	b := item("ns", "rid", 2, time.Time{})
	c := item("ns", "other", 1, time.Time{})
	if a.Key() != b.Key() {
		t.Fatal("items with same namespace+resourceID must share a key")
	}
	if a.Key() == c.Key() {
		t.Fatal("different resourceIDs must hash differently")
	}
}

func TestWireSize(t *testing.T) {
	it := &Item{Namespace: "ns", ResourceID: "rid", InstanceID: 1, Payload: payload{100}}
	// tag, two length-prefixed strings, instanceID, zero-expiry flag, and
	// the untagged payload at its own literal size.
	want := 1 + (1 + 2) + (1 + 3) + 1 + 1 + 100
	if it.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", it.WireSize(), want)
	}
}

func TestStoreRetrieveProperty(t *testing.T) {
	// Property: after any sequence of stores and removes, Retrieve
	// returns exactly the surviving identities.
	check := func(ops []struct {
		RID    uint8
		IID    uint8
		Remove bool
	}) bool {
		m, c := newTestManager()
		ref := map[[2]int]bool{}
		for _, op := range ops {
			rid, iid := int(op.RID%8), int64(op.IID%4)
			key := [2]int{rid, int(iid)}
			if op.Remove {
				got := m.Remove("t", fmt.Sprint(rid), iid)
				if got != ref[key] {
					return false
				}
				delete(ref, key)
			} else {
				m.Store(item("t", fmt.Sprint(rid), iid, c.t.Add(time.Hour)))
				ref[key] = true
			}
		}
		total := 0
		for rid := 0; rid < 8; rid++ {
			got := m.Retrieve("t", fmt.Sprint(rid))
			for _, it := range got {
				if !ref[[2]int{rid, int(it.InstanceID)}] {
					return false
				}
			}
			total += len(got)
		}
		return total == len(ref) && m.TotalLen() == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
