// Package storage implements the paper's storage manager (§3.2.2,
// Table 2): temporary storage for DHT-based data while the node is
// connected. Every item carries a lifetime; soft state means an item not
// renewed within its lifetime is deleted (§3.2.3).
//
// There is one store, Manager, over one index: namespace, resourceID,
// instances, kept in scan order. New returns it as the paper describes
// it, unbounded and in main memory. Open attaches up to two optional
// parts: a quota (quota.go), which evicts soft state instead of growing
// without bound, and a spill log (spill.go), which keeps what the quota
// evicts on disk instead of discarding it. An item on disk keeps its
// index entry — identity and expiry in memory, the payload a reference
// into the log — so every read is the same walk of the same index, plus
// a load for the entries that are on disk.
package storage

import (
	"cmp"
	"container/heap"
	"maps"
	"slices"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/wire"
)

// Item is one stored object, named by the paper's
// (namespace, resourceID, instanceID) scheme (§3.2.3). The namespace
// identifies the relation, the resourceID usually carries the primary
// key or join attribute value, and the instanceID separates items that
// share both.
type Item struct {
	Namespace  string
	ResourceID string
	InstanceID int64
	Payload    env.Message
	Expires    time.Time
}

// Key returns the DHT key the item is stored under.
func (it *Item) Key() dht.Key { return dht.KeyOf(it.Namespace, it.ResourceID) }

// WireSize implements env.Message so items can ride in put/get/transfer
// messages.
func (it *Item) WireSize() int { return wire.Size(it) }

// Manager is the per-node soft-state store (§3.2.2–§3.2.3): items carry
// lifetimes, a re-Store of the same (namespace, resourceID, instanceID)
// is a renew, and unrenewed items expire.
//
// Locking contract: a Manager is NOT internally synchronized. It is
// confined to its node's event loop — every call site (provider
// puts/gets/handoff, index maintenance, stats refresh) runs as an event
// on that loop. The engine's sharded result dispatch
// (internal/core/dispatch.go) processes only result and credit frames
// on its shards and never touches storage, so event-loop confinement
// holds even with DispatchShards > 1. Cross-thread access must go
// through the node's event queue (e.g. Session.Do on real nodes).
type Manager struct {
	now    func() time.Time
	spaces map[string]*space
	exp    expHeap
	count  int
	bytes  int64
	quota  *quota    // nil: unbounded
	log    *spillLog // nil: what the quota evicts is discarded
}

// Usage is a point-in-time byte occupancy report. ByNamespace is a
// fresh copy per call; callers may keep or mutate it.
type Usage struct {
	// Bytes is total in-memory occupancy across namespaces.
	Bytes int64
	// ByNamespace maps namespace -> in-memory bytes.
	ByNamespace map[string]int64
}

// Stats counts what a store under a quota has forgotten or displaced.
// Without a quota nothing is ever evicted and every field is zero. The
// JSON names are part of the admin plane's REST contract.
type Stats struct {
	// ItemsEvicted counts items evicted to enforce a quota (not
	// counting normal lifetime expiry).
	ItemsEvicted int64 `json:"items_evicted"`
	// BytesEvicted is the WireSize sum of evicted items.
	BytesEvicted int64 `json:"bytes_evicted"`
	// ItemsSpilled counts evictions that were written to the spill log
	// instead of discarded.
	ItemsSpilled int64 `json:"items_spilled"`
	// BytesSpilled is the WireSize sum of spilled items.
	BytesSpilled int64 `json:"bytes_spilled"`
	// PutsDropped counts stores whose incoming item itself was the
	// eviction victim.
	PutsDropped int64 `json:"puts_dropped"`
	// SpilledLive is the current number of items resident on disk (a
	// gauge, unlike the cumulative counters above).
	SpilledLive int `json:"spilled_live_items"`
	// EvictedByNS maps namespace -> items evicted from it (fresh copy
	// per call; nil without a quota).
	EvictedByNS map[string]int64 `json:"evicted_by_namespace"`
}

// space is one namespace's items, kept so that a scan is a walk and
// never a sort. slots finds a resourceID in O(1); order lists the slots
// sorted by resourceID as of the last merge; fresh is the unsorted tail
// of slots created since. A slot whose last instance was removed leaves
// slots at once but stays in order/fresh, empty, until the next merge
// (dead counts them). order's backing array is never written once
// published — merge builds a new one — so a scan walks the header it
// loaded at its start whatever its callback does to the store.
type space struct {
	slots map[string]*slot
	order []*slot
	fresh []*slot
	dead  int
	items int
	bytes int64
}

// slot holds the instances stored under one resourceID, sorted by
// instanceID. There is almost always exactly one, which lives in the
// slot itself (one) rather than in a second allocation.
type slot struct {
	rid   string
	insts []*Item
	one   [1]*Item
}

// find returns the index of the instance, or where it would be inserted.
func (sl *slot) find(iid int64) (int, bool) {
	lo, hi := 0, len(sl.insts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sl.insts[mid].InstanceID < iid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(sl.insts) && sl.insts[lo].InstanceID == iid
}

// after returns the index of the first instance above iid.
func (sl *slot) after(iid int64) int {
	i, ok := sl.find(iid)
	if ok {
		i++
	}
	return i
}

// minDead is the number of emptied slots below which a removal never
// triggers a merge.
const minDead = 64

// merge rebuilds order: the surviving slots of the old order and the
// sorted fresh tail, in one pass. Scan calls it when there are fresh
// slots, Remove when emptied slots outnumber live ones (a namespace
// that is never scanned must not keep them forever), so its cost is
// amortised over the stores and removes since the previous merge.
func (sp *space) merge() {
	fresh := sp.fresh[:0]
	for _, sl := range sp.fresh {
		if len(sl.insts) > 0 {
			fresh = append(fresh, sl)
		}
	}
	slices.SortFunc(fresh, func(a, b *slot) int { return cmp.Compare(a.rid, b.rid) })
	order := make([]*slot, 0, len(sp.slots))
	i := 0
	for _, sl := range sp.order {
		if len(sl.insts) == 0 {
			continue
		}
		for i < len(fresh) && fresh[i].rid < sl.rid {
			order = append(order, fresh[i])
			i++
		}
		order = append(order, sl)
	}
	sp.order = append(order, fresh[i:]...)
	sp.fresh, sp.dead = nil, 0
}

// New creates an unbounded, memory-only storage manager that reads the
// clock through now. Everything is allocated lazily at the first Store:
// most simulated nodes never hold an item, and a nil map reads as empty.
func New(now func() time.Time) *Manager {
	return &Manager{now: now}
}

// Open creates a storage manager with its optional parts attached:
// byte quotas if cfg sets any, and a spill log in the directory spillDir
// (created if missing, replayed if it holds a log) unless spillDir is
// empty. Without a directory there is nothing that can fail and the
// error is nil. A manager with a spill log must be Closed.
func Open(now func() time.Time, cfg QuotaConfig, spillDir string) (*Manager, error) {
	m := New(now)
	m.quota = newQuota(cfg)
	if spillDir != "" {
		if err := m.openLog(spillDir); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Close closes the spill log, if there is one. The manager must not be
// used afterwards.
func (m *Manager) Close() error {
	if m.log == nil {
		return nil
	}
	return m.log.f.Close()
}

// Store inserts the item, replacing any existing item with the same
// (namespace, resourceID, instanceID) — which is exactly what a renew
// does (§3.2.3). A new resourceID costs a map insert and an append; a
// renew touches neither order nor fresh. Under a quota the store then
// evicts from the item's namespace — possibly the item itself — until
// it fits again; a renew of an item on disk brings it back to memory.
func (m *Manager) Store(it *Item) {
	old := m.put(it)
	if m.quota != nil {
		m.pushVictim(it)
	}
	if old != nil {
		m.forget(old)
	}
	if m.quota != nil {
		m.enforce(it)
	}
}

// put links the item into the index, returning the entry of the same
// identity it replaced, if any, and queues its expiry.
func (m *Manager) put(it *Item) (old *Item) {
	sp := m.spaces[it.Namespace]
	if sp == nil {
		// Namespaces are created implicitly when the first item is put.
		if m.spaces == nil {
			m.spaces = make(map[string]*space)
		}
		sp = &space{slots: make(map[string]*slot)}
		m.spaces[it.Namespace] = sp
	}
	sl := sp.slots[it.ResourceID]
	if sl == nil {
		sl = &slot{rid: it.ResourceID}
		sl.insts = sl.one[:0]
		sp.slots[it.ResourceID] = sl
		sp.fresh = append(sp.fresh, sl)
	}
	size := charge(it)
	if i, ok := sl.find(it.InstanceID); ok {
		old = sl.insts[i]
		size -= charge(old)
		sl.insts[i] = it
	} else {
		sl.insts = slices.Insert(sl.insts, i, it)
		m.count++
		sp.items++
	}
	sp.bytes += size
	m.bytes += size
	if !it.Expires.IsZero() {
		heap.Push(&m.exp, expEntry{at: it.Expires, it: it})
	}
	return old
}

// disk returns where the payload of an index entry lies in the spill
// log, or nil for an entry that is an item in memory.
func (it *Item) disk() *diskRef {
	ref, _ := it.Payload.(*diskRef)
	return ref
}

// charge is what an index entry counts for in Usage and against a
// quota: the item's WireSize, or nothing once its payload is on disk.
func charge(it *Item) int64 {
	if it.disk() != nil {
		return 0
	}
	return int64(it.WireSize())
}

// load returns the item an index entry stands for: the entry itself, or
// for an entry on disk the item read back from the log (nil if its
// record no longer reads).
func (m *Manager) load(it *Item) *Item {
	if it.disk() == nil {
		return it
	}
	return m.log.read(it)
}

// forget settles an entry that left the index by a replace, a remove or
// an expiry (an eviction pops its own victim): its victim-heap entry is
// stale now, or its record in the log dead.
func (m *Manager) forget(it *Item) {
	if ref := it.disk(); ref != nil {
		m.log.tombstone(it, ref)
		m.maybeCompact()
	} else if m.quota != nil {
		m.retire(it.Namespace)
	}
}

// Retrieve returns the live items stored under (namespace, resourceID),
// sorted by instanceID. Like any index get, it is key-based and may
// return multiple items.
func (m *Manager) Retrieve(namespace, resourceID string) []*Item {
	_, sl := m.slot(namespace, resourceID)
	if sl == nil {
		return nil
	}
	now := m.now()
	out := make([]*Item, 0, len(sl.insts))
	for _, it := range sl.insts {
		if it.expired(now) {
			continue
		}
		if it = m.load(it); it != nil {
			out = append(out, it)
		}
	}
	return out
}

// Remove deletes the item with the exact identity, reporting whether it
// existed.
func (m *Manager) Remove(namespace, resourceID string, instanceID int64) bool {
	sp, sl := m.slot(namespace, resourceID)
	if sl == nil {
		return false
	}
	i, ok := sl.find(instanceID)
	if !ok {
		return false
	}
	it := sl.insts[i]
	m.unlinkAt(sp, sl, i)
	m.forget(it)
	return true
}

// unlink takes the entry out of the index.
func (m *Manager) unlink(it *Item) {
	sp, sl := m.slot(it.Namespace, it.ResourceID)
	i, _ := sl.find(it.InstanceID)
	m.unlinkAt(sp, sl, i)
}

func (m *Manager) unlinkAt(sp *space, sl *slot, i int) {
	it := sl.insts[i]
	size := charge(it)
	sl.insts = slices.Delete(sl.insts, i, i+1)
	m.count--
	sp.items--
	sp.bytes -= size
	m.bytes -= size
	if len(sl.insts) > 0 {
		return
	}
	delete(sp.slots, sl.rid)
	if len(sp.slots) == 0 {
		// Namespaces are destroyed when the last item goes (§3.2.3).
		delete(m.spaces, it.Namespace)
	} else if sp.dead++; sp.dead >= minDead && sp.dead > len(sp.slots) {
		sp.merge()
	}
}

// Scan iterates the live local items of a namespace — the provider's
// lscan (§3.2.3) — in sorted (resourceID, instanceID) order. Iteration
// stops early if f returns false. The deterministic order matters:
// scans feed message-emitting paths (rehashes, handoffs, summaries),
// and a seed-replayable simulation needs identical send order per run.
// A scan of a namespace whose set of resourceIDs has not changed since
// the previous scan sorts nothing and, with nothing on disk, allocates
// nothing.
//
// f may call Store, Remove, Retrieve and Scan (of this or another
// namespace) on the same manager: a rehash puts from inside a scan,
// and a put under a quota evicts. Every item that was live when the
// scan started and is still stored, in memory or on disk, when its turn
// comes is visited exactly once, in order (a replaced item as its
// replacement); an item removed before its turn is not visited; an item
// stored during the scan under a resourceID the namespace did not hold
// is not visited, and one stored as a new instance of an existing
// resourceID may or may not be.
func (m *Manager) Scan(namespace string, f func(*Item) bool) {
	m.scanSpace(m.spaces[namespace], f)
}

// ScanAll iterates every live item across namespaces in sorted order
// (used for handoff after a location-map change).
func (m *Manager) ScanAll(f func(*Item) bool) {
	for _, ns := range m.Namespaces() {
		if !m.scanSpace(m.spaces[ns], f) {
			return
		}
	}
}

// scanSpace iterates one namespace's live items in sorted order under
// the re-entrancy contract of Scan, reporting false if f stopped it
// early.
func (m *Manager) scanSpace(sp *space, f func(*Item) bool) bool {
	if sp == nil {
		return true
	}
	if len(sp.fresh) > 0 {
		sp.merge()
	}
	now := m.now()
	for _, sl := range sp.order {
		for i := 0; i < len(sl.insts); {
			it := sl.insts[i]
			if !it.expired(now) {
				if v := m.load(it); v != nil && !f(v) {
					return false
				}
			}
			// f may have stored or removed instances of this resourceID:
			// resume after the one just visited, wherever it is now.
			if i < len(sl.insts) && sl.insts[i] == it {
				i++
			} else {
				i = sl.after(it.InstanceID)
			}
		}
	}
	return true
}

// Namespaces lists the namespaces with at least one item, sorted.
func (m *Manager) Namespaces() []string {
	return env.SortedKeys(m.spaces)
}

// Len returns the number of items (live or not yet swept, in memory or
// on disk) in a namespace.
func (m *Manager) Len(namespace string) int {
	if sp := m.spaces[namespace]; sp != nil {
		return sp.items
	}
	return 0
}

// TotalLen returns the number of items across all namespaces.
func (m *Manager) TotalLen() int { return m.count }

// Usage reports in-memory byte occupancy, charged at Item.WireSize (the
// simulator's byte model) and maintained incrementally on every
// store/replace/remove. Items on disk are not counted: they are exactly
// the bytes a quota pushed out of memory.
func (m *Manager) Usage() Usage {
	by := make(map[string]int64, len(m.spaces))
	for ns, sp := range m.spaces {
		by[ns] = sp.bytes
	}
	return Usage{Bytes: m.bytes, ByNamespace: by}
}

// Stats reports the cumulative eviction, drop and spill counters since
// the manager was created.
func (m *Manager) Stats() Stats {
	var s Stats
	if q := m.quota; q != nil {
		s = q.stats
		s.EvictedByNS = maps.Clone(s.EvictedByNS)
	}
	if l := m.log; l != nil {
		s.ItemsSpilled, s.BytesSpilled, s.SpilledLive = l.spilledItems, l.spilledBytes, l.live
	}
	return s
}

// nsBytes returns the bytes charged to a namespace.
func (m *Manager) nsBytes(namespace string) int64 {
	if sp := m.spaces[namespace]; sp != nil {
		return sp.bytes
	}
	return 0
}

// get returns the index entry with the exact identity, ignoring expiry.
func (m *Manager) get(namespace, resourceID string, instanceID int64) (*Item, bool) {
	if _, sl := m.slot(namespace, resourceID); sl != nil {
		if i, ok := sl.find(instanceID); ok {
			return sl.insts[i], true
		}
	}
	return nil, false
}

// slot returns the namespace and the slot holding the resourceID's
// instances; the slot is nil if there are none.
func (m *Manager) slot(namespace, resourceID string) (*space, *slot) {
	sp := m.spaces[namespace]
	if sp == nil {
		return nil, nil
	}
	return sp, sp.slots[resourceID]
}

// NextExpiry reports the earliest pending expiry time, if any.
func (m *Manager) NextExpiry() (time.Time, bool) {
	for len(m.exp) > 0 {
		e := m.exp[0]
		if m.current(e.it) {
			return e.at, true
		}
		heap.Pop(&m.exp) // stale entry from a replace/renew/remove
	}
	return time.Time{}, false
}

// SweepExpired removes every item whose lifetime has passed and returns
// them. Renewed items are skipped (their heap entries are stale).
func (m *Manager) SweepExpired() []*Item {
	now := m.now()
	var out []*Item
	for len(m.exp) > 0 {
		e := m.exp[0]
		if !m.current(e.it) {
			heap.Pop(&m.exp)
			continue
		}
		if e.at.After(now) {
			break
		}
		heap.Pop(&m.exp)
		it := m.load(e.it) // before the remove: its tombstone may compact the log
		m.Remove(e.it.Namespace, e.it.ResourceID, e.it.InstanceID)
		if it != nil {
			out = append(out, it)
		}
	}
	return out
}

// current reports whether the item a heap entry (of the expiry heap or
// a victim heap) was pushed for is still the index entry of its
// identity: a replace, a remove, an expiry or a spill leaves the entry
// behind, stale.
func (m *Manager) current(it *Item) bool {
	cur, ok := m.get(it.Namespace, it.ResourceID, it.InstanceID)
	return ok && cur == it
}

func (it *Item) expired(now time.Time) bool {
	return !it.Expires.IsZero() && !it.Expires.After(now)
}

type expEntry struct {
	at time.Time
	it *Item
}

type expHeap []expEntry

func (h expHeap) Len() int           { return len(h) }
func (h expHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h expHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x any)        { *h = append(*h, x.(expEntry)) }
func (h *expHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
