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
	"math"
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
// confined to its node's event loop, like every layer of the node
// stack — every call site (provider puts/gets/handoff, the query
// engine, index maintenance, stats refresh) runs as an event on that
// loop, on real nodes as in the simulator. Cross-thread access must go
// through the node's event queue (e.g. RealNode.Do).
type Manager struct {
	now    func() time.Time
	spaces map[string]*space
	exp    *itemHeap // every expiring index entry (nil until the first store of one)
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
		if m.exp == nil {
			m.exp = &itemHeap{}
		}
		m.exp.push(it)
	}
	if old != nil && !old.Expires.IsZero() {
		m.exp.retire(m.current)
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

// forget settles an entry that left the index by a replace, a remove, an
// expiry or a drop (an eviction pops its own victim): its victim-heap
// entry is stale now, or its record in the log dead.
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
	it, ok := m.get(namespace, resourceID, instanceID)
	if ok {
		m.unlink(it)
		m.forget(it)
	}
	return ok
}

// Drop removes every item of a namespace, in memory or on disk, as
// Remove would one by one, at a cost of O(items). A merge never writes
// a published order, so the walk is safe from the ones it triggers.
func (m *Manager) Drop(namespace string) {
	sp := m.spaces[namespace]
	if sp == nil {
		return
	}
	for _, sl := range append(slices.Clip(sp.order), sp.fresh...) {
		for n := len(sl.insts); n > 0; n = len(sl.insts) {
			it := sl.insts[n-1]
			m.unlinkAt(sp, sl, n-1)
			m.forget(it)
		}
	}
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
	if !it.Expires.IsZero() {
		m.exp.retire(m.current)
	}
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
	c := m.Cursor(namespace)
	c.Next(math.MaxInt, f)
}

// ScanAll iterates every live item across namespaces in sorted order
// (used for handoff after a location-map change).
func (m *Manager) ScanAll(f func(*Item) bool) {
	more := true
	g := func(it *Item) bool { more = f(it); return more }
	for _, ns := range m.Namespaces() {
		c := m.Cursor(ns)
		c.Next(math.MaxInt, g)
		if !more {
			return
		}
	}
}

// Cursor is a Scan that can pause between resourceIDs, under Scan's
// contract across the pauses too: it walks the order published when it
// was made, so an item removed (or expired, or dropped) before its turn
// is skipped, a replaced one is visited as its replacement, and a
// resourceID stored since is not visited.
type Cursor struct {
	m     *Manager
	order []*slot
	at    int // the next slot to visit
}

// Cursor returns a cursor before the namespace's first item.
func (m *Manager) Cursor(namespace string) Cursor {
	c := Cursor{m: m}
	if sp := m.spaces[namespace]; sp != nil {
		if len(sp.fresh) > 0 {
			sp.merge()
		}
		c.order = sp.order
	}
	return c
}

// Next visits the live items of up to n more resourceIDs and reports
// whether any remain: it pauses on the next resourceID still holding
// items. A false from f ends the walk.
func (c *Cursor) Next(n int, f func(*Item) bool) bool {
	now := c.m.now()
	for ; c.at < len(c.order); c.at++ {
		sl := c.order[c.at]
		if len(sl.insts) == 0 {
			continue
		}
		if n--; n < 0 {
			return true
		}
		for i := 0; i < len(sl.insts); {
			it := sl.insts[i]
			if !it.expired(now) {
				if v := c.m.load(it); v != nil && !f(v) {
					c.at = len(c.order)
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
	return false
}

// Namespaces lists the namespaces with at least one item, sorted.
func (m *Manager) Namespaces() []string {
	return env.SortedKeys(m.spaces)
}

// EachNamespace calls f, which must not change the store, with each
// namespace holding an item, in no order and without allocating.
func (m *Manager) EachNamespace(f func(namespace string)) {
	for ns := range m.spaces {
		f(ns)
	}
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
	if it := m.nextExpiring(); it != nil {
		return it.Expires, true
	}
	return time.Time{}, false
}

// nextExpiring returns the stored item that expires first, discarding
// the stale heap entries above it.
func (m *Manager) nextExpiring() *Item {
	for m.exp != nil && m.exp.Len() > 0 {
		if it := m.exp.entries[0].it; m.current(it) {
			return it
		}
		heap.Pop(m.exp) // stale entry from a replace/renew/remove/drop
		m.exp.stale--
	}
	return nil
}

// SweepExpired removes every item whose lifetime has passed and returns
// them. Renewed items are skipped (their heap entries are stale).
func (m *Manager) SweepExpired() []*Item {
	now := m.now()
	var out []*Item
	for {
		e := m.nextExpiring()
		if e == nil || e.Expires.After(now) {
			return out
		}
		it := m.load(e) // before the remove: its tombstone may compact the log
		m.Remove(e.Namespace, e.ResourceID, e.InstanceID)
		if it != nil {
			out = append(out, it)
		}
	}
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

// heapEntry is one entry of the Manager's heaps: the expiry heap and
// the quota's victim heaps. Expiring items come before immortal ones,
// expiring by (Expires, seq), immortal by seq (LRU for eviction — a
// renew pushes a fresh entry, so older entries mean colder items). seq
// is unique within a heap, so this is a total order: any valid heap
// over the same live entries pops the same sequence.
type heapEntry struct {
	it  *Item
	seq uint64
}

func (e heapEntry) less(o heapEntry) bool {
	ee, oe := e.it.Expires, o.it.Expires
	switch {
	case ee.IsZero() && oe.IsZero():
		return e.seq < o.seq
	case ee.IsZero():
		return false
	case oe.IsZero():
		return true
	case !ee.Equal(oe):
		return ee.Before(oe)
	default:
		return e.seq < o.seq
	}
}

// itemHeap is a heap of index entries. An entry whose item has left the
// index (replaced, removed, expired, evicted or dropped) is stale: it
// is skipped when it surfaces, and stale counts the ones retire was
// told about and no pop has discarded yet.
type itemHeap struct {
	entries []heapEntry
	seq     uint64 // of the last push
	stale   int
}

// push queues an index entry.
func (h *itemHeap) push(it *Item) {
	h.seq++
	heap.Push(h, heapEntry{it: it, seq: h.seq})
}

// minStale is the number of stale entries below which a heap is never
// swept.
const minStale = 64

// retire notes that one entry went stale. Once stale entries outnumber
// live ones (and there are enough of them to matter) it sweeps them out
// — otherwise a heap that seldom pops would keep one entry, and the
// item behind it, per store. The sweep is O(heap) but at least halves
// it, and leaves the pop order unchanged.
func (h *itemHeap) retire(current func(*Item) bool) {
	h.stale++
	if h.stale < minStale || h.stale <= h.Len()-h.stale {
		return
	}
	keep := h.entries[:0]
	for _, e := range h.entries {
		if current(e.it) {
			keep = append(keep, e)
		}
	}
	clear(h.entries[len(keep):]) // let the swept items go
	h.entries, h.stale = keep, 0
	heap.Init(h)
}

func (h *itemHeap) Len() int           { return len(h.entries) }
func (h *itemHeap) Less(i, j int) bool { return h.entries[i].less(h.entries[j]) }
func (h *itemHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *itemHeap) Push(x any)         { h.entries = append(h.entries, x.(heapEntry)) }
func (h *itemHeap) Pop() any {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries[n-1] = heapEntry{} // do not keep the popped item reachable
	h.entries = h.entries[:n-1]
	return e
}
