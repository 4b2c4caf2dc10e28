package storage

// Bounded wraps the in-memory Manager with per-namespace byte quotas
// and a total budget, evicting soft state instead of growing without
// bound. Eviction order within an over-quota namespace:
//
//  1. expired items first (a full sweep, which is reclamation the
//     expiry timer would have done anyway);
//  2. then the item nearest to expiry — soft state closest to being
//     forgotten is the cheapest to forget early;
//  3. immortal items (no lifetime) go last, in LRU order: a renew
//     re-stores the item, which refreshes its position.
//
// The reserved catalog namespaces (pier.stats, pier.index.def) are
// never evicted ahead of data namespaces: they are exempt from
// per-namespace quotas, and the total budget only touches them when no
// data namespace has anything left to give.

import (
	"container/heap"
	"time"
)

// DefaultHighWater is the fraction of a quota at which put-path
// backpressure engages when BoundedConfig.HighWater is unset.
const DefaultHighWater = 0.85

// reservedCatalogs are the namespaces holding the query-processing
// catalogs. The strings are duplicated from internal/stats.CatalogNS
// and internal/index.DefNS rather than imported, because those
// packages depend on storage.
var reservedCatalogs = []string{"pier.index.def", "pier.stats"}

// BoundedConfig configures quota enforcement. The zero value disables
// it (Enabled reports false) and the provider falls back to the plain
// Manager.
type BoundedConfig struct {
	// DefaultQuota is the per-namespace byte quota applied to any
	// namespace without an explicit entry in Quotas. 0 = unlimited.
	DefaultQuota int64
	// Quotas overrides the quota for specific namespaces. An explicit
	// entry wins even for reserved namespaces.
	Quotas map[string]int64
	// TotalBudget bounds the node's total in-memory soft-state bytes
	// across namespaces. 0 = unlimited.
	TotalBudget int64
	// HighWater is the quota fraction at which OverHighWater starts
	// reporting true, engaging put-path throttling before hard
	// eviction. 0 means DefaultHighWater.
	HighWater float64
	// Reserved lists catalog namespaces exempt from DefaultQuota and
	// evicted only as a last resort. nil means the pier.stats and
	// pier.index.def catalogs.
	Reserved []string
}

// Enabled reports whether any bound is configured.
func (c BoundedConfig) Enabled() bool {
	return c.DefaultQuota > 0 || len(c.Quotas) > 0 || c.TotalBudget > 0
}

// Bounded is the quota-enforcing Store. Like Manager it is event-loop
// confined; see the Store interface for the locking contract.
type Bounded struct {
	m           *Manager
	cfg         BoundedConfig
	reserved    map[string]bool
	victims     map[string]*victimHeap
	seq         uint64
	onEvict     func(*Item)
	stats       Stats
	evictedByNS map[string]int64
}

// NewBounded creates a quota-enforcing store over a fresh Manager.
func NewBounded(now func() time.Time, cfg BoundedConfig) *Bounded {
	if cfg.HighWater <= 0 {
		cfg.HighWater = DefaultHighWater
	}
	res := cfg.Reserved
	if res == nil {
		res = reservedCatalogs
	}
	b := &Bounded{
		m:           New(now),
		cfg:         cfg,
		reserved:    make(map[string]bool, len(res)),
		victims:     make(map[string]*victimHeap),
		evictedByNS: make(map[string]int64),
	}
	for _, ns := range res {
		b.reserved[ns] = true
	}
	return b
}

// SetEvictHook registers a callback invoked with each quota-evicted
// item after it leaves memory (the spill tier's capture point). Expiry
// sweeps do not trigger it.
func (b *Bounded) SetEvictHook(f func(*Item)) { b.onEvict = f }

// Store inserts the item, then enforces the namespace quota and total
// budget, evicting victims (possibly the item just stored) as needed.
func (b *Bounded) Store(it *Item) {
	before := b.m.count
	b.m.Store(it)
	b.push(it)
	if b.m.count == before { // replaced an item, whose entry is now stale
		b.retire(it.Namespace)
	}
	b.enforceNS(it.Namespace, it)
	b.enforceTotal(it)
}

// Retrieve returns the live items under (namespace, resourceID).
func (b *Bounded) Retrieve(namespace, resourceID string) []*Item {
	return b.m.Retrieve(namespace, resourceID)
}

// Remove deletes the exact identity, reporting whether it existed.
func (b *Bounded) Remove(namespace, resourceID string, instanceID int64) bool {
	if !b.m.Remove(namespace, resourceID, instanceID) {
		return false
	}
	b.retire(namespace)
	return true
}

// Scan iterates a namespace's live items in sorted order.
func (b *Bounded) Scan(namespace string, f func(*Item) bool) { b.m.Scan(namespace, f) }

// ScanAll iterates every live item across namespaces in sorted order.
func (b *Bounded) ScanAll(f func(*Item) bool) { b.m.ScanAll(f) }

// Namespaces lists the namespaces with at least one item.
func (b *Bounded) Namespaces() []string { return b.m.Namespaces() }

// Len returns the number of items in a namespace.
func (b *Bounded) Len(namespace string) int { return b.m.Len(namespace) }

// TotalLen returns the number of items across all namespaces.
func (b *Bounded) TotalLen() int { return b.m.TotalLen() }

// NextExpiry reports the earliest pending expiry time, if any.
func (b *Bounded) NextExpiry() (time.Time, bool) { return b.m.NextExpiry() }

// SweepExpired removes and returns every expired item.
func (b *Bounded) SweepExpired() []*Item {
	out := b.m.SweepExpired()
	for _, it := range out {
		b.retire(it.Namespace)
	}
	return out
}

// Usage reports in-memory byte occupancy.
func (b *Bounded) Usage() Usage { return b.m.Usage() }

// Stats reports cumulative eviction counters.
func (b *Bounded) Stats() Stats {
	s := b.stats
	s.EvictedByNS = make(map[string]int64, len(b.evictedByNS))
	for ns, n := range b.evictedByNS {
		s.EvictedByNS[ns] = n
	}
	return s
}

// OverHighWater implements PressureReporter: true when the namespace
// (or the total budget) is past the high-water fraction of its bound.
// Reserved namespaces are never throttled.
func (b *Bounded) OverHighWater(namespace string) bool {
	if b.reserved[namespace] {
		if _, explicit := b.cfg.Quotas[namespace]; !explicit {
			return false
		}
	}
	if q := b.quotaFor(namespace); q > 0 {
		if float64(b.m.nsBytes(namespace)) >= b.cfg.HighWater*float64(q) {
			return true
		}
	}
	if b.cfg.TotalBudget > 0 &&
		float64(b.m.bytes) >= b.cfg.HighWater*float64(b.cfg.TotalBudget) {
		return true
	}
	return false
}

// quotaFor resolves the byte quota bounding a namespace; 0 = unlimited.
func (b *Bounded) quotaFor(namespace string) int64 {
	if q, ok := b.cfg.Quotas[namespace]; ok {
		return q
	}
	if b.reserved[namespace] {
		return 0
	}
	return b.cfg.DefaultQuota
}

// enforceNS evicts from namespace until it fits its quota. incoming is
// the item whose store triggered enforcement (an eviction of it counts
// as a dropped put).
func (b *Bounded) enforceNS(namespace string, incoming *Item) {
	q := b.quotaFor(namespace)
	if q <= 0 || b.m.nsBytes(namespace) <= q {
		return
	}
	// Expired-but-unswept items are reclaimed first; only then are
	// live victims chosen.
	b.SweepExpired()
	for b.m.nsBytes(namespace) > q {
		if !b.evictOne(namespace, incoming) {
			return
		}
	}
}

// enforceTotal evicts until the node fits its total budget, draining
// the largest data namespace first and touching reserved catalogs only
// when nothing else remains.
func (b *Bounded) enforceTotal(incoming *Item) {
	budget := b.cfg.TotalBudget
	if budget <= 0 || b.m.bytes <= budget {
		return
	}
	b.SweepExpired()
	for b.m.bytes > budget {
		ns, ok := b.largestNamespace(false)
		if !ok {
			ns, ok = b.largestNamespace(true)
		}
		if !ok || !b.evictOne(ns, incoming) {
			return
		}
	}
}

// largestNamespace picks the namespace with the most bytes (smallest
// name on ties, for deterministic replay), optionally considering the
// reserved catalogs.
func (b *Bounded) largestNamespace(includeReserved bool) (string, bool) {
	var (
		best  string
		bytes int64
		found bool
	)
	for _, ns := range b.m.Namespaces() {
		if b.reserved[ns] && !includeReserved {
			continue
		}
		if v := b.m.nsBytes(ns); !found || v > bytes {
			best, bytes, found = ns, v, true
		}
	}
	return best, found
}

// evictOne removes one victim from the namespace, reporting whether a
// victim was found.
func (b *Bounded) evictOne(namespace string, incoming *Item) bool {
	it := b.popVictim(namespace)
	if it == nil {
		return false
	}
	b.m.Remove(it.Namespace, it.ResourceID, it.InstanceID)
	if it == incoming {
		b.stats.PutsDropped++
	} else {
		b.stats.ItemsEvicted++
	}
	b.stats.BytesEvicted += int64(it.WireSize())
	b.evictedByNS[namespace]++
	if b.onEvict != nil {
		b.onEvict(it)
	}
	return true
}

// push records the item as a future eviction candidate. A re-store of
// the same identity leaves a stale entry behind, skipped at pop time
// by pointer identity against the currently stored item and swept out
// by retire.
func (b *Bounded) push(it *Item) {
	h := b.victims[it.Namespace]
	if h == nil {
		h = &victimHeap{}
		b.victims[it.Namespace] = h
	}
	b.seq++
	heap.Push(h, victimEntry{it: it, seq: b.seq})
}

// retire notes that one of the namespace's heap entries went stale: its
// item was replaced, removed or swept. The heap goes with the
// namespace's last item, and is compacted once stale entries outnumber
// live ones (and there are enough of them to matter) — otherwise a
// namespace that stays under quota never pops, and its heap would keep
// one entry, and the replaced item behind it, per put. The sweep is
// O(heap) but at least halves it, and pop order is unchanged because
// victimEntry.less is a total order (seq is unique): any valid heap
// over the same live set pops the same sequence.
func (b *Bounded) retire(namespace string) {
	const minStale = 64
	h := b.victims[namespace]
	if h == nil {
		return
	}
	if _, ok := b.m.spaces[namespace]; !ok {
		delete(b.victims, namespace)
		return
	}
	h.stale++
	if h.stale < minStale || h.stale <= h.Len()-h.stale {
		return
	}
	keep := h.entries[:0]
	for _, e := range h.entries {
		if b.current(e) {
			keep = append(keep, e)
		}
	}
	clear(h.entries[len(keep):]) // let the swept items go
	h.entries, h.stale = keep, 0
	heap.Init(h)
}

// current reports whether the heap entry still describes the stored item.
func (b *Bounded) current(e victimEntry) bool {
	cur, ok := b.m.get(e.it.Namespace, e.it.ResourceID, e.it.InstanceID)
	return ok && cur == e.it
}

// popVictim returns the best live eviction candidate in the namespace,
// or nil when none remain.
func (b *Bounded) popVictim(namespace string) *Item {
	h := b.victims[namespace]
	if h == nil {
		return nil
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(victimEntry)
		if b.current(e) {
			if h.Len() == 0 {
				delete(b.victims, namespace)
			}
			return e.it
		}
		h.stale--
	}
	delete(b.victims, namespace)
	return nil
}

// victimEntry orders eviction candidates: expiring items before
// immortal ones, expiring by (Expires, seq), immortal by seq (LRU —
// a renew pushes a fresh entry, so older entries mean colder items).
type victimEntry struct {
	it  *Item
	seq uint64
}

func (e victimEntry) less(o victimEntry) bool {
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

// victimHeap is one namespace's eviction candidates. stale counts the
// entries retire was told about and popVictim has not yet discarded.
type victimHeap struct {
	entries []victimEntry
	stale   int
}

func (h *victimHeap) Len() int           { return len(h.entries) }
func (h *victimHeap) Less(i, j int) bool { return h.entries[i].less(h.entries[j]) }
func (h *victimHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *victimHeap) Push(x any)         { h.entries = append(h.entries, x.(victimEntry)) }
func (h *victimHeap) Pop() any {
	n := len(h.entries)
	e := h.entries[n-1]
	h.entries[n-1] = victimEntry{} // do not keep the popped item reachable
	h.entries = h.entries[:n-1]
	return e
}

var (
	_ Store            = (*Bounded)(nil)
	_ PressureReporter = (*Bounded)(nil)
)
