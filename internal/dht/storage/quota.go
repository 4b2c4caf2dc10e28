package storage

// The quota part of the Manager: per-namespace byte quotas, held by
// evicting soft state instead of growing without bound. Eviction order
// within an over-quota namespace:
//
//  1. expired items first (a full sweep, which is reclamation the
//     expiry timer would have done anyway);
//  2. then the item nearest to expiry — soft state closest to being
//     forgotten is the cheapest to forget early;
//  3. immortal items (no lifetime) go last, in LRU order: a renew
//     re-stores the item, which refreshes its position.
//
// The reserved catalog namespaces (pier.stats, pier.index.def) are
// exempt from the default quota, so they are never evicted to make room
// for data.

import "container/heap"

// highWater is the fraction of a quota at which OverHighWater starts
// reporting true, engaging put-path throttling before hard eviction.
const highWater = 0.85

// reserved reports whether the namespace holds one of the
// query-processing catalogs. The strings are duplicated from
// internal/stats.CatalogNS and internal/index.DefNS rather than
// imported, because those packages depend on storage.
func reserved(namespace string) bool {
	return namespace == "pier.stats" || namespace == "pier.index.def"
}

// QuotaConfig configures quota enforcement. The zero value sets no
// quota: Open then leaves the manager unbounded.
type QuotaConfig struct {
	// DefaultQuota is the per-namespace byte quota applied to any
	// namespace without an explicit entry in Quotas, the reserved
	// catalogs excepted. 0 = unlimited.
	DefaultQuota int64
	// Quotas overrides the quota for specific namespaces. An explicit
	// entry wins even for reserved namespaces.
	Quotas map[string]int64
}

// quota is the Manager's eviction state: one heap of candidates per
// namespace, and the counters Stats reports.
type quota struct {
	cfg     QuotaConfig
	victims map[string]*victimHeap
	seq     uint64
	stats   Stats
}

// newQuota returns nil for a config that bounds nothing.
func newQuota(cfg QuotaConfig) *quota {
	if cfg.DefaultQuota <= 0 && len(cfg.Quotas) == 0 {
		return nil
	}
	return &quota{
		cfg:     cfg,
		victims: make(map[string]*victimHeap),
		stats:   Stats{EvictedByNS: make(map[string]int64)},
	}
}

// OverHighWater reports whether storing into the namespace should be
// throttled at the source: it is past the high-water fraction of its
// quota. The provider checks it on each incoming put and answers with a
// throttle message. Namespaces without a quota (all of them on an
// unbounded manager, the reserved ones by default) are never throttled.
func (m *Manager) OverHighWater(namespace string) bool {
	q := m.quotaFor(namespace)
	return q > 0 && float64(m.nsBytes(namespace)) >= highWater*float64(q)
}

// quotaFor resolves the byte quota bounding a namespace; 0 = unlimited.
func (m *Manager) quotaFor(namespace string) int64 {
	if m.quota == nil {
		return 0
	}
	if q, ok := m.quota.cfg.Quotas[namespace]; ok {
		return q
	}
	if reserved(namespace) {
		return 0
	}
	return m.quota.cfg.DefaultQuota
}

// enforce evicts from the namespace of the item just stored until it
// fits its quota again.
func (m *Manager) enforce(incoming *Item) {
	ns := incoming.Namespace
	q := m.quotaFor(ns)
	if q <= 0 || m.nsBytes(ns) <= q {
		return
	}
	// Expired-but-unswept items are reclaimed first; only then are
	// live victims chosen.
	m.SweepExpired()
	for m.nsBytes(ns) > q {
		if !m.evictOne(ns, incoming) {
			return
		}
	}
}

// evictOne takes one victim of the namespace out of memory — to the
// spill log if there is one, else for good — reporting whether a victim
// was found. An eviction of incoming, the item whose store triggered
// enforcement, counts as a dropped put.
func (m *Manager) evictOne(namespace string, incoming *Item) bool {
	it := m.popVictim(namespace)
	if it == nil {
		return false
	}
	st := &m.quota.stats
	if it == incoming {
		st.PutsDropped++
	} else {
		st.ItemsEvicted++
	}
	st.BytesEvicted += int64(it.WireSize())
	st.EvictedByNS[namespace]++
	if m.log == nil || !m.spill(it) {
		m.unlink(it)
	}
	return true
}

// pushVictim records the item as a future eviction candidate. A re-store
// of the same identity leaves a stale entry behind, skipped at pop time
// (Manager.current) and swept out by retire.
func (m *Manager) pushVictim(it *Item) {
	q := m.quota
	h := q.victims[it.Namespace]
	if h == nil {
		h = &victimHeap{}
		q.victims[it.Namespace] = h
	}
	q.seq++
	heap.Push(h, victimEntry{it: it, seq: q.seq})
}

// retire notes that one of the namespace's heap entries went stale: its
// item was replaced, removed or swept. The heap goes with the
// namespace's last item in memory, and is compacted once stale entries
// outnumber live ones (and there are enough of them to matter) —
// otherwise a namespace that stays under quota never pops, and its heap
// would keep one entry, and the replaced item behind it, per put. The
// sweep is O(heap) but at least halves it, and pop order is unchanged
// because victimEntry.less is a total order (seq is unique): any valid
// heap over the same live set pops the same sequence.
func (m *Manager) retire(namespace string) {
	const minStale = 64
	h := m.quota.victims[namespace]
	if h == nil {
		return
	}
	if m.nsBytes(namespace) == 0 {
		delete(m.quota.victims, namespace)
		return
	}
	h.stale++
	if h.stale < minStale || h.stale <= h.Len()-h.stale {
		return
	}
	keep := h.entries[:0]
	for _, e := range h.entries {
		if m.current(e.it) {
			keep = append(keep, e)
		}
	}
	clear(h.entries[len(keep):]) // let the swept items go
	h.entries, h.stale = keep, 0
	heap.Init(h)
}

// popVictim returns the best live eviction candidate in the namespace,
// or nil when none remain.
func (m *Manager) popVictim(namespace string) *Item {
	victims := m.quota.victims
	h := victims[namespace]
	if h == nil {
		return nil
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(victimEntry)
		if m.current(e.it) {
			if h.Len() == 0 {
				delete(victims, namespace)
			}
			return e.it
		}
		h.stale--
	}
	delete(victims, namespace)
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
