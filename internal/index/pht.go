package index

// The trie maintenance tick. Every rule here is local-plus-one-get and
// idempotent, so the trie converges under churn no matter which subset
// of nodes ran their tick: overflowing leaves split, entries stranded
// under interior markers (by stale publishers or in-flight splits) sink
// one level per tick, underflowing leaves with empty siblings merge
// back into their parent, and the marker chain above every leaf is
// re-put each tick so lost interior nodes re-materialize.

import (
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
)

// tombstoneLifetime is the effectively-zero lifetime used to replace a
// marker that should disappear (merges); the replacing put wins over
// the old item and expires immediately.
const tombstoneLifetime = time.Nanosecond

// Tick runs one maintenance pass over the locally stored trie nodes:
// renew created definitions, split and heal, then merge. Tests and the
// experiment harnesses call it directly to settle a freshly built
// index without waiting for the loop.
func (m *Manager) Tick() {
	for _, name := range env.SortedKeys(m.created) {
		def := m.created[name]
		m.prov.Put(DefNS, def.Table, defIID(def.Name), &def, m.createdLife[name])
	}
	m.refreshDefs()

	type group struct {
		entries []*storage.Item
		marker  bool
	}
	groups := map[string]*group{}
	m.prov.Scan(NS, func(it *storage.Item) bool {
		g := groups[it.ResourceID]
		if g == nil {
			g = &group{}
			groups[it.ResourceID] = g
		}
		switch it.Payload.(type) {
		case *Marker:
			g.marker = true
		case *Entry:
			g.entries = append(g.entries, it)
		}
		return true
	})

	renewed := map[string]bool{}
	for _, rid := range env.SortedKeys(groups) {
		g := groups[rid]
		name, bits, ok := parseRID(rid)
		if !ok {
			continue
		}
		depth := len(bits)
		switch {
		case g.marker && len(g.entries) > 0:
			// Entries under an interior node: a publisher wrote to a
			// since-split prefix, or a split relocated around them.
			// Sink them one level toward their leaves.
			m.pushDown(rid, g.entries, depth)
		case g.marker:
			// Bare interior node. Its renewal is the duty of the leaf
			// owners below it; an interior node nothing renews is an
			// orphan and ages out — that is the merge-by-expiry path.
		case len(g.entries) > m.cfg.SplitThreshold && depth < m.cfg.MaxDepth:
			// Overflowing leaf: become interior, push the entries down.
			m.prov.Put(NS, rid, markerIID, &Marker{}, m.markerLifetime)
			m.sawMarker(rid)
			m.pushDown(rid, g.entries, depth)
			m.renewChain(name, bits, renewed)
		default:
			m.renewChain(name, bits, renewed)
			if depth > 0 && len(g.entries) <= mergeThreshold {
				m.tryMerge(name, bits, g.entries)
			}
		}
	}
}

// pushDown relocates entries from an interior (or splitting) trie node
// one level down, routed by the next bit of each entry's key, keeping
// each item's remaining lifetime.
func (m *Manager) pushDown(rid string, entries []*storage.Item, depth int) {
	now := m.env.Now()
	for _, it := range entries {
		e, ok := it.Payload.(*Entry)
		if !ok {
			continue
		}
		lt, live := remaining(it, now)
		if !live {
			continue
		}
		m.prov.Store().Remove(it.Namespace, it.ResourceID, it.InstanceID)
		child := rid
		if bitAt(e.K, depth) == 1 {
			child += "1"
		} else {
			child += "0"
		}
		m.prov.Put(NS, child, it.InstanceID, e, lt)
	}
}

// renewChain re-puts the interior markers on every proper prefix of a
// leaf that holds entries here, deduplicated per tick. This is what
// keeps the trie's skeleton alive — and what heals it: a marker lost
// with a crashed node is back one tick after any descendant leaf's
// owner runs.
func (m *Manager) renewChain(name, bits string, renewed map[string]bool) {
	for i := 0; i < len(bits); i++ {
		rid := name + "|" + bits[:i]
		if renewed[rid] {
			continue
		}
		renewed[rid] = true
		m.prov.Put(NS, rid, markerIID, &Marker{}, m.markerLifetime)
	}
}

// tryMerge collapses an underflowing leaf into its parent when the
// sibling subtree is empty: relocate the entries up and tombstone the
// parent's interior marker. If the sibling probe raced a concurrent
// writer (or timed out), the survivors' chain renewal re-splits the
// parent on a later tick — the rules are individually safe, so the
// worst case is an extra relocation, never loss.
func (m *Manager) tryMerge(name, bits string, entries []*storage.Item) {
	sibling := name + "|" + bits[:len(bits)-1]
	if bits[len(bits)-1] == '0' {
		sibling += "1"
	} else {
		sibling += "0"
	}
	m.prov.Get(NS, sibling, func(items []*storage.Item) {
		if len(items) > 0 {
			return // occupied sibling: the split is still justified
		}
		parent := name + "|" + bits[:len(bits)-1]
		now := m.env.Now()
		for _, it := range entries {
			e, ok := it.Payload.(*Entry)
			if !ok {
				continue
			}
			lt, live := remaining(it, now)
			if !live {
				continue
			}
			m.prov.Store().Remove(it.Namespace, it.ResourceID, it.InstanceID)
			m.prov.Put(NS, parent, it.InstanceID, e, lt)
		}
		m.prov.Put(NS, parent, markerIID, &Marker{}, tombstoneLifetime)
		delete(m.markerSeen, parent)
	})
}

// remaining converts an item's absolute expiry back into a lifetime
// for re-putting it elsewhere (0 = immortal; live is false for items
// that expired under us mid-tick).
func remaining(it *storage.Item, now time.Time) (lifetime time.Duration, live bool) {
	if it.Expires.IsZero() {
		return 0, true
	}
	d := it.Expires.Sub(now)
	if d <= 0 {
		return 0, false
	}
	return d, true
}
