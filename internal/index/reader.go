package index

import (
	"pier/internal/core"
	"pier/internal/dht/storage"
)

// RangeScan traverses one index over the inclusive encoded-key range
// [lo, hi]: starting at the trie root, every node whose prefix
// interval intersects the range is fetched with a single-key get;
// entries inside the range stream into each, and interior markers fan
// the walk out to their intersecting children. done receives the
// number of trie nodes contacted once every outstanding get resolved.
// A node the marker cache holds interior has its children asked for
// before it answers, so a warm walk takes one round, not one per level;
// the reply still decides the rest, so a stale entry costs only empty
// gets. The chain above the range is still read: entries stranded at an
// interior ancestor sink only one level per tick.
//
// The walk is chaos-safe by construction: a missing interior marker
// prunes its subtree for this scan only (the maintenance tick restores
// it within one period), an unreachable owner contributes an empty get
// after the provider timeout, and entries encountered twice while the
// trie rebalances are the caller's to deduplicate by (rid, iid) —
// core's index executor does. RangeScan implements core.IndexRanger.
func (m *Manager) RangeScan(name string, lo, hi uint64, each func(rid string, iid int64, t *core.Tuple), done func(contacted int)) {
	m.scans++
	if hi < lo || name == "" {
		done(0)
		return
	}
	visited := 0
	pending := 0
	finished := false
	finish := func() {
		if !finished && pending == 0 {
			finished = true
			done(visited)
		}
	}
	max := m.cfg.MaxDepth
	var visit func(bits string)
	// expand visits the children of bits that intersect the range and
	// returns how many it asked for. It accounts for them before issuing
	// their gets: a local get runs its callback synchronously, and the
	// last one to resolve — wherever it is in the recursion — must be the
	// one that fires done.
	expand := func(bits string) int {
		if len(bits) >= max {
			return 0
		}
		var children []string
		for _, b := range []string{"0", "1"} {
			child := bits + b
			clo, chi := prefixRange(child)
			if clo <= hi && chi >= lo {
				children = append(children, child)
			}
		}
		pending += len(children)
		for _, child := range children {
			visit(child)
		}
		return len(children)
	}
	visit = func(bits string) {
		visited++
		m.visits++
		rid := name + "|" + bits
		ahead, expanded := 0, false
		if m.markerFresh(rid) {
			ahead, expanded = expand(bits), true
			m.ahead += int64(ahead)
		}
		m.prov.Get(NS, rid, func(items []*storage.Item) {
			pending--
			marker := false
			for _, it := range items {
				switch p := it.Payload.(type) {
				case *Marker:
					marker = true
				case *Entry:
					if p.K >= lo && p.K <= hi {
						each(p.RID, p.IID, p.T)
					}
				}
			}
			switch {
			case marker:
				m.sawMarker(rid)
				if !expanded {
					expand(bits)
				}
			case expanded:
				m.wasted += int64(ahead)
			}
			finish()
		})
	}
	pending = 1
	visit("")
}
