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
	visit = func(bits string) {
		visited++
		m.visits++
		m.prov.Get(NS, name+"|"+bits, func(items []*storage.Item) {
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
			var children []string
			if marker {
				m.sawMarker(name + "|" + bits)
				if len(bits) < max {
					for _, b := range []string{"0", "1"} {
						child := bits + b
						clo, chi := prefixRange(child)
						if clo <= hi && chi >= lo {
							children = append(children, child)
						}
					}
				}
			}
			// Account for the children before issuing their gets: a
			// local get runs its callback synchronously, and the last
			// one to resolve — wherever it is in the recursion — must
			// be the one that fires done.
			pending += len(children)
			for _, child := range children {
				visit(child)
			}
			finish()
		})
	}
	pending = 1
	visit("")
}
