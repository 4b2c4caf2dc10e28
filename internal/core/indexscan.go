package core

import (
	"fmt"
	"strconv"

	"pier/internal/trace"
	"pier/internal/wire"
)

// IndexRangeScan is the index access path of a single-table plan: scan
// the named Prefix Hash Tree index (internal/index) over the inclusive
// encoded-key range [Lo, Hi] instead of multicasting the query to every
// node for a full namespace scan.
//
// Lo and Hi are order-preserving encoded keys (wire.OrderedKey). The
// encoding is non-strictly monotone, so the range over-approximates the
// value predicate; the table's Filter is always re-checked on every
// fetched tuple, making the index purely an access-path optimization —
// it can change what the query costs, never what it returns.
type IndexRangeScan struct {
	// Index names the PHT index to traverse.
	Index string
	// Lo and Hi are the inclusive encoded-key bounds (0 and MaxUint64
	// leave the corresponding side unbounded).
	Lo, Hi uint64
}

func (s *IndexRangeScan) String() string {
	return fmt.Sprintf("index %s [%016x, %016x]", s.Index, s.Lo, s.Hi)
}

// WireSize implements env.Message so the spec can ride inside plans.
func (s *IndexRangeScan) WireSize() int { return wire.Size(s) }

// IndexRanger is the engine's hook into the PHT index subsystem
// (implemented by index.Manager; core cannot import it). RangeScan
// traverses the named index over [lo, hi], invoking each for every
// entry found — possibly more than once per base tuple while the trie
// rebalances, so callers deduplicate by (rid, iid) — and done with the
// number of trie nodes contacted once the traversal completes.
type IndexRanger interface {
	RangeScan(index string, lo, hi uint64, each func(rid string, iid int64, t *Tuple), done func(contacted int))
}

// SetIndexRanger installs the index subsystem used to execute
// IndexRangeScan plans initiated on this node (nil disables the fast
// path; such plans then fall back to multicast full scans).
func (eng *Engine) SetIndexRanger(r IndexRanger) { eng.ranger = r }

// indexRunnable reports whether a validated plan initiated here can
// execute through the index access path: a one-shot single-table plan
// with an index range attached.
func (eng *Engine) indexRunnable(p *Plan) bool {
	return eng.ranger != nil && len(p.Tables) == 1 && !p.Continuous && p.Tables[0].IndexScan != nil
}

// runIndexQuery executes a single-table plan entirely from the
// initiator: traverse the PHT, run each fetched tuple through the
// plan's row pipeline, and feed the results (or locally combined
// groups) straight into this node's own collector. No query multicast
// is sent and no remote executor is instantiated — the whole point of
// the index: the query contacts O(matching leaves) nodes instead of
// all n.
func (eng *Engine) runIndexQuery(id uint64, p *Plan) {
	tbl := &p.Tables[0]
	is := tbl.IndexScan
	t0 := eng.env.Now()
	seen := make(map[string]bool)
	var groups groupSet
	deliver := func(ts ...*Tuple) {
		if len(ts) > 0 {
			eng.HandleMessage(eng.env.Addr(), &resultMsg{ID: id, Window: 0, Tuples: ts})
		}
	}
	eng.ranger.RangeScan(is.Index, is.Lo, is.Hi,
		func(rid string, iid int64, t *Tuple) {
			// The trie may hold an entry at two nodes mid-rebalance.
			key := rid + "\x00" + strconv.FormatInt(iid, 10)
			if seen[key] || t == nil {
				return
			}
			seen[key] = true
			// The index range over-approximates; the untouched Filter is
			// the exact predicate.
			if row := tbl.baseRow(t); row != nil {
				if out := p.pipe(&groups, 0, row); out != nil {
					deliver(out)
				}
			}
		},
		func(contacted int) {
			eng.mu.Lock()
			c, ok := eng.collectors[id]
			eng.mu.Unlock()
			if ok {
				c.contacted = contacted
				if c.traced {
					eng.recordCollectorSpan(c, trace.Span{
						Stage: trace.StageIndexScan,
						Start: t0.UnixNano(),
						Dur:   eng.env.Now().Sub(t0),
						Note:  fmt.Sprintf("%s: %d trie nodes", is.Index, contacted),
					})
				}
			}
			// Traversal complete: the locally combined groups are final.
			var out []*Tuple
			for _, pg := range groups.dirty {
				if t := p.finish(pg); t != nil {
					out = append(out, t)
				}
			}
			deliver(out...)
		})
}

// IndexContacts reports how many trie nodes the index traversal of a
// still-open query initiated here contacted (0 until the traversal
// finishes; ok is false for unknown or already-closed queries).
// Experiment harnesses compare this against the overlay size a full
// scan multicasts to.
func (eng *Engine) IndexContacts(id uint64) (int, bool) {
	eng.mu.Lock()
	c, ok := eng.collectors[id]
	eng.mu.Unlock()
	if !ok {
		return 0, false
	}
	return c.contacted, true
}
