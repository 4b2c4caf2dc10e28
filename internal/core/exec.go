package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"pier/internal/core/bloom"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/trace"
)

// exec is the per-node instantiation of one query's dataflow. Operators
// push tuples onward as soon as they are produced (§3.3: "operators
// produce results as quickly as possible (push)"); the network queues
// between rehash and probe hide latency.
type exec struct {
	eng       *Engine
	id        uint64
	initiator env.Addr
	plan      *Plan
	nq        string // temporary rehash namespace ("a new unique DHT namespace NQ", §4.1)
	aggNS     string
	startAt   time.Time

	unsubs  []func()
	timers  []env.Timer
	stopped bool

	bloomRecv [2]bool

	// fetchCache memoizes semi-join base-tuple fetches per (side, rid):
	// an S tuple matched by several R projections is fetched once per
	// probing node, not once per pair.
	fetchCache [2]map[string]*fetchEntry

	groups    groupSet // drained of dirty groups by flushPartials
	flushStop func()

	// Result channel state: output tuples accumulate in resBuf and are
	// shipped to the initiator in batched frames (by size and by a
	// short timer) under a credit window, instead of one unicast frame
	// per tuple — the per-tuple incast melts the initiator's link once
	// n nodes answer a selective query at once.
	//
	// resMu guards all of it: operators emit on the event loop while
	// credit grants arrive on the query's dispatch shard and resume
	// the flush from there. With inline dispatch (the simulator) the
	// lock is uncontended and free of ordering effects.
	resMu    sync.Mutex
	resBuf   []resultItem
	resHead  int       // resBuf[:resHead] has shipped; the buffer is resBuf[resHead:]
	resSent  int64     // result tuples shipped so far
	resLimit int64     // cumulative credit limit (flow control off: unused)
	resFlush env.Timer // pending size/interval flush
	resStall env.Timer // pending credit stall-refresh

	// spans is the traced query's bounded span buffer (nil when the
	// query is untraced); it drains into outbound result frames.
	spans *trace.Buffer
	// resFirstBuf is when the oldest tuple of the current buffer
	// generation was buffered, anchoring the flush-latency histogram
	// and the result_flush span (zero when the buffer is empty).
	resFirstBuf time.Time
	// stallStart anchors the credit_stall span (zero outside stalls).
	stallStart time.Time
}

// resultItem is one buffered output tuple; the window rides along so a
// stalled buffer can span a window boundary (frames still carry one
// window each — flushes cut at the first window change).
type resultItem struct {
	w int
	t *Tuple
}

type fetchEntry struct {
	done    bool
	tuples  []*Tuple
	waiters []func([]*Tuple)
}

func newExec(eng *Engine, m *queryMsg) *exec {
	var spans *trace.Buffer
	if m.Trace {
		spans = trace.NewBuffer(eng.cfg.TraceBuf)
	}
	return &exec{
		spans:     spans,
		eng:       eng,
		id:        m.ID,
		initiator: m.Initiator,
		plan:      m.Plan,
		nq:        fmt.Sprintf("q%x", m.ID),
		aggNS:     fmt.Sprintf("q%x.agg", m.ID),
		startAt:   eng.env.Now(),
		// The bootstrap credit window is implicit: the initiator's
		// ledger assumes every sender starts with one ResultCredit
		// window, so no registration round-trip is needed before the
		// first results flow.
		resLimit: int64(eng.cfg.ResultCredit),
	}
}

func (ex *exec) bloomNS(side int) string { return fmt.Sprintf("q%x.bloom%d", ex.id, side) }

// span records one event into the traced query's bounded span buffer;
// untraced queries make it a no-op. Callers building a note string
// should guard the formatting with ex.spans != nil.
func (ex *exec) span(st trace.Stage, start time.Time, dur time.Duration, note string) {
	if ex.spans == nil {
		return
	}
	ex.spans.Add(trace.Span{
		Stage: st,
		Node:  ex.eng.env.Addr(),
		Start: start.UnixNano(),
		Dur:   dur,
		Note:  note,
	})
}

func (ex *exec) start() {
	p := ex.plan
	if ex.spans != nil {
		// The multicast span marks the query's arrival at this node —
		// the end of the dissemination hop.
		var tables []string
		for _, tr := range p.Tables {
			tables = append(tables, tr.NS)
		}
		ex.span(trace.StageMulticast, ex.startAt, 0, "query arrived: "+strings.Join(tables, ","))
	}
	t0 := ex.eng.env.Now()
	if len(p.Aggs) > 0 {
		ex.scheduleAggEmit()
	}
	if len(p.Tables) == 1 {
		ex.startSingle()
	} else {
		switch p.Strategy {
		case SymmetricHash:
			registerProbe(ex, ex.pairSide)
			ex.rehashScan(0, nil)
			ex.rehashScan(1, nil)
		case FetchMatches:
			ex.startFetchMatches()
		case SymmetricSemiJoin:
			registerProbe(ex, ex.pairMini)
			ex.miniScan(0)
			ex.miniScan(1)
		case BloomJoin:
			registerProbe(ex, ex.pairSide)
			ex.startBloom()
		}
	}
	if ex.spans != nil {
		note := "single-table"
		if len(p.Tables) == 2 {
			note = p.Strategy.String()
		}
		ex.span(trace.StageExecutor, t0, ex.eng.env.Now().Sub(t0), note)
	}
}

// stop is the executor's only exit, reached through Engine.endExec on
// cancel or at the TTL. It ends every subscription and timer the
// executor holds, the TTL timer included, so once the engine forgets
// the exec only DHT gets still in flight reference it; and it ships
// what the result and span buffers still hold, exactly once.
func (ex *exec) stop() {
	if ex.stopped {
		return
	}
	ex.stopped = true
	for _, u := range ex.unsubs {
		u()
	}
	for _, t := range ex.timers {
		t.Stop()
	}
	if ex.flushStop != nil {
		ex.flushStop()
	}
	// Stop-flush: the executor is going away (cancel or TTL), so any
	// tuple still buffered would be lost; ship the remainder even past
	// the credit window. The burst is bounded by the buffer contents,
	// and a cancelled or expired query's collector is usually already
	// closed — the frames then drop at the initiator.
	ex.resMu.Lock()
	if ex.resFlush != nil {
		ex.resFlush.Stop()
		ex.resFlush = nil
	}
	if ex.resStall != nil {
		ex.resStall.Stop()
		ex.resStall = nil
	}
	ex.flushResultsLocked(true)
	ex.resMu.Unlock()
	// Spans recorded since the last result frame (or by an executor
	// that produced no results at all) would die with the exec; ship
	// them in one final zero-tuple frame. Best effort — a cancelled
	// query's collector is often already closed.
	if ex.spans != nil && (ex.spans.Len() > 0 || ex.spans.Drops() > 0) {
		spans, drops := ex.spans.Drain()
		rm := getResultMsg()
		rm.ID = ex.id
		rm.Window = ex.window()
		rm.Spans, rm.SpanDrops = spans, drops
		ex.eng.env.Send(ex.initiator, rm)
	}
}

// timer schedules f, suppressed after stop.
func (ex *exec) timer(d time.Duration, f func()) {
	t := ex.eng.env.After(d, func() {
		if !ex.stopped {
			f()
		}
	})
	ex.timers = append(ex.timers, t)
}

func (ex *exec) window() int {
	if !ex.plan.Continuous {
		return 0
	}
	return int(ex.eng.env.Now().Sub(ex.startAt) / ex.plan.Every)
}

// onRow takes one row produced here — a base tuple of a single-table
// plan or a concatenated row of any join strategy — through the plan's
// row pipeline, into a group or the result channel.
func (ex *exec) onRow(row *Tuple) {
	w := ex.window()
	if out := ex.plan.pipe(&ex.groups, w, row); out != nil {
		ex.emit(out, w)
		return
	}
	// Joins and streams keep feeding groups; flush them periodically.
	if len(ex.groups.dirty) > 0 && (len(ex.plan.Tables) == 2 || ex.plan.Continuous) {
		ex.ensureFlusher()
	}
}

// emit routes one output tuple into the per-initiator result buffer.
// With ResultBatch 1 and flow control off every tuple flushes at once
// in its own frame (the per-tuple baseline the incast experiment
// measures against).
func (ex *exec) emit(t *Tuple, window int) {
	cfg := &ex.eng.cfg
	ex.resMu.Lock()
	if len(ex.resBuf) == 0 {
		ex.resFirstBuf = ex.eng.env.Now()
	}
	ex.resBuf = append(ex.resBuf, resultItem{w: window, t: t})
	if len(ex.resBuf)-ex.resHead >= cfg.ResultBatch {
		ex.flushResultsLocked(false)
		ex.resMu.Unlock()
		return
	}
	if ex.resFlush == nil {
		ex.resFlush = ex.eng.env.After(cfg.ResultFlushInterval, func() {
			ex.resMu.Lock()
			ex.resFlush = nil
			if !ex.stopped {
				ex.flushResultsLocked(false)
			}
			ex.resMu.Unlock()
		})
	}
	ex.resMu.Unlock()
}

// flushResults is flushResultsLocked for callers not holding resMu.
func (ex *exec) flushResults(force bool) {
	ex.resMu.Lock()
	ex.flushResultsLocked(force)
	ex.resMu.Unlock()
}

// flushResultsLocked ships buffered result tuples to the initiator in
// frames of at most ResultBatch tuples, one window per frame, stopping
// when the credit window is exhausted (unless force — the stop-flush).
// Frames come from the shared pool and their Tuples slices reuse
// recycled capacity; the buffer keeps its backing array across flush
// cycles so a steady result stream stops allocating once warm. A flush
// costs O(tuples shipped) however many stay buffered behind a stall.
func (ex *exec) flushResultsLocked(force bool) {
	if ex.resFlush != nil {
		ex.resFlush.Stop()
		ex.resFlush = nil
	}
	credit := int64(ex.eng.cfg.ResultCredit)
	start := ex.resHead
	for start < len(ex.resBuf) {
		n := len(ex.resBuf) - start
		if n > ex.eng.cfg.ResultBatch {
			n = ex.eng.cfg.ResultBatch
		}
		if credit > 0 && !force {
			avail := ex.resLimit - ex.resSent
			if avail <= 0 {
				ex.shippedResBuf(start)
				ex.stallResultsLocked()
				return
			}
			if int64(n) > avail {
				n = int(avail)
			}
		}
		// Frames carry one window each: cut at the first window change.
		w := ex.resBuf[start].w
		k := 1
		for k < n && ex.resBuf[start+k].w == w {
			k++
		}
		rm := getResultMsg()
		rm.ID = ex.id
		rm.Window = w
		for i := 0; i < k; i++ {
			rm.Tuples = append(rm.Tuples, ex.resBuf[start+i].t)
		}
		start += k
		ex.resSent += int64(k)
		ex.eng.qstats.resultBatches.Add(1)
		ex.eng.qstats.resultTuples.Add(uint64(k))
		if !ex.resFirstBuf.IsZero() {
			// One observation per flush episode: oldest buffered tuple
			// to first frame on the wire.
			lat := ex.eng.env.Now().Sub(ex.resFirstBuf)
			ex.eng.flushLatHist().Observe(lat.Seconds())
			if ex.spans != nil {
				ex.span(trace.StageResultFlush, ex.resFirstBuf, lat, fmt.Sprintf("%d tuples w%d", k, w))
			}
			ex.resFirstBuf = time.Time{}
		}
		if ex.spans != nil && (ex.spans.Len() > 0 || ex.spans.Drops() > 0) {
			// Piggyback the drained span buffer on the result frame:
			// span delivery inherits the channel's batching and credit
			// window, so tracing cannot cause its own incast.
			rm.Spans, rm.SpanDrops = ex.spans.Drain()
		}
		ex.eng.env.Send(ex.initiator, rm)
	}
	ex.shippedResBuf(start)
	if ex.resStall != nil {
		ex.resStall.Stop()
		ex.resStall = nil
	}
}

// shippedResBuf advances the buffer's head to n. Shipped slots are
// cleared so their tuples are not pinned; the rest stay where they are,
// and the backing array is reused from its start once the buffer
// empties — unless one giant burst grew it, in which case it is
// released rather than retained forever.
func (ex *exec) shippedResBuf(n int) {
	clear(ex.resBuf[ex.resHead:n])
	ex.resHead = n
	if n < len(ex.resBuf) {
		return
	}
	ex.resHead = 0
	if cap(ex.resBuf) > 4096 {
		ex.resBuf = nil
		return
	}
	ex.resBuf = ex.resBuf[:0]
}

// stallResultsLocked arms the credit stall-refresh: if no grant
// arrives within CreditRefresh — the grant was lost, the in-flight
// frames were, or the initiator is gone — the executor re-opens one
// window on its own and retries. Under sustained loss the channel
// degrades to one window per refresh period per sender instead of
// deadlocking; the chaos harness's termination invariant leans on
// this. The caller holds resMu.
func (ex *exec) stallResultsLocked() {
	if ex.resStall != nil {
		return
	}
	ex.eng.qstats.creditStalls.Add(1)
	ex.stallStart = ex.eng.env.Now()
	ex.resStall = ex.eng.env.After(ex.eng.cfg.CreditRefresh, func() {
		ex.resMu.Lock()
		ex.resStall = nil
		if !ex.stopped {
			ex.endStallLocked("self-refresh")
			ex.resLimit = ex.resSent + int64(ex.eng.cfg.ResultCredit)
			ex.flushResultsLocked(false)
		}
		ex.resMu.Unlock()
	})
}

// endStallLocked closes the current credit-stall episode with a span
// recording how long the flush waited before how it resumed.
func (ex *exec) endStallLocked(how string) {
	if ex.stallStart.IsZero() {
		return
	}
	ex.span(trace.StageCreditStall, ex.stallStart, ex.eng.env.Now().Sub(ex.stallStart), how)
	ex.stallStart = time.Time{}
}

// onCredit applies a collector grant. Limits are cumulative, so stale
// or reordered grants (and anything below a stall self-refresh) are
// simply ignored. It runs on the query's dispatch shard, concurrent
// with the event loop's emits.
func (ex *exec) onCredit(limit int64) {
	ex.resMu.Lock()
	defer ex.resMu.Unlock()
	if limit <= ex.resLimit {
		return
	}
	ex.resLimit = limit
	if ex.resStall != nil {
		// We were stalled on this credit; resume immediately.
		ex.resStall.Stop()
		ex.resStall = nil
		ex.endStallLocked("grant")
		ex.flushResultsLocked(false)
	}
}

// --- single-table plans -------------------------------------------------

func (ex *exec) startSingle() {
	tbl := &ex.plan.Tables[0]
	if ex.plan.Continuous {
		// Continuous query: consume the stream of arrivals (§7).
		unsub := ex.eng.prov.OnNewData(tbl.NS, func(it *storage.Item) {
			if row := tbl.baseRow(it.Payload); row != nil {
				ex.onRow(row)
			}
		})
		ex.unsubs = append(ex.unsubs, unsub)
		return
	}
	// One-shot: local snapshot at query arrival (dilated-reachable
	// snapshot semantics, §3.3.1).
	t0 := ex.eng.env.Now()
	scanned := 0
	ex.eng.prov.Scan(tbl.NS, func(it *storage.Item) bool {
		scanned++
		if row := tbl.baseRow(it.Payload); row != nil {
			ex.onRow(row)
		}
		return true
	})
	if ex.spans != nil {
		ex.span(trace.StageScan, t0, ex.eng.env.Now().Sub(t0), fmt.Sprintf("%s: %d scanned", tbl.NS, scanned))
	}
	if len(ex.plan.Aggs) > 0 {
		ex.flushPartials()
	}
}

// --- symmetric hash join (§4.1) -----------------------------------------

// rehashScan filters, projects, and rehashes one table into NQ, keyed by
// the concatenated join attribute values. A non-nil Bloom filter prunes
// the rehash (§4.2).
func (ex *exec) rehashScan(side int, f *bloom.Filter) {
	tbl := &ex.plan.Tables[side]
	t0 := ex.eng.env.Now()
	puts := 0
	ex.eng.prov.Scan(tbl.NS, func(it *storage.Item) bool {
		proj := tbl.baseRow(it.Payload)
		if proj == nil {
			return true
		}
		key := JoinKeyString(proj, tbl.JoinCols)
		if f != nil && !f.Test(key) {
			return true
		}
		puts++
		ex.eng.prov.Put(ex.nq, ex.rehashRID(key), ex.eng.env.Rand().Int63(), &sideTuple{Side: side, T: proj}, ex.plan.TTL)
		return true
	})
	if ex.spans != nil {
		ex.span(trace.StageRehash, t0, ex.eng.env.Now().Sub(t0), fmt.Sprintf("%s: %d puts", tbl.NS, puts))
	}
}

// rehashRID maps a join key to its NQ resourceID. With ComputeNodes set,
// keys collapse into that many buckets so the join runs at (about) that
// many computation nodes; the probe then re-checks key equality.
func (ex *exec) rehashRID(key string) string {
	k := ex.plan.ComputeNodes
	if k <= 0 {
		return key
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return fmt.Sprintf("bkt%d", h%uint32(k))
}

// sameJoinKey re-checks key equality for bucketed rehash namespaces.
func (ex *exec) sameJoinKey(a, b *sideTuple) bool {
	if ex.plan.ComputeNodes <= 0 {
		return true
	}
	ka := JoinKeyString(a.T, ex.plan.Tables[a.Side].JoinCols)
	kb := JoinKeyString(b.T, ex.plan.Tables[b.Side].JoinCols)
	return ka == kb
}

// registerProbe probes NQ on every arrival of a T: the new item pairs
// with all previously stored items of the opposite table, so every
// matching pair is produced exactly once ("interleaving building and
// probing of hash tables on each input relation", §4.1). The symmetric
// hash and Bloom joins probe sideTuples (pairSide), the semi-join
// rewrite miniTuples (pairMini).
//
// Rehashed items from nodes that received the query multicast early can
// land here before this node's own copy of the query arrives; a catch-up
// pass pairs each unordered pair of those pre-existing items exactly
// once. New arrivals pair against all stored items, these included,
// through the probe, so no pair is produced twice.
func registerProbe[T env.Message](ex *exec, pair func(mine T, other *storage.Item)) {
	unsub := ex.eng.prov.OnNewData(ex.nq, func(it *storage.Item) {
		mine, ok := it.Payload.(T)
		if !ok {
			return
		}
		// This get is expected to stay local (§4.1).
		ex.eng.prov.Get(ex.nq, it.ResourceID, func(items []*storage.Item) {
			for _, other := range items {
				if other != it {
					pair(mine, other)
				}
			}
		})
	})
	ex.unsubs = append(ex.unsubs, unsub)
	// The scan runs in (resourceID, instanceID) order, so the items
	// sharing a resourceID are adjacent.
	var pre []*storage.Item
	ex.eng.prov.Scan(ex.nq, func(it *storage.Item) bool {
		pre = append(pre, it)
		return true
	})
	for i, first := 0, 0; i < len(pre); i++ {
		if pre[i].ResourceID != pre[first].ResourceID {
			first = i
		}
		if mine, ok := pre[i].Payload.(T); ok {
			for _, other := range pre[first:i] {
				pair(mine, other)
			}
		}
	}
}

// pairSide joins a rehashed tuple with a stored one of the opposite
// table.
func (ex *exec) pairSide(st *sideTuple, other *storage.Item) {
	ot, ok := other.Payload.(*sideTuple)
	if !ok || ot.Side == st.Side || !ex.sameJoinKey(st, ot) {
		return
	}
	if st.Side == 0 {
		ex.onRow(Concat(st.T, ot.T))
	} else {
		ex.onRow(Concat(ot.T, st.T))
	}
}

// --- Fetch Matches (§4.1) -----------------------------------------------

// startFetchMatches scans the outer table and issues one DHT get per
// tuple against the inner table, which must already be hashed on the
// join attribute. Selections on the inner table cannot be pushed into
// the DHT, so they run after the fetch, at this node.
func (ex *exec) startFetchMatches() {
	t0, t1 := &ex.plan.Tables[0], &ex.plan.Tables[1]
	ex.eng.prov.Scan(t0.NS, func(it *storage.Item) bool {
		proj0 := t0.baseRow(it.Payload)
		if proj0 == nil {
			return true
		}
		key := JoinKeyString(proj0, t0.JoinCols)
		issued := ex.eng.env.Now()
		ex.eng.prov.Get(t1.NS, key, func(items []*storage.Item) {
			if ex.stopped {
				return
			}
			if ex.spans != nil {
				ex.span(trace.StageDHTGet, issued, ex.eng.env.Now().Sub(issued),
					fmt.Sprintf("%s/%s: %d items", t1.NS, key, len(items)))
			}
			for _, sit := range items {
				if proj1 := t1.baseRow(sit.Payload); proj1 != nil {
					ex.onRow(Concat(proj0, proj1))
				}
			}
		})
		return true
	})
}

// --- symmetric semi-join rewrite (§4.2) ----------------------------------

// miniScan rehashes only (resourceID, join key) projections.
func (ex *exec) miniScan(side int) {
	tbl := &ex.plan.Tables[side]
	ex.eng.prov.Scan(tbl.NS, func(it *storage.Item) bool {
		proj := tbl.baseRow(it.Payload)
		if proj == nil {
			return true
		}
		key := JoinKeyString(proj, tbl.JoinCols)
		mini := &miniTuple{Side: side, RID: ValueString(proj.At(tbl.RIDCol)), Key: key}
		ex.eng.prov.Put(ex.nq, ex.rehashRID(key), ex.eng.env.Rand().Int63(), mini, ex.plan.TTL)
		return true
	})
}

// pairMini joins two projections, then fetches the matching base
// tuples of both tables in parallel ("we issue the two joins' fetches
// in parallel since we know both fetches will succeed", §4.2).
func (ex *exec) pairMini(mt *miniTuple, other *storage.Item) {
	om, ok := other.Payload.(*miniTuple)
	if !ok || om.Side == mt.Side || om.Key != mt.Key {
		return
	}
	if mt.Side == 0 {
		ex.pairFetch(mt, om)
	} else {
		ex.pairFetch(om, mt)
	}
}

func (ex *exec) pairFetch(m0, m1 *miniTuple) {
	var rs, ss []*Tuple
	pending := 2
	finish := func() {
		pending--
		if pending != 0 || ex.stopped {
			return
		}
		// Cross product recreates the appropriate number of duplicates.
		for _, r := range rs {
			for _, s := range ss {
				ex.onRow(Concat(r, s))
			}
		}
	}
	ex.fetchSide(0, m0.RID, &rs, finish)
	ex.fetchSide(1, m1.RID, &ss, finish)
}

func (ex *exec) fetchSide(side int, rid string, out *[]*Tuple, done func()) {
	if ex.fetchCache[side] == nil {
		ex.fetchCache[side] = make(map[string]*fetchEntry)
	}
	deliver := func(tuples []*Tuple) {
		*out = append(*out, tuples...)
		done()
	}
	fe, ok := ex.fetchCache[side][rid]
	if ok {
		if fe.done {
			deliver(fe.tuples)
		} else {
			fe.waiters = append(fe.waiters, deliver)
		}
		return
	}
	fe = &fetchEntry{}
	ex.fetchCache[side][rid] = fe
	tbl := &ex.plan.Tables[side]
	issued := ex.eng.env.Now()
	ex.eng.prov.Get(tbl.NS, rid, func(items []*storage.Item) {
		if ex.spans != nil && !ex.stopped {
			ex.span(trace.StageDHTGet, issued, ex.eng.env.Now().Sub(issued),
				fmt.Sprintf("%s/%s: %d items", tbl.NS, rid, len(items)))
		}
		for _, it := range items {
			if proj := tbl.baseRow(it.Payload); proj != nil {
				fe.tuples = append(fe.tuples, proj)
			}
		}
		fe.done = true
		deliver(fe.tuples)
		for _, w := range fe.waiters {
			w(fe.tuples)
		}
		fe.waiters = nil
	})
}

// --- Bloom join rewrite (§4.2) -------------------------------------------

func (ex *exec) startBloom() {
	p := ex.plan
	for side := range p.Tables {
		side := side
		// Collector role: after BloomWait, whoever stores the filters of
		// this table ORs and multicasts them. Scheduling on every node
		// is harmless — only the collector holds items.
		ex.timer(p.BloomWait, func() { ex.emitBloom(side) })

		tbl := &p.Tables[side]
		f := bloom.New(p.BloomBits, p.BloomHashes)
		count := 0
		ex.eng.prov.Scan(tbl.NS, func(it *storage.Item) bool {
			if proj := tbl.baseRow(it.Payload); proj != nil {
				f.Add(JoinKeyString(proj, tbl.JoinCols))
				count++
			}
			return true
		})
		if count > 0 {
			ex.eng.prov.Put(ex.bloomNS(side), "or", ex.eng.nodeIID, &bloomPut{Side: side, F: f}, p.TTL)
		}
	}
}

// emitBloom runs at the collector: OR all received filters for one table
// and multicast the combination.
//
// The combine starts from an empty filter of the plan's dimensions, so
// every honest peer (which built its filter from the same plan) ORs in
// cleanly regardless of scan order. A filter whose geometry does not
// match cannot be combined — and silently skipping it would prune that
// peer's join keys out of the opposite table's rehash: silently
// dropped join rows. On any mismatch the collector degrades to a
// saturated (accept-all) filter instead: the rehash runs unpruned —
// correct, merely unoptimized — and the event is counted in
// QueryStats.BloomFallbacks.
func (ex *exec) emitBloom(side int) {
	p := ex.plan
	comb := bloom.New(p.BloomBits, p.BloomHashes)
	seen, mismatch := false, false
	ex.eng.prov.Scan(ex.bloomNS(side), func(it *storage.Item) bool {
		bp, ok := it.Payload.(*bloomPut)
		if !ok || bp.Side != side {
			return true
		}
		seen = true
		if err := comb.Union(bp.F); err != nil {
			mismatch = true
		}
		return true
	})
	if !seen {
		return
	}
	if mismatch {
		ex.eng.qstats.bloomFallbacks.Add(1)
		comb = bloom.New(p.BloomBits, p.BloomHashes)
		comb.Saturate()
	}
	if ex.spans != nil {
		note := fmt.Sprintf("side %d combined", side)
		if mismatch {
			note += " (geometry mismatch, saturated)"
		}
		ex.span(trace.StageBloomCollect, ex.eng.env.Now(), 0, note)
	}
	ex.eng.prov.Multicast(QueryNS, &bloomDist{ID: ex.id, Side: side, F: comb})
}

// onBloomDist reacts to the OR-ed filter of table `side` by rehashing
// the opposite table, pruned by the filter.
func (ex *exec) onBloomDist(m *bloomDist) {
	if ex.plan.Strategy != BloomJoin || m.Side < 0 || m.Side > 1 || ex.bloomRecv[m.Side] {
		return
	}
	ex.bloomRecv[m.Side] = true
	if ex.spans != nil {
		ex.span(trace.StageBloomDist, ex.eng.env.Now(), 0, fmt.Sprintf("filter for side %d arrived", m.Side))
	}
	ex.rehashScan(1-m.Side, m.F)
}

// --- grouping and aggregation ---------------------------------------------

func (ex *exec) ensureFlusher() {
	if ex.flushStop != nil {
		return
	}
	ex.flushStop = env.Every(ex.eng.env, aggFlushInterval, ex.flushPartials)
}

// stateLifetime bounds the query's temporary DHT state. One-shot
// state is put once and must survive to the TTL; continuous-query
// partials are renewed by every flush, so they only need to outlive
// the window that consumes them — cancelling the query stops the
// renewals and the state dies within this bound instead of at the TTL.
func (ex *exec) stateLifetime() time.Duration {
	p := ex.plan
	if !p.Continuous {
		return p.TTL
	}
	lt := 2 * (p.Every + p.AggWait)
	if lt > p.TTL {
		lt = p.TTL
	}
	return lt
}

// flushPartials re-puts every dirty group's partial state. The stable
// per-node instanceID makes the put a replace, so repeated flushes of a
// monotonically growing state are idempotent at the collector.
func (ex *exec) flushPartials() {
	dirty := ex.groups.dirty
	ex.groups.dirty = nil
	slices.SortFunc(dirty, func(a, b *partialGroup) int { return cmp.Compare(a.rid, b.rid) })
	for _, pg := range dirty {
		pg.dirty = false
		states := make([]*AggState, len(pg.states))
		for i, s := range pg.states {
			c := *s
			states[i] = &c
		}
		rid := pg.rid
		if f := ex.plan.AggFanout; f > 0 {
			// Level-1 site: this node's partials combine at one of f
			// intermediate sites for the group.
			rid = fmt.Sprintf("%s\x1e%d", rid, ex.eng.nodeIID%int64(f))
		}
		ex.eng.prov.Put(ex.aggNS, rid, ex.eng.nodeIID,
			&partialAgg{Window: pg.window, Group: pg.group, States: states}, ex.stateLifetime())
	}
}

// mergePartials is the collectors' one read of the aggregation
// namespace: it merges the partials of window w stored here into one
// group per resourceID, taking the level-1 ones ("<group>\x1e<bucket>",
// see combineLevel1) when level1 is set and the root ones otherwise.
// The scan visits items in (resourceID, instanceID) order, so the
// partials of one resourceID are adjacent and the groups come out
// sorted by resourceID.
func (ex *exec) mergePartials(w int, level1 bool) []*partialGroup {
	var out []*partialGroup
	ex.eng.prov.Scan(ex.aggNS, func(it *storage.Item) bool {
		pa, ok := it.Payload.(*partialAgg)
		if !ok || pa.Window != w {
			return true
		}
		if ex.plan.AggFanout > 0 && strings.ContainsRune(it.ResourceID, 0x1e) != level1 {
			return true // the other level's partial
		}
		var pg *partialGroup
		if n := len(out); n > 0 && out[n-1].rid == it.ResourceID {
			pg = out[n-1]
		} else {
			// Sized by the plan's aggregate list, not the stored partial:
			// partials arrive via DHT puts, so their shape is untrusted.
			pg = ex.plan.newGroup(w, pa.Group, it.ResourceID)
			out = append(out, pg)
		}
		for i, s := range pa.States {
			if i >= len(pg.states) || s == nil {
				break
			}
			pg.states[i].Merge(s)
		}
		return true
	})
	return out
}

// combineLevel1 runs at intermediate aggregation sites: merge the
// partials of each "<group>\x1e<bucket>" rid stored here (the 0x1e
// record separator keeps bucket suffixes unambiguous — group keys can
// contain any printable byte) and forward one combined partial to the
// group root. TestLevel1RidFormat pins the separator so codec and
// storage assumptions cannot drift apart silently.
func (ex *exec) combineLevel1(w int) {
	for _, pg := range ex.mergePartials(w, true) {
		// Stable per-bucket iid so distinct intermediate sites (and
		// re-combines) never collide at the root.
		root := pg.rid[:strings.LastIndexByte(pg.rid, 0x1e)]
		ex.eng.prov.Put(ex.aggNS, root, StableIID(pg.rid),
			&partialAgg{Window: w, Group: pg.group, States: pg.states}, ex.stateLifetime())
	}
}

func (ex *exec) scheduleAggEmit() {
	p := ex.plan
	if !p.Continuous {
		if p.AggFanout > 0 {
			ex.timer(p.AggWait/2, func() { ex.combineLevel1(0) })
		}
		ex.timer(p.AggWait, func() { ex.emitGroups(0) })
		return
	}
	max := p.Windows
	if max <= 0 {
		max = int(p.TTL / p.Every)
	}
	for w := 0; w < max; w++ {
		w := w
		if p.AggFanout > 0 {
			ex.timer(time.Duration(w+1)*p.Every+p.AggWait/2, func() { ex.combineLevel1(w) })
		}
		ex.timer(time.Duration(w+1)*p.Every+p.AggWait, func() { ex.emitGroups(w) })
	}
}

// emitGroups runs at group collectors: merge the partials of window w
// stored locally and ship the finished groups to the initiator.
func (ex *exec) emitGroups(w int) {
	groups := ex.mergePartials(w, false)
	if len(groups) == 0 {
		return
	}
	// The window's groups are complete: feed them through the result
	// channel and flush now rather than waiting out the interval (a
	// credit-stalled remainder stays buffered and retries).
	for _, pg := range groups {
		if t := ex.plan.finish(pg); t != nil {
			ex.emit(t, w)
		}
	}
	ex.flushResults(false)
}
