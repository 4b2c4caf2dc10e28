package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"

	"pier/internal/core/bloom"
	"pier/internal/dht"
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
	ns        [4]string // the query's temporary namespaces (tempNamespaces)
	startAt   time.Time

	unsubs  []func()
	timers  []env.Timer
	ttl     env.Timer // armed after start unless the executor ended in it
	stopped bool
	// busy counts what can still produce output here: the start itself,
	// each unfinished scan and each unanswered Fetch Matches get, each
	// released by one done; and each subscription, timer and partial
	// flusher, held until stop. At zero the buffered rows ship.
	busy int

	bloom *[2]bloomSide // Bloom joins only

	// fetchCache memoizes semi-join base-tuple fetches per (side, rid):
	// an S tuple matched by several R projections is fetched once per
	// probing node, not once per pair.
	fetchCache [2]map[string]*fetchEntry

	groups    groupSet // drained of dirty groups by flushPartials
	flushStop func()

	// Result channel state: output tuples accumulate in resBuf and are
	// shipped to the initiator in batched frames (by size, when the
	// executor's local output is complete, and by a short timer) under
	// a credit window, instead of one unicast frame per tuple — the
	// per-tuple incast melts the initiator's link once n nodes answer a
	// selective query at once.
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
		spans = trace.NewBuffer(traceBuf)
	}
	var ns [4]string // only joins and aggregates keep temporary state
	if len(m.Plan.Tables) == 2 || len(m.Plan.Aggs) > 0 {
		ns = tempNamespaces(m.ID)
	}
	return &exec{
		spans:     spans,
		eng:       eng,
		id:        m.ID,
		initiator: m.Initiator,
		plan:      m.Plan,
		ns:        ns,
		startAt:   eng.env.Now(),
		busy:      1, // the start, released at its end
		// The bootstrap credit window is implicit: the initiator's
		// ledger assumes every sender starts with one ResultCredit
		// window, so no registration round-trip is needed before the
		// first results flow.
		resLimit: int64(eng.cfg.ResultCredit),
	}
}

// tempNamespaces names every namespace query id keeps temporary state
// in, indexed by nsRehash (NQ, "a new unique DHT namespace" for
// rehashed tuples, §4.1), nsBloom0+side (a table's Bloom filters, at
// their collector) and nsAgg (partial aggregates, at the group
// collectors): "q<id in hex>" and tempSuffixes. The engine drops them
// all when the query ends on a node.
func tempNamespaces(id uint64) (ns [4]string) {
	nq := fmt.Sprintf("q%x", id)
	for k, suffix := range tempSuffixes {
		ns[k] = nq + suffix
	}
	return ns
}

var tempSuffixes = [4]string{"", ".bloom0", ".bloom1", ".agg"}

const nsRehash, nsBloom0, nsAgg = 0, 1, 3

// tempSlot reports which of query id's temporary namespaces ns is (its
// tempNamespaces index), or -1, without allocating.
func tempSlot(ns string, id uint64) int {
	var buf [17]byte
	q := strconv.AppendUint(append(buf[:0], 'q'), id, 16)
	if !strings.HasPrefix(ns, string(q)) {
		return -1
	}
	return slices.Index(tempSuffixes[:], ns[len(q):])
}

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
			ex.rehashScan(0, nil, nil)
			ex.rehashScan(1, nil, nil)
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
	// Output complete inside start (a scan that fits in one slice, gets
	// answered at this node) ships here, with the executor span.
	ex.done()
}

// done releases one unit of busy. The last ships the buffered rows,
// within credit, and that flush's settle ends the executor once they
// have left.
func (ex *exec) done() {
	if ex.busy--; ex.busy == 0 && !ex.stopped {
		ex.flushResults(false)
	}
}

// settle is the executor lifecycle's one check, made after every
// flush: an executor with work left (busy) or rows buffered lives on;
// one with neither ends now, as nothing it could still do would reach
// the initiator. Joins, aggregates and continuous queries hold their
// subscriptions and timers, so they end at their cancel or TTL.
func (ex *exec) settle() {
	if ex.stopped || ex.busy > 0 || ex.resHead < len(ex.resBuf) {
		return
	}
	ex.stop()
	delete(ex.eng.execs, ex.id)
}

// stop ends the executor: from settle, or on cancel or at the TTL
// through Engine.endExec. It ends every subscription and timer the
// executor holds, the TTL timer included, so once the engine forgets
// the exec only DHT gets still in flight reference it; and its forced
// flush ships what the result and span buffers still hold, exactly
// once. The query's DHT state here is not the executor's: endExec
// drops it next.
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
	if ex.ttl != nil {
		ex.ttl.Stop()
	}
	if ex.flushStop != nil {
		ex.flushStop()
	}
	ex.flushResults(true)
}

// timer schedules f; it holds the executor until stop cancels it.
func (ex *exec) timer(d time.Duration, f func()) {
	ex.timers = append(ex.timers, ex.eng.env.After(d, f))
	ex.busy++
}

// onNewData subscribes f to the arrivals in ns; the subscription holds
// the executor until stop ends it.
func (ex *exec) onNewData(ns string, f func(*storage.Item)) {
	ex.unsubs = append(ex.unsubs, ex.eng.prov.OnNewData(ns, f))
	ex.busy++
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
	if len(ex.groups.dirty) > 0 && ex.flushStop == nil && (len(ex.plan.Tables) == 2 || ex.plan.Continuous) {
		ex.startFlusher()
	}
}

// emit routes one output tuple into the per-initiator result buffer.
// With ResultBatch 1 and flow control off every tuple flushes at once
// in its own frame (the per-tuple baseline the incast experiment
// measures against).
func (ex *exec) emit(t *Tuple, window int) {
	cfg := &ex.eng.cfg
	if len(ex.resBuf) == 0 {
		ex.resFirstBuf = ex.eng.env.Now()
	}
	ex.resBuf = append(ex.resBuf, resultItem{w: window, t: t})
	if len(ex.resBuf)-ex.resHead >= cfg.ResultBatch {
		ex.flushResults(false)
		return
	}
	if ex.resFlush == nil {
		ex.resFlush = ex.eng.env.After(resultFlushPeriod, func() {
			ex.resFlush = nil
			ex.flushResults(false)
		})
	}
}

// flushResults ships buffered result tuples to the initiator in
// frames of at most ResultBatch tuples, one window per frame, stopping
// when the credit window is exhausted. Frames come from the shared pool
// and their Tuples slices reuse recycled capacity; the buffer keeps its
// backing array across flush cycles so a steady result stream stops
// allocating once warm. A flush costs O(tuples shipped) however many
// stay buffered behind a stall.
//
// The forced flush is stop's: the executor is going away, so it ships
// every row left even past the credit window (a burst bounded by the
// buffer; a cancelled query's collector may be closed and drop it), and
// spans that no row frame carried leave in a zero-tuple last frame,
// which is not a result batch.
func (ex *exec) flushResults(force bool) {
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
				ex.stallResults()
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
		rm.Window = w
		for i := 0; i < k; i++ {
			rm.Tuples = append(rm.Tuples, ex.resBuf[start+i].t)
		}
		start += k
		ex.resSent += int64(k)
		ex.eng.qstats.ResultBatches++
		ex.eng.qstats.ResultTuples += uint64(k)
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
		ex.ship(rm)
	}
	ex.shippedResBuf(start)
	if ex.resStall != nil {
		ex.resStall.Stop()
		ex.resStall = nil
	}
	if force && ex.spans != nil && (ex.spans.Len() > 0 || ex.spans.Drops() > 0) {
		rm := getResultMsg()
		rm.Window = ex.window()
		ex.ship(rm)
	}
	ex.settle()
}

// ship sends frame rm to the initiator with the spans recorded since
// the last frame: span delivery inherits the channel's batching and
// credit window, so tracing cannot cause its own incast.
func (ex *exec) ship(rm *resultMsg) {
	rm.ID = ex.id
	if ex.spans != nil {
		rm.Spans, rm.SpanDrops = ex.spans.Drain()
	}
	ex.eng.env.Send(ex.initiator, rm)
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

// stallResults arms the credit stall-refresh: if no grant arrives
// within creditRefresh — the grant was lost, the in-flight frames were,
// or the initiator is gone — the executor re-opens one window on its
// own and retries. Under sustained loss the channel degrades to one
// window per refresh period per sender instead of deadlocking; the
// chaos harness's termination invariant leans on this.
func (ex *exec) stallResults() {
	if ex.resStall != nil {
		return
	}
	ex.eng.qstats.CreditStalls++
	ex.stallStart = ex.eng.env.Now()
	ex.resStall = ex.eng.env.After(creditRefresh, func() {
		ex.resStall = nil
		ex.endStall("self-refresh")
		ex.resLimit = ex.resSent + int64(ex.eng.cfg.ResultCredit)
		ex.flushResults(false)
	})
}

// endStall closes the current credit-stall episode with a span
// recording how long the flush waited before how it resumed.
func (ex *exec) endStall(how string) {
	if ex.stallStart.IsZero() {
		return
	}
	ex.span(trace.StageCreditStall, ex.stallStart, ex.eng.env.Now().Sub(ex.stallStart), how)
	ex.stallStart = time.Time{}
}

// onCredit applies a collector grant. Limits are cumulative, so stale
// or reordered grants (and anything below a stall self-refresh) are
// simply ignored.
func (ex *exec) onCredit(limit int64) {
	if limit <= ex.resLimit {
		return
	}
	ex.resLimit = limit
	if ex.resStall != nil {
		// We were stalled on this credit; resume immediately.
		ex.resStall.Stop()
		ex.resStall = nil
		ex.endStall("grant")
		ex.flushResults(false)
	}
}

// --- single-table plans -------------------------------------------------

// startSingle runs a single-table plan.
func (ex *exec) startSingle() {
	tbl := &ex.plan.Tables[0]
	if ex.plan.Continuous {
		// Continuous query: consume the stream of arrivals (§7).
		ex.onNewData(tbl.NS, func(it *storage.Item) {
			if row := tbl.baseRow(it.Payload); row != nil {
				ex.onRow(row)
			}
		})
		return
	}
	// One-shot: local snapshot at query arrival (dilated-reachable
	// snapshot semantics, §3.3.1).
	t0 := ex.eng.env.Now()
	scanned := 0
	ex.scan(tbl.NS, func(it *storage.Item) {
		scanned++
		if row := tbl.baseRow(it.Payload); row != nil {
			ex.onRow(row)
		}
	}, func() {
		if ex.spans != nil {
			ex.span(trace.StageScan, t0, ex.eng.env.Now().Sub(t0), fmt.Sprintf("%s: %d scanned", tbl.NS, scanned))
		}
		if len(ex.plan.Aggs) > 0 {
			ex.flushPartials()
		}
	})
}

// scanSlice is how many resourceIDs of a base table an executor's scan
// visits in one event-loop turn; between slices the loop serves result
// frames, credit grants and client calls.
const scanSlice = 4096

// scan is every executor scan of a base table: f gets its local items,
// a slice a turn, then done runs (if set) and the scan releases its
// unit of busy. A slice that finds the executor stopped does nothing. A
// table that fits in one slice is scanned, and done run, before scan
// returns.
func (ex *exec) scan(ns string, f func(*storage.Item), done func()) {
	c := ex.eng.prov.Store().Cursor(ns)
	visit := func(it *storage.Item) bool { f(it); return true }
	ex.busy++
	var step func()
	step = func() {
		if ex.stopped {
			return
		}
		if c.Next(scanSlice, visit) {
			ex.eng.env.Post(step)
			return
		}
		if done != nil {
			done()
		}
		ex.done()
	}
	step()
}

// --- symmetric hash join (§4.1) -----------------------------------------

// rehashScan filters, projects, and rehashes one table into NQ, keyed by
// the concatenated join attribute values. A non-nil Bloom filter prunes
// the rehash (§4.2), and a row that one of the earlier filters passed
// was rehashed already.
func (ex *exec) rehashScan(side int, f *bloom.Filter, earlier []*bloom.Filter) {
	tbl := &ex.plan.Tables[side]
	t0 := ex.eng.env.Now()
	puts := 0
	ex.scan(tbl.NS, func(it *storage.Item) {
		proj := tbl.baseRow(it.Payload)
		if proj == nil {
			return
		}
		key := JoinKeyString(proj, tbl.JoinCols)
		if f != nil && !f.Test(key) {
			return
		}
		for _, e := range earlier {
			if e.Test(key) {
				return
			}
		}
		puts++
		ex.eng.prov.Put(ex.ns[nsRehash], ex.rehashRID(key), ex.eng.env.Rand().Int63(), &sideTuple{Side: side, T: proj}, ex.plan.TTL)
	}, func() {
		if ex.spans != nil {
			ex.span(trace.StageRehash, t0, ex.eng.env.Now().Sub(t0), fmt.Sprintf("%s: %d puts", tbl.NS, puts))
		}
	})
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
	ex.onNewData(ex.ns[nsRehash], func(it *storage.Item) {
		mine, ok := it.Payload.(T)
		if !ok {
			return
		}
		// This get is expected to stay local (§4.1).
		ex.eng.prov.Get(ex.ns[nsRehash], it.ResourceID, func(items []*storage.Item) {
			for _, other := range items {
				if other != it {
					pair(mine, other)
				}
			}
		})
	})
	// The scan runs in (resourceID, instanceID) order, so the items
	// sharing a resourceID are adjacent.
	var pre []*storage.Item
	ex.eng.prov.Scan(ex.ns[nsRehash], func(it *storage.Item) bool {
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
// the DHT, so they run after the fetch, at this node. Each get holds
// the executor until it answers (Get always calls back: with the
// owner's reply, or nil on a timeout or a failed lookup).
func (ex *exec) startFetchMatches() {
	t0, t1 := &ex.plan.Tables[0], &ex.plan.Tables[1]
	ex.scan(t0.NS, func(it *storage.Item) {
		proj0 := t0.baseRow(it.Payload)
		if proj0 == nil {
			return
		}
		key := JoinKeyString(proj0, t0.JoinCols)
		issued := ex.eng.env.Now()
		ex.busy++
		ex.eng.prov.Get(t1.NS, key, func(items []*storage.Item) {
			defer ex.done()
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
	}, nil)
}

// --- symmetric semi-join rewrite (§4.2) ----------------------------------

// miniScan rehashes only (resourceID, join key) projections.
func (ex *exec) miniScan(side int) {
	tbl := &ex.plan.Tables[side]
	ex.scan(tbl.NS, func(it *storage.Item) {
		proj := tbl.baseRow(it.Payload)
		if proj == nil {
			return
		}
		key := JoinKeyString(proj, tbl.JoinCols)
		mini := &miniTuple{Side: side, RID: ValueString(proj.At(tbl.RIDCol)), Key: key}
		ex.eng.prov.Put(ex.ns[nsRehash], ex.rehashRID(key), ex.eng.env.Rand().Int63(), mini, ex.plan.TTL)
	}, nil)
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

// bloomRID is the one resourceID of a table's Bloom namespace: every
// node's contribution lands at the same collector.
const bloomRID = "or"

// bloomSide is one table's Bloom state on this node. recv holds the
// combined filters this executor has rehashed by; a collector emits at
// most twice, so at most two. The rest is the collector's: the shares
// heard per contributor, their 128-bit sum, and the emission rule's
// progress.
type bloomSide struct {
	recv    []*bloom.Filter
	shares  map[int64]uint64
	hi, lo  uint64
	emitted int  // emissions so far
	byWait  bool // the first emission was BloomWait's
	late    int  // contributions since the first emission
	over    bool // counted in QueryStats.BloomOvercovered
}

// startBloom puts this node's filter of each table, with its share of
// the key space, to the table's collector, and plays the collector
// where it owns the collector key.
func (ex *exec) startBloom() {
	p := ex.plan
	ex.bloom = new([2]bloomSide)
	for side := range p.Tables {
		side := side
		ns := ex.ns[nsBloom0+side]
		if ex.eng.prov.Router().Owns(dht.KeyOf(ns, bloomRID)) {
			// Contributions can beat the query here; count them first.
			ex.eng.prov.Scan(ns, func(it *storage.Item) bool {
				ex.addShare(side, it)
				return true
			})
			ex.onNewData(ns, func(it *storage.Item) {
				if ex.addShare(side, it) {
					ex.bloomTrigger(side, false)
				}
			})
			if ex.bloom[side].covered() {
				ex.bloomTrigger(side, false)
			}
		}
		// Any node still holding filters at BloomWait emits them: only
		// the collector normally does.
		ex.timer(p.BloomWait, func() { ex.bloomTrigger(side, true) })

		tbl := &p.Tables[side]
		f := bloom.New(p.BloomBits, p.BloomHashes)
		count := 0
		ex.scan(tbl.NS, func(it *storage.Item) {
			if proj := tbl.baseRow(it.Payload); proj != nil {
				f.Add(JoinKeyString(proj, tbl.JoinCols))
				count++
			}
		}, func() {
			put := &bloomPut{Side: side, Share: ex.eng.prov.Router().Share()}
			if count > 0 {
				put.F = f
			}
			ex.eng.prov.Put(ns, bloomRID, ex.eng.nodeIID, put, p.TTL)
		})
	}
}

// addShare records one stored contribution at the collector, keyed by
// its instanceID so that a re-put replaces its share. It reports
// whether the item was a contribution to this side.
func (ex *exec) addShare(side int, it *storage.Item) bool {
	bp, ok := it.Payload.(*bloomPut)
	if !ok || bp.Side != side {
		return false
	}
	bs := &ex.bloom[side]
	if bs.shares == nil {
		bs.shares = make(map[int64]uint64)
	}
	var c uint64
	bs.lo, c = bits.Sub64(bs.lo, bs.shares[it.InstanceID], 0)
	bs.hi -= c
	bs.lo, c = bits.Add64(bs.lo, bp.Share, 0)
	bs.hi += c
	bs.shares[it.InstanceID] = bp.Share
	if bs.emitted > 0 {
		bs.late++
	}
	if !bs.over && (bs.hi > 0 || bs.lo > dht.WholeSpace) {
		bs.over = true
		ex.eng.qstats.BloomOvercovered++
	}
	return true
}

// covered reports whether the shares heard sum to the whole space.
func (bs *bloomSide) covered() bool { return bs.hi == 0 && bs.lo == dht.WholeSpace }

// bloomTrigger applies the emission rule at one of its two triggers,
// BloomWait (wait) or the shares summing to exactly the whole space
// (every owner has reported): the first trigger emits, and the other
// emits again only if contributions arrived in between. Everything
// that arrives before BloomWait is combined, and a forged or
// overlapping share can only make the first emission early.
func (ex *exec) bloomTrigger(side int, wait bool) {
	bs := &ex.bloom[side]
	if !wait && !bs.covered() {
		return
	}
	switch {
	case bs.emitted == 0:
		if !ex.emitBloom(side) {
			return
		}
		bs.byWait = wait
	case bs.emitted == 1 && bs.byWait != wait && bs.late > 0:
		ex.emitBloom(side)
		ex.eng.qstats.BloomLateFilters += uint64(bs.late)
	default:
		return
	}
	bs.emitted++
	if !wait {
		ex.eng.qstats.BloomComplete++
	}
}

// emitBloom runs at the collector: OR all received filters for one table
// and multicast the combination. It reports whether it had any
// contribution to combine.
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
func (ex *exec) emitBloom(side int) bool {
	p := ex.plan
	comb := bloom.New(p.BloomBits, p.BloomHashes)
	seen, mismatch := false, false
	ex.eng.prov.Scan(ex.ns[nsBloom0+side], func(it *storage.Item) bool {
		bp, ok := it.Payload.(*bloomPut)
		if !ok || bp.Side != side {
			return true
		}
		seen = true
		if bp.F != nil && comb.Union(bp.F) != nil {
			mismatch = true
		}
		return true
	})
	if !seen {
		return false
	}
	if mismatch {
		ex.eng.qstats.BloomFallbacks++
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
	return true
}

// onBloomDist reacts to an OR-ed filter of table `side` by rehashing
// the opposite table, pruned by the filter. A second filter for the
// side rehashes only the rows that no earlier one passed, so every row
// is rehashed at most once.
func (ex *exec) onBloomDist(m *bloomDist) {
	if ex.bloom == nil || m.Side < 0 || m.Side > 1 || len(ex.bloom[m.Side].recv) == 2 {
		return
	}
	bs := &ex.bloom[m.Side]
	earlier := bs.recv
	bs.recv = append(bs.recv, m.F)
	if ex.spans != nil {
		ex.span(trace.StageBloomDist, ex.eng.env.Now(), 0, fmt.Sprintf("filter for side %d arrived", m.Side))
	}
	ex.rehashScan(1-m.Side, m.F, earlier)
}

// --- grouping and aggregation ---------------------------------------------

// startFlusher re-puts the dirty partials every aggFlushInterval; the
// flusher holds the executor until stop ends it.
func (ex *exec) startFlusher() {
	ex.flushStop = env.Every(ex.eng.env, aggFlushInterval, ex.flushPartials)
	ex.busy++
}

// stateLifetime is the lifetime of the query's temporary DHT state. A
// cancel, or the TTL, drops all of it at once (Engine.endExec); the
// lifetime only bounds state the drop misses, such as a put still in
// flight. One-shot state is put once and must survive to the TTL.
// Continuous-query partials are renewed by every flush, so they only
// need to outlive the window that consumes them: this bounds how long
// the past windows of a live continuous query stay stored.
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
		ex.eng.prov.Put(ex.ns[nsAgg], rid, ex.eng.nodeIID,
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
	ex.eng.prov.Scan(ex.ns[nsAgg], func(it *storage.Item) bool {
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
		ex.eng.prov.Put(ex.ns[nsAgg], root, StableIID(pg.rid),
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
