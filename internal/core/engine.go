package core

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"pier/internal/dht/provider"
	"pier/internal/env"
	"pier/internal/trace"
)

// QueryNS is the namespace query-dissemination multicasts are tagged
// with.
const QueryNS = "pier.query"

// Config controls one engine instance.
//
// The result-channel fields (ResultBatch, ResultCredit) shape how
// executors deliver result tuples back to the query initiator; like the
// Bloom filter geometry, they should be configured identically on every
// node of a deployment (a mixed deployment stays correct but
// flow-controls suboptimally). New resolves a zero field to its
// DefaultConfig value.
type Config struct {
	// ResultBatch is the executor-side result buffer's size trigger:
	// once this many output tuples accumulate for the initiator they
	// are flushed as one resultMsg frame. 0 picks the default (32);
	// 1 ships one frame per tuple (the pre-batching behavior when
	// credit is also disabled).
	ResultBatch int
	// ResultCredit is the per-sender credit window in tuples: an
	// executor may have at most this many result tuples in flight
	// (sent but not yet granted away by the initiator), so n senders
	// converging on one initiator are collectively bounded instead of
	// melting its inbound link. 0 picks the default (128); negative
	// disables flow control entirely.
	ResultCredit int
}

// DefaultConfig returns the engine defaults, the one table New resolves
// zero fields from.
func DefaultConfig() Config {
	return Config{
		ResultBatch:  32,
		ResultCredit: 128,
	}
}

const (
	// resultFlushPeriod bounds how long a buffered result tuple may
	// wait for the size trigger, or for its executor's local output to
	// complete, before a timer flushes the buffer anyway. Only output
	// with no local end waits it out: rehash joins' pairs, continuous
	// queries, and rows between a multi-slice scan's slices.
	resultFlushPeriod = 200 * time.Millisecond
	// creditRefresh is the executor's stall-refresh period: when a
	// sender has buffered results but an exhausted credit window and
	// no grant arrives within this time (grant lost, initiator
	// unreachable, frames dropped by churn), it re-opens one window on
	// its own so the channel throttles under loss instead of
	// deadlocking.
	creditRefresh = 5 * time.Second
	// traceBuf bounds each traced executor's span buffer: once full,
	// further spans are dropped and counted, so a result flood can
	// never grow tracing state without bound.
	traceBuf = 256
)

// traceRetain is how many finished traces an initiator retains for
// retrieval (EXPLAIN TRACE, the admin trace endpoint) after their
// queries close.
const traceRetain = 16

// aggFlushInterval is how often dirty partial aggregates are re-put
// while a join or stream keeps feeding them.
const aggFlushInterval = time.Second

// QueryStats counts engine-level result-channel and robustness events,
// in the style of env.LinkStats: monotone uint64 counters, snapshotted
// through Engine.QueryStats. Sender-side counters (batches, tuples,
// stalls) increment on the node running the executor; collector-side
// counters (grants) on the query initiator. The JSON names are part of
// the admin plane's REST contract (GET /api/status serves this struct
// as "query_channel").
type QueryStats struct {
	// ResultBatches counts result frames shipped to initiators;
	// ResultTuples counts the tuples they carried.
	// ResultTuples/ResultBatches is the result channel's coalescing
	// factor (per-tuple delivery pins it at 1).
	ResultBatches uint64 `json:"result_batches"`
	ResultTuples  uint64 `json:"result_tuples"`
	// CreditGrants counts creditMsg grants issued by collectors on
	// this node.
	CreditGrants uint64 `json:"credit_grants"`
	// CreditStalls counts executor stall episodes: a flush found
	// buffered results but an exhausted credit window.
	CreditStalls uint64 `json:"credit_stalls"`
	// BloomFallbacks counts Bloom-join filter combines degraded to a
	// saturated (accept-all) filter because a peer's filter arrived
	// with mismatched geometry and could not be OR-ed.
	BloomFallbacks uint64 `json:"bloom_fallbacks"`
	// BloomComplete counts Bloom collector emissions made because the
	// contributors' key-space shares summed to the whole space;
	// BloomLateFilters counts contributions that only a collector's
	// second emission merged; BloomOvercovered counts collectors whose
	// shares summed past the whole space (zones owned twice).
	BloomComplete    uint64 `json:"bloom_complete"`
	BloomLateFilters uint64 `json:"bloom_late_filters"`
	BloomOvercovered uint64 `json:"bloom_overcovered"`
	// TraceSpans counts spans absorbed by collectors on this node;
	// TraceSpanDrops counts spans reported lost to full buffers
	// (executor-side or collector-side).
	TraceSpans     uint64 `json:"trace_spans"`
	TraceSpanDrops uint64 `json:"trace_span_drops"`
}

// ResultFunc receives one output tuple at the query initiator. window is
// 0 for one-shot queries and the window index for continuous ones.
type ResultFunc func(t *Tuple, window int)

// Observer receives the number of result tuples a one-shot query
// delivered at its initiator, once, when the query's collector closes
// (cancel or TTL) having delivered at least one. Continuous queries are
// never reported: a window's count covers only that window's arrivals.
// The statistics catalog registers one to correct stale selectivity
// estimates with measured outcomes.
type Observer func(p *Plan, count int)

// collector is the initiator-side state of one running query: the
// application callback and what the query has delivered so far.
type collector struct {
	fn   ResultFunc
	plan *Plan
	// start anchors the window clamp: a resultMsg may never carry a
	// window beyond what the plan's Every and the time elapsed since
	// the query was initiated allow.
	start time.Time
	// credit tracks, per sender, how many result tuples the
	// application callback has drained and the cumulative limit last
	// granted; replenishment grants flow from here.
	credit map[env.Addr]*senderCredit
	ttl    env.Timer
	// contacted is the trie-node count of a completed index traversal
	// (index-scan queries only; see Engine.IndexContacts).
	contacted int
	// local marks a query executed entirely on the initiator (index
	// access path): nothing was multicast, so Cancel has nothing to
	// tear down remotely.
	local bool
	// traced marks a query whose executors record trace spans; the
	// collector accumulates them (bounded) as result frames arrive.
	traced    bool
	spans     []trace.Span
	spanDrops uint64
	spanSeq   uint32
	// tuples totals the result tuples delivered: the observer's count
	// and the collect span's note.
	tuples uint64
}

// collectorSpanCap bounds the spans one collector accumulates: with n
// executors each bounded by traceBuf, the initiator must still bound
// its own memory against a large or hostile deployment.
const collectorSpanCap = 4096

// senderCredit is the collector's per-sender flow-control ledger.
type senderCredit struct {
	// received counts tuples delivered (and drained through the
	// application callback) from this sender.
	received int64
	// granted is the cumulative limit last issued to the sender.
	granted int64
}

// allowedWindow is the highest window index a result may legitimately
// carry right now: 0 for one-shot plans, and for continuous plans the
// window currently open at the initiator plus one of grace (executor
// clocks start at query arrival, slightly after the collector's, and
// real deployments skew a little).
func (c *collector) allowedWindow(now time.Time) int {
	if !c.plan.Continuous {
		return 0
	}
	return int(now.Sub(c.start)/c.plan.Every) + 1
}

// Engine is the per-node PIER query processor. One instance runs on
// every participating node; any node can initiate queries.
//
// The engine is confined to its node's event loop, on real nodes as in
// the simulator: every entry point — messages, multicasts, timers and
// the application calls a RealNode marshals through Do — runs there,
// one at a time, so nothing in the engine takes a lock, and result
// callbacks run on the loop in arrival order.
type Engine struct {
	env  env.Env
	prov *provider.Provider
	cfg  Config

	execs      map[uint64]*exec
	collectors map[uint64]*collector
	obs        Observer
	ranger     IndexRanger
	nodeIID    int64
	qstats     QueryStats

	// cancelled remembers the last cancelMemo cancelled query ids, a
	// FIFO overwritten at cancelNext once full: the cancel and query
	// multicasts are independent best-effort floods, so a node can see
	// the cancel first — or see the query again via a slower flood
	// path — and must not start a cancelled executor.
	cancelled  []uint64
	cancelNext int

	// traces retains assembled traces of finished queries initiated
	// here (bounded FIFO of traceRetain).
	traces     map[uint64]*trace.Trace
	traceOrder []uint64

	// Latency histograms, observed for every query (tracing not
	// required): end-to-end query duration at collector close, result
	// flush latency at the executors, and per-stage span durations as
	// traced spans reach collectors. All are allocated lazily — a
	// simulated node that never runs a query pays nothing for them (the
	// full set is ~2.5KB, the single largest fixed cost per node at
	// 100k-node scale).
	hQueryDur *trace.Histogram
	hFlushLat *trace.Histogram
	hSpanDur  []*trace.Histogram
}

// cancelMemo bounds the remembered cancelled-id set.
const cancelMemo = 128

// New creates the engine and hooks it into the provider's multicast
// delivery. The caller routes non-DHT messages through HandleMessage.
func New(e env.Env, prov *provider.Provider, cfg Config) *Engine {
	def := DefaultConfig()
	if cfg.ResultBatch == 0 {
		cfg.ResultBatch = def.ResultBatch
	}
	if cfg.ResultBatch < 1 {
		cfg.ResultBatch = 1
	}
	if cfg.ResultCredit == 0 {
		cfg.ResultCredit = def.ResultCredit
	}
	if cfg.ResultCredit < 0 {
		cfg.ResultCredit = 0 // negative: flow control explicitly off
	}
	h := sha1.Sum([]byte(e.Addr()))
	// The maps (execs, collectors, traces), the cancel memo and the latency
	// histograms are all allocated lazily at first insert/observe: on
	// most simulated nodes most of them stay nil forever, and nil maps
	// are free to read from.
	eng := &Engine{
		env:     e,
		prov:    prov,
		cfg:     cfg,
		nodeIID: int64(binary.BigEndian.Uint64(h[:8]) >> 1),
	}
	prov.OnMulticast(eng.onMulticast)
	return eng
}

// Provider returns the provider the engine runs over.
func (eng *Engine) Provider() *provider.Provider { return eng.prov }

// QueryStats snapshots the engine's result-channel counters.
func (eng *Engine) QueryStats() QueryStats { return eng.qstats }

// SetObserver registers the cardinality-feedback sink for queries
// initiated on this node (nil disables).
func (eng *Engine) SetObserver(fn Observer) { eng.obs = fn }

// Run validates the plan, registers the result collector, and multicasts
// the query instructions to all nodes. It returns the query id.
func (eng *Engine) Run(p *Plan, onResult ResultFunc) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	id := eng.env.Rand().Uint64()
	c := &collector{
		fn:     onResult,
		plan:   p,
		start:  eng.env.Now(),
		credit: make(map[env.Addr]*senderCredit),
		traced: p.Trace,
	}
	eng.putCollector(id, c)
	// The distributed execution dies at the TTL; drop the collector (and
	// report the query's count) with it.
	c.ttl = eng.env.After(p.TTL, func() { eng.closeCollector(id) })
	if eng.indexRunnable(p) {
		// Index access path: traverse the PHT from here instead of
		// multicasting the plan to every node (§4.3's missing range
		// lookup, closed by internal/index).
		c.local = true
		eng.runIndexQuery(id, p)
		return id, nil
	}
	eng.prov.Multicast(QueryNS, &queryMsg{ID: id, Initiator: eng.env.Addr(), Trace: p.Trace, Plan: p})
	return id, nil
}

// Cancel stops a query started on this node: the collector goes
// immediately, and a cancel multicast ends the query on every node it
// reaches — the executor stops, and the query's temporary namespaces
// are dropped from the node's store — so the query and its state die
// now instead of at its TTL. It reports whether a live collector for id
// existed here (false lets the admin plane answer 404 instead of
// silently acking an unknown id).
func (eng *Engine) Cancel(id uint64) bool {
	c, ok := eng.collectors[id]
	if !ok {
		return false
	}
	local := c.local
	eng.closeCollector(id)
	if !local {
		// Initiator-side index queries never multicast, so there are
		// no remote executors to tear down.
		eng.prov.Multicast(QueryNS, &cancelMsg{ID: id})
	}
	return true
}

// putCollector registers a query's collector, allocating the map on
// first use.
func (eng *Engine) putCollector(id uint64, c *collector) {
	if eng.collectors == nil {
		eng.collectors = make(map[uint64]*collector)
	}
	eng.collectors[id] = c
}

// closeCollector reports a one-shot query's count to the observer,
// observes the query's end-to-end duration, retains the assembled
// trace (traced queries), and forgets the query.
func (eng *Engine) closeCollector(id uint64) {
	c, ok := eng.collectors[id]
	if !ok {
		return
	}
	delete(eng.collectors, id)
	c.ttl.Stop()
	now := eng.env.Now()
	if eng.obs != nil && !c.plan.Continuous && c.tuples > 0 {
		eng.obs(c.plan, int(c.tuples))
	}
	eng.queryDurHist().Observe(now.Sub(c.start).Seconds())
	if c.traced {
		eng.recordCollectorSpan(c, trace.Span{
			Stage: trace.StageCollect,
			Start: c.start.UnixNano(),
			Dur:   now.Sub(c.start),
			Note:  fmt.Sprintf("%d tuples from %d senders", c.tuples, len(c.credit)),
		})
		eng.retainTrace(id, eng.assembleTrace(id, c, now.UnixNano()))
	}
}

// assembleTrace builds the causally ordered trace of a traced query
// from the collector's accumulated spans.
func (eng *Engine) assembleTrace(id uint64, c *collector, finished int64) *trace.Trace {
	tr := &trace.Trace{
		QueryID:  id,
		Root:     eng.env.Addr(),
		Started:  c.start.UnixNano(),
		Finished: finished,
		Spans:    append([]trace.Span(nil), c.spans...),
		Drops:    c.spanDrops,
	}
	tr.Sort()
	return tr
}

// retainTrace keeps a finished trace retrievable, evicting the oldest
// past the traceRetain bound.
func (eng *Engine) retainTrace(id uint64, tr *trace.Trace) {
	if eng.traces == nil {
		eng.traces = make(map[uint64]*trace.Trace)
	}
	if _, ok := eng.traces[id]; !ok {
		eng.traceOrder = append(eng.traceOrder, id)
		if len(eng.traceOrder) > traceRetain {
			delete(eng.traces, eng.traceOrder[0])
			eng.traceOrder = eng.traceOrder[1:]
		}
	}
	eng.traces[id] = tr
}

// Trace returns the trace of a traced query initiated on this node:
// the partial trace of a still-live query (Finished zero), or the
// retained trace of a finished one. ok is false for unknown ids and
// for queries that were not traced.
func (eng *Engine) Trace(id uint64) (*trace.Trace, bool) {
	if c, live := eng.collectors[id]; live {
		if !c.traced {
			return nil, false
		}
		return eng.assembleTrace(id, c, 0), true
	}
	if tr, ok := eng.traces[id]; ok {
		return tr, true
	}
	return nil, false
}

// recordCollectorSpan records one initiator-side span into the
// collector's bounded accumulator and its stage histogram.
func (eng *Engine) recordCollectorSpan(c *collector, s trace.Span) {
	s.Node = eng.env.Addr()
	s.Seq = c.spanSeq
	c.spanSeq++
	eng.absorbSpans(c, []trace.Span{s}, 0)
}

// absorbSpans folds spans — a result frame's piggybacked ones, or one
// of the collector's own — into the collector, bounded by
// collectorSpanCap, and observes their stage histograms.
func (eng *Engine) absorbSpans(c *collector, spans []trace.Span, drops uint64) {
	c.spanDrops += drops
	eng.qstats.TraceSpanDrops += drops
	for _, s := range spans {
		if !s.Stage.Valid() || s.Dur < 0 {
			continue // simulator paths skip the wire codec's validation
		}
		eng.spanDurHist(s.Stage).Observe(s.Dur.Seconds())
		eng.qstats.TraceSpans++
		if len(c.spans) >= collectorSpanCap {
			c.spanDrops++
			eng.qstats.TraceSpanDrops++
			continue
		}
		c.spans = append(c.spans, s)
	}
}

// lazyHist returns *h, allocating it on first use.
func lazyHist(h **trace.Histogram) *trace.Histogram {
	if *h == nil {
		*h = trace.NewHistogram(nil)
	}
	return *h
}

// queryDurHist returns the end-to-end query duration histogram.
func (eng *Engine) queryDurHist() *trace.Histogram { return lazyHist(&eng.hQueryDur) }

// flushLatHist returns the result flush latency histogram.
func (eng *Engine) flushLatHist() *trace.Histogram { return lazyHist(&eng.hFlushLat) }

// spanDurHist returns the duration histogram of one trace stage.
func (eng *Engine) spanDurHist(stage trace.Stage) *trace.Histogram {
	if eng.hSpanDur == nil {
		eng.hSpanDur = make([]*trace.Histogram, trace.NumStages)
	}
	return lazyHist(&eng.hSpanDur[stage])
}

// snapshot copies h, rendering a never-observed (nil) histogram empty.
func snapshot(h *trace.Histogram) trace.HistogramSnapshot {
	if h == nil {
		h = trace.NewHistogram(nil)
	}
	return h.Snapshot()
}

// QueryDurations snapshots the end-to-end query duration histogram
// (observed at collector close for every query initiated here).
func (eng *Engine) QueryDurations() trace.HistogramSnapshot { return snapshot(eng.hQueryDur) }

// FlushLatencies snapshots the result flush latency histogram
// (observed at this node's executors: first tuple buffered to frame
// shipped).
func (eng *Engine) FlushLatencies() trace.HistogramSnapshot { return snapshot(eng.hFlushLat) }

// SpanDurations snapshots the per-stage span duration histograms, in
// stage order (observed as traced spans reach this node's collectors).
// Stages never observed render as empty histograms, so the /metrics
// export always carries the full stage set.
func (eng *Engine) SpanDurations() []trace.NamedSnapshot {
	names := trace.StageNames()
	out := make([]trace.NamedSnapshot, len(names))
	for i, name := range names {
		var h *trace.Histogram
		if eng.hSpanDur != nil {
			h = eng.hSpanDur[i]
		}
		out[i] = trace.NamedSnapshot{Name: name, Hist: snapshot(h)}
	}
	return out
}

// ActiveExecs returns the number of query executors with work left on
// this node: an executor ends once it holds no work (exec.settle), or
// at its query's cancel or TTL. The chaos harness's termination
// invariant asserts it reaches zero once every query's TTL has passed.
func (eng *Engine) ActiveExecs() int { return len(eng.execs) }

// OpenCollectors returns the number of queries initiated on this node
// whose collectors are still registered (not yet cancelled or expired).
func (eng *Engine) OpenCollectors() int { return len(eng.collectors) }

// QueryInfo describes one query alive on this node, as surfaced by the
// admin plane (GET /api/queries) and walked by pier-node's graceful
// drain.
type QueryInfo struct {
	// ID is the query id (Cancel's argument). It serializes as a
	// decimal string: ids are full uint64s, beyond what JSON consumers
	// can hold in a float64.
	ID uint64 `json:"id,string"`
	// Initiator is true when this node runs the query's collector —
	// the only role Cancel can tear down network-wide from here.
	Initiator bool `json:"initiator"`
	// Executor is true when this node runs one of the query's
	// executors and it has work left (every participating node starts
	// one, the initiator included).
	Executor bool `json:"executor"`
	// Tables names the plan's input relations.
	Tables []string `json:"tables"`
	// Continuous marks a windowed continuous query.
	Continuous bool `json:"continuous"`
	// Started is when this node first saw the query (collector
	// registration or executor start, whichever exists).
	Started time.Time `json:"started"`
}

// LiveQueries lists the queries currently alive on this node — one
// entry per id, merging the collector and executor roles — sorted by
// id for deterministic output.
func (eng *Engine) LiveQueries() []QueryInfo {
	infos := make(map[uint64]*QueryInfo)
	at := func(id uint64) *QueryInfo {
		qi := infos[id]
		if qi == nil {
			qi = &QueryInfo{ID: id}
			infos[id] = qi
		}
		return qi
	}
	for id, c := range eng.collectors {
		qi := at(id)
		qi.Initiator = true
		qi.Continuous = c.plan.Continuous
		qi.Started = c.start
		for _, tr := range c.plan.Tables {
			qi.Tables = append(qi.Tables, tr.NS)
		}
	}
	for id, ex := range eng.execs {
		qi := at(id)
		qi.Executor = true
		qi.Continuous = ex.plan.Continuous
		if qi.Started.IsZero() {
			qi.Started = ex.startAt
			for _, tr := range ex.plan.Tables {
				qi.Tables = append(qi.Tables, tr.NS)
			}
		}
	}
	out := make([]QueryInfo, 0, len(infos))
	for _, id := range env.SortedKeys(infos) {
		out = append(out, *infos[id])
	}
	return out
}

// HandleMessage consumes engine messages (results at the initiator,
// credit grants at executors), returning false for anything else.
// Inbound result frames are owned by the engine on every delivery path
// — decoded from the wire, loopback self-send, or simulator pointer
// delivery — so once onResult has consumed one it goes back to the
// frame pool.
func (eng *Engine) HandleMessage(from env.Addr, m env.Message) bool {
	switch msg := m.(type) {
	case *resultMsg:
		eng.onResult(from, msg)
		msg.Recycle()
		return true
	case *creditMsg:
		// Grants for queries whose executor already stopped (TTL,
		// cancel) are simply stale; drop them.
		if ex := eng.execs[msg.ID]; ex != nil {
			ex.onCredit(msg.Limit)
		}
		return true
	}
	return false
}

// onResult is the initiator side of the result channel: count the
// tuples, drain them into the application callback, and replenish the
// sender's credit.
func (eng *Engine) onResult(from env.Addr, rm *resultMsg) {
	c, ok := eng.collectors[rm.ID]
	if !ok {
		return
	}
	// The window index arrived over the network. Clamp it to what the
	// plan's Every and the elapsed time allow: a crafted (or buggy)
	// window would otherwise reach the application as one the query
	// never had, and its tuples would skew the count the observer gets.
	if rm.Window < 0 || rm.Window > c.allowedWindow(eng.env.Now()) {
		return
	}
	c.tuples += uint64(len(rm.Tuples))
	if c.traced && (len(rm.Spans) > 0 || rm.SpanDrops > 0) {
		eng.absorbSpans(c, rm.Spans, rm.SpanDrops)
	}
	for _, t := range rm.Tuples {
		c.fn(t, rm.Window)
	}
	eng.replenishCredit(c, rm.ID, from, len(rm.Tuples))
}

// replenishCredit advances one sender's cumulative delivery limit as
// the application callback drains its frames. The first frame from a
// sender registers it in the collector's ledger (its bootstrap window
// is implicit — senders start with ResultCredit of their own); a grant
// is issued whenever the sender's remaining headroom has fallen below
// half a window, so the steady-state costs one small reverse frame per
// ~half window of results, not one per batch.
func (eng *Engine) replenishCredit(c *collector, id uint64, from env.Addr, n int) {
	w := int64(eng.cfg.ResultCredit)
	if w <= 0 || c.local {
		return
	}
	sc := c.credit[from]
	if sc == nil {
		sc = &senderCredit{granted: w}
		c.credit[from] = sc
	}
	sc.received += int64(n)
	// Grant at half a window of headroom or less, not strictly less:
	// with a 1-tuple window w/2 is 0, headroom never drops below it,
	// and the sender would trickle one tuple per creditRefresh.
	if sc.granted-sc.received > w/2 {
		return
	}
	sc.granted = sc.received + w
	eng.qstats.CreditGrants++
	eng.env.Send(from, &creditMsg{ID: id, Limit: sc.granted})
	if c.traced {
		eng.recordCollectorSpan(c, trace.Span{
			Stage: trace.StageCreditGrant,
			Start: eng.env.Now().UnixNano(),
			Note:  fmt.Sprintf("%s limit=%d", from, sc.granted),
		})
	}
}

func (eng *Engine) onMulticast(origin env.Addr, ns string, payload env.Message) {
	if ns != QueryNS {
		return
	}
	switch m := payload.(type) {
	case *queryMsg:
		if _, running := eng.execs[m.ID]; running || slices.Contains(eng.cancelled, m.ID) {
			return
		}
		// The plan arrived over the network; a crafted or corrupt one
		// (no tables, mismatched join columns) must be dropped here,
		// not panic the executor on the event loop.
		if m.Plan == nil || m.Plan.Validate() != nil {
			return
		}
		ex := newExec(eng, m)
		if eng.execs == nil {
			eng.execs = make(map[uint64]*exec)
		}
		eng.execs[m.ID] = ex
		if ex.start(); !ex.stopped {
			ex.ttl = eng.env.After(m.Plan.TTL, func() { eng.endExec(m.ID, ex) })
		}
	case *bloomDist:
		if ex := eng.execs[m.ID]; ex != nil {
			ex.onBloomDist(m)
		}
	case *cancelMsg:
		eng.rememberCancelled(m.ID)
		eng.endExec(m.ID, eng.execs[m.ID])
	}
}

// endExec ends query id on this node, on cancel or at its executor's
// TTL: stop releases everything the executor holds, its own TTL timer
// included, the engine forgets it, and the query's temporary namespaces
// that this node holds are dropped from the local store. A cancel ends
// the query here even where no executor runs (ex nil), because other
// nodes' rehashes can arrive before the query does, or without it.
func (eng *Engine) endExec(id uint64, ex *exec) {
	if ex != nil {
		ex.stop()
		delete(eng.execs, id)
	}
	var held [4]string
	eng.prov.Store().EachNamespace(func(ns string) {
		if k := tempSlot(ns, id); k >= 0 {
			held[k] = ns
		}
	})
	for _, ns := range held {
		eng.prov.Drop(ns) // "" holds nothing
	}
}

// rememberCancelled records a cancelled query id so a late or re-flooded
// queryMsg cannot restart it, overwriting the oldest past the memo bound.
func (eng *Engine) rememberCancelled(id uint64) {
	switch {
	case slices.Contains(eng.cancelled, id):
	case len(eng.cancelled) < cancelMemo:
		eng.cancelled = append(eng.cancelled, id)
	default:
		eng.cancelled[eng.cancelNext] = id
		eng.cancelNext = (eng.cancelNext + 1) % cancelMemo
	}
}
