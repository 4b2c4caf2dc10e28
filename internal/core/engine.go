package core

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
// The result-channel fields (ResultBatch, ResultFlushInterval,
// ResultCredit, CreditRefresh) shape how executors deliver result
// tuples back to the query initiator; like the Bloom filter geometry,
// they should be configured identically on every node of a deployment
// (a mixed deployment stays correct but flow-controls suboptimally).
// New resolves a zero field to its DefaultConfig value.
type Config struct {
	// ResultBatch is the executor-side result buffer's size trigger:
	// once this many output tuples accumulate for the initiator they
	// are flushed as one resultMsg frame. 0 picks the default (32);
	// 1 ships one frame per tuple (the pre-batching behavior when
	// credit is also disabled).
	ResultBatch int
	// ResultFlushInterval bounds how long a buffered result tuple may
	// wait for the size trigger before a timer flushes the buffer
	// anyway. 0 picks the default (200ms).
	ResultFlushInterval time.Duration
	// ResultCredit is the per-sender credit window in tuples: an
	// executor may have at most this many result tuples in flight
	// (sent but not yet granted away by the initiator), so n senders
	// converging on one initiator are collectively bounded instead of
	// melting its inbound link. 0 picks the default (128); negative
	// disables flow control entirely.
	ResultCredit int
	// CreditRefresh is the executor's stall-refresh period: when a
	// sender has buffered results but an exhausted credit window and
	// no grant arrives within this time (grant lost, initiator
	// unreachable, frames dropped by churn), it re-opens one window on
	// its own so the channel throttles under loss instead of
	// deadlocking. 0 picks the default (5s).
	CreditRefresh time.Duration

	// DispatchShards is how many per-query-keyed worker shards the
	// engine spreads result and credit message processing across. All
	// messages of one query run on one shard in FIFO order; different
	// queries drain concurrently. 0 or 1 processes everything inline
	// on the transport event loop — the simulator's mode, since its
	// determinism contract requires execution order to equal delivery
	// order. Real nodes default to GOMAXPROCS (see pier.StartNode).
	DispatchShards int

	// TraceBuf bounds each traced executor's span buffer: once full,
	// further spans are dropped and counted, so a result flood can
	// never grow tracing state without bound. 0 picks the default
	// (256).
	TraceBuf int
	// TraceRetain is how many finished traces an initiator retains
	// for retrieval (EXPLAIN TRACE, the admin trace endpoint) after
	// their queries close. 0 picks the default (16).
	TraceRetain int
}

// DefaultConfig returns the engine defaults, the one table New resolves
// zero fields from.
func DefaultConfig() Config {
	return Config{
		ResultBatch:         32,
		ResultFlushInterval: 200 * time.Millisecond,
		ResultCredit:        128,
		CreditRefresh:       5 * time.Second,
		TraceBuf:            256,
		TraceRetain:         16,
	}
}

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
	// TraceSpans counts spans absorbed by collectors on this node;
	// TraceSpanDrops counts spans reported lost to full buffers
	// (executor-side or collector-side).
	TraceSpans     uint64 `json:"trace_spans"`
	TraceSpanDrops uint64 `json:"trace_span_drops"`
}

// queryCounters is the engine's live counter set behind QueryStats.
// The fields are atomics because dispatch shards increment them off
// the event loop; Engine.QueryStats snapshots them into the plain
// exported struct.
type queryCounters struct {
	resultBatches  atomic.Uint64
	resultTuples   atomic.Uint64
	creditGrants   atomic.Uint64
	creditStalls   atomic.Uint64
	bloomFallbacks atomic.Uint64
	traceSpans     atomic.Uint64
	traceSpanDrops atomic.Uint64
}

// ResultFunc receives one output tuple at the query initiator. window is
// 0 for one-shot queries and the window index for continuous ones.
type ResultFunc func(t *Tuple, window int)

// Observer receives the observed result cardinality of one query window
// at the initiator, after the window closes (next window's first result,
// cancel, or the query's TTL). The statistics catalog registers one to
// correct stale selectivity estimates with measured outcomes.
type Observer func(p *Plan, window, count int)

// collector is the initiator-side state of one running query: the
// application callback plus the per-window result counts the observer
// is fed from. Counts are kept per window because resultMsgs from
// different nodes interleave — a late window-w straggler can arrive
// after window w+1 opened.
type collector struct {
	// mu guards the mutable fields (counts, maxW, closed, credit,
	// tuples, and the span accumulator): the query's dispatch shard
	// mutates them as frames arrive while the event loop closes,
	// cancels, or reads the collector. fn, plan, start, local, and
	// traced are set before the collector is published and never
	// change; contacted is written and read on the event loop only.
	mu sync.Mutex

	fn     ResultFunc
	plan   *Plan
	counts map[int]int
	maxW   int
	// start anchors the window clamp: a resultMsg may never advance
	// window accounting beyond what the plan's Every and the time
	// elapsed since the query was initiated allow (a single crafted
	// window would otherwise permanently close every real window's
	// observer accounting).
	start time.Time
	// credit tracks, per sender, how many result tuples the
	// application callback has drained and the cumulative limit last
	// granted; replenishment grants flow from here.
	credit map[env.Addr]*senderCredit
	// closed is the lowest window not yet reported to the observer;
	// stragglers below it still reach the application callback but are
	// no longer counted, keeping the observer exactly-once per window.
	closed int
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
	// tuples totals the result tuples delivered, for the collect
	// span's note.
	tuples uint64
}

// collectorSpanCap bounds the spans one collector accumulates: with n
// executors each bounded by TraceBuf, the initiator must still bound
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
type Engine struct {
	env  env.Env
	prov *provider.Provider
	cfg  Config

	// mu guards the execs and collectors maps: dispatch shards look
	// queries up while the event loop registers and removes them.
	// Entries' own state has finer-grained locks (collector.mu,
	// exec.resMu); everything outside the result channel still runs
	// exclusively on the event loop.
	mu sync.Mutex

	execs      map[uint64]*exec
	collectors map[uint64]*collector
	dispatch   *dispatcher
	obs        Observer
	ranger     IndexRanger
	nodeIID    int64
	qstats     queryCounters

	// cancelled remembers recently cancelled query ids (bounded FIFO):
	// the cancel and query multicasts are independent best-effort
	// floods, so a node can see the cancel first — or see the query
	// again via a slower flood path — and must not start a cancelled
	// executor that would then live to its TTL.
	cancelled   map[uint64]bool
	cancelOrder []uint64

	// traces retains assembled traces of finished queries initiated
	// here (bounded FIFO of cfg.TraceRetain).
	traces     map[uint64]*trace.Trace
	traceOrder []uint64

	// Latency histograms, observed for every query (tracing not
	// required): end-to-end query duration at collector close, result
	// flush latency at the executors, and per-stage span durations as
	// traced spans reach collectors. All are allocated lazily behind
	// histMu — a simulated node that never runs a query pays nothing
	// for them (the full set is ~2.5KB, the single largest fixed cost
	// per node at 100k-node scale).
	histMu    sync.Mutex
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
	env.OrDefault(&cfg.ResultFlushInterval, def.ResultFlushInterval)
	env.OrDefault(&cfg.CreditRefresh, def.CreditRefresh)
	env.OrDefault(&cfg.DispatchShards, 1)
	env.OrDefault(&cfg.TraceBuf, def.TraceBuf)
	env.OrDefault(&cfg.TraceRetain, def.TraceRetain)
	h := sha1.Sum([]byte(e.Addr()))
	// The maps (execs, collectors, cancelled, traces) and the latency
	// histograms are all allocated lazily at first insert/observe: on
	// most simulated nodes most of them stay nil forever, and nil maps
	// are free to read from.
	eng := &Engine{
		env:     e,
		prov:    prov,
		cfg:     cfg,
		nodeIID: int64(binary.BigEndian.Uint64(h[:8]) >> 1),
	}
	eng.dispatch = newDispatcher(eng, cfg.DispatchShards)
	prov.OnMulticast(eng.onMulticast)
	return eng
}

// Close stops the dispatch shards, running whatever work is still
// queued first. Single-shard (inline) engines have no goroutines and
// Close is a no-op for them, so simulator nodes need not call it.
func (eng *Engine) Close() { eng.dispatch.close() }

// Provider returns the provider the engine runs over.
func (eng *Engine) Provider() *provider.Provider { return eng.prov }

// QueryStats snapshots the engine's result-channel counters.
func (eng *Engine) QueryStats() QueryStats {
	return QueryStats{
		ResultBatches:  eng.qstats.resultBatches.Load(),
		ResultTuples:   eng.qstats.resultTuples.Load(),
		CreditGrants:   eng.qstats.creditGrants.Load(),
		CreditStalls:   eng.qstats.creditStalls.Load(),
		BloomFallbacks: eng.qstats.bloomFallbacks.Load(),
		TraceSpans:     eng.qstats.traceSpans.Load(),
		TraceSpanDrops: eng.qstats.traceSpanDrops.Load(),
	}
}

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
		counts: make(map[int]int),
		start:  eng.env.Now(),
		credit: make(map[env.Addr]*senderCredit),
		traced: p.Trace,
	}
	eng.putCollector(id, c)
	// The distributed execution dies at the TTL; drop the collector (and
	// report the final window) with it.
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
// immediately, and a cancel multicast tears the query's executors down
// network-wide — window timers stop and soft state stops being renewed,
// so the query dies now instead of at its TTL. It reports whether a
// live collector for id existed here (false lets the admin plane answer
// 404 instead of silently acking an unknown id).
func (eng *Engine) Cancel(id uint64) bool {
	eng.mu.Lock()
	c, ok := eng.collectors[id]
	eng.mu.Unlock()
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
	eng.mu.Lock()
	if eng.collectors == nil {
		eng.collectors = make(map[uint64]*collector)
	}
	eng.collectors[id] = c
	eng.mu.Unlock()
}

// closeCollector reports every still-open window to the observer,
// observes the query's end-to-end duration, retains the assembled
// trace (traced queries), and forgets the query.
func (eng *Engine) closeCollector(id uint64) {
	eng.mu.Lock()
	c, ok := eng.collectors[id]
	if ok {
		delete(eng.collectors, id)
	}
	eng.mu.Unlock()
	if !ok {
		return
	}
	c.ttl.Stop()
	now := eng.env.Now()
	c.mu.Lock()
	reports := c.gatherWindowsLocked(c.maxW + 1)
	c.mu.Unlock()
	eng.deliverReports(c.plan, reports)
	eng.queryDurHist().Observe(now.Sub(c.start).Seconds())
	if c.traced {
		c.mu.Lock()
		eng.recordCollectorSpanLocked(c, trace.Span{
			Stage: trace.StageCollect,
			Start: c.start.UnixNano(),
			Dur:   now.Sub(c.start),
			Note:  fmt.Sprintf("%d tuples from %d senders", c.tuples, len(c.credit)),
		})
		tr := eng.assembleTraceLocked(id, c, now.UnixNano())
		c.mu.Unlock()
		eng.retainTrace(id, tr)
	}
}

// assembleTraceLocked builds the causally ordered trace of a traced
// query from the collector's accumulated spans. The caller holds c.mu.
func (eng *Engine) assembleTraceLocked(id uint64, c *collector, finished int64) *trace.Trace {
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
// past the TraceRetain bound.
func (eng *Engine) retainTrace(id uint64, tr *trace.Trace) {
	if eng.traces == nil {
		eng.traces = make(map[uint64]*trace.Trace)
	}
	if _, ok := eng.traces[id]; !ok {
		eng.traceOrder = append(eng.traceOrder, id)
		if len(eng.traceOrder) > eng.cfg.TraceRetain {
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
	eng.mu.Lock()
	c, live := eng.collectors[id]
	eng.mu.Unlock()
	if live {
		if !c.traced {
			return nil, false
		}
		c.mu.Lock()
		tr := eng.assembleTraceLocked(id, c, 0)
		c.mu.Unlock()
		return tr, true
	}
	if tr, ok := eng.traces[id]; ok {
		return tr, true
	}
	return nil, false
}

// recordCollectorSpan records one initiator-side span into the
// collector's bounded accumulator and its stage histogram.
func (eng *Engine) recordCollectorSpan(c *collector, s trace.Span) {
	c.mu.Lock()
	eng.recordCollectorSpanLocked(c, s)
	c.mu.Unlock()
}

// recordCollectorSpanLocked is recordCollectorSpan with c.mu held.
func (eng *Engine) recordCollectorSpanLocked(c *collector, s trace.Span) {
	s.Node = eng.env.Addr()
	s.Seq = c.spanSeq
	c.spanSeq++
	eng.spanDurHist(s.Stage).Observe(s.Dur.Seconds())
	eng.qstats.traceSpans.Add(1)
	if len(c.spans) >= collectorSpanCap {
		c.spanDrops++
		eng.qstats.traceSpanDrops.Add(1)
		return
	}
	c.spans = append(c.spans, s)
}

// absorbSpansLocked folds one result frame's piggybacked spans into
// the collector, bounded by collectorSpanCap, and observes their
// stage histograms. The caller holds c.mu.
func (eng *Engine) absorbSpansLocked(c *collector, spans []trace.Span, drops uint64) {
	c.spanDrops += drops
	eng.qstats.traceSpanDrops.Add(drops)
	for _, s := range spans {
		if !s.Stage.Valid() || s.Dur < 0 {
			continue // simulator paths skip the wire codec's validation
		}
		eng.spanDurHist(s.Stage).Observe(s.Dur.Seconds())
		eng.qstats.traceSpans.Add(1)
		if len(c.spans) >= collectorSpanCap {
			c.spanDrops++
			eng.qstats.traceSpanDrops.Add(1)
			continue
		}
		c.spans = append(c.spans, s)
	}
}

// queryDurHist returns the end-to-end query duration histogram,
// allocating it on first use.
func (eng *Engine) queryDurHist() *trace.Histogram {
	eng.histMu.Lock()
	if eng.hQueryDur == nil {
		eng.hQueryDur = trace.NewHistogram(nil)
	}
	h := eng.hQueryDur
	eng.histMu.Unlock()
	return h
}

// flushLatHist returns the result flush latency histogram, allocating
// it on first use. Dispatch shards and the event loop both observe it.
func (eng *Engine) flushLatHist() *trace.Histogram {
	eng.histMu.Lock()
	if eng.hFlushLat == nil {
		eng.hFlushLat = trace.NewHistogram(nil)
	}
	h := eng.hFlushLat
	eng.histMu.Unlock()
	return h
}

// spanDurHist returns the duration histogram of one trace stage,
// allocating the slice and the stage's histogram on first use.
func (eng *Engine) spanDurHist(stage trace.Stage) *trace.Histogram {
	eng.histMu.Lock()
	if eng.hSpanDur == nil {
		eng.hSpanDur = make([]*trace.Histogram, trace.NumStages)
	}
	h := eng.hSpanDur[stage]
	if h == nil {
		h = trace.NewHistogram(nil)
		eng.hSpanDur[stage] = h
	}
	eng.histMu.Unlock()
	return h
}

// QueryDurations snapshots the end-to-end query duration histogram
// (observed at collector close for every query initiated here).
func (eng *Engine) QueryDurations() trace.HistogramSnapshot {
	eng.histMu.Lock()
	h := eng.hQueryDur
	eng.histMu.Unlock()
	if h == nil {
		return trace.NewHistogram(nil).Snapshot()
	}
	return h.Snapshot()
}

// FlushLatencies snapshots the result flush latency histogram
// (observed at this node's executors: first tuple buffered to frame
// shipped).
func (eng *Engine) FlushLatencies() trace.HistogramSnapshot {
	eng.histMu.Lock()
	h := eng.hFlushLat
	eng.histMu.Unlock()
	if h == nil {
		return trace.NewHistogram(nil).Snapshot()
	}
	return h.Snapshot()
}

// SpanDurations snapshots the per-stage span duration histograms, in
// stage order (observed as traced spans reach this node's collectors).
// Stages never observed render as empty histograms, so the /metrics
// export always carries the full stage set.
func (eng *Engine) SpanDurations() []trace.NamedSnapshot {
	names := trace.StageNames()
	hists := make([]*trace.Histogram, len(names))
	eng.histMu.Lock()
	copy(hists, eng.hSpanDur)
	eng.histMu.Unlock()
	out := make([]trace.NamedSnapshot, len(names))
	for i, name := range names {
		if hists[i] == nil {
			out[i] = trace.NamedSnapshot{Name: name, Hist: trace.NewHistogram(nil).Snapshot()}
			continue
		}
		out[i] = trace.NamedSnapshot{Name: name, Hist: hists[i].Snapshot()}
	}
	return out
}

// windowReport is one closed window's observed cardinality, queued
// for the observer.
type windowReport struct {
	w, n int
}

// gatherWindowsLocked closes every counted window below the given
// bound, exactly once each, and returns their cardinalities in window
// order for delivery to the observer. The caller holds c.mu.
func (c *collector) gatherWindowsLocked(before int) []windowReport {
	if before > c.closed {
		c.closed = before
	}
	var ws []int
	for w := range c.counts {
		if w < before {
			ws = append(ws, w)
		}
	}
	sort.Ints(ws)
	var out []windowReport
	for _, w := range ws {
		n := c.counts[w]
		delete(c.counts, w)
		if n > 0 {
			out = append(out, windowReport{w: w, n: n})
		}
	}
	return out
}

// deliverReports feeds gathered window cardinalities to the observer.
// The statistics catalog behind the observer is event-loop-confined,
// so sharded dispatch Posts the reports back to the loop; inline
// dispatch calls straight through, preserving the simulator's exact
// pre-sharding execution order.
func (eng *Engine) deliverReports(p *Plan, reports []windowReport) {
	if eng.obs == nil || len(reports) == 0 {
		return
	}
	if eng.dispatch.inline() {
		for _, r := range reports {
			eng.obs(p, r.w, r.n)
		}
		return
	}
	eng.env.Post(func() {
		for _, r := range reports {
			eng.obs(p, r.w, r.n)
		}
	})
}

// ActiveExecs returns the number of query executors currently running
// on this node. The chaos harness's termination invariant asserts it
// reaches zero once every query's TTL has passed.
func (eng *Engine) ActiveExecs() int {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	return len(eng.execs)
}

// OpenCollectors returns the number of queries initiated on this node
// whose collectors are still registered (not yet cancelled or expired).
func (eng *Engine) OpenCollectors() int {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	return len(eng.collectors)
}

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
	// executors (every participating node does, the initiator
	// included).
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
	eng.mu.Lock()
	defer eng.mu.Unlock()
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
// credit grants at executors), returning false for anything else. The
// two result-channel messages are not processed here but handed to the
// query's dispatch shard; with one shard that is an inline call and
// this behaves exactly as it reads.
func (eng *Engine) HandleMessage(from env.Addr, m env.Message) bool {
	switch msg := m.(type) {
	case *resultMsg:
		eng.dispatch.enqueue(task{from: from, rm: msg})
		return true
	case *creditMsg:
		eng.dispatch.enqueue(task{from: from, cm: msg})
		return true
	}
	return false
}

// onResult is the initiator side of the result channel: count the
// window, drain the tuples into the application callback, and
// replenish the sender's credit. It runs on the query's dispatch
// shard; the application callback is invoked outside the collector
// lock (per-shard FIFO already serializes it per query) so a callback
// that re-enters the engine cannot deadlock.
func (eng *Engine) onResult(from env.Addr, rm *resultMsg) {
	eng.mu.Lock()
	c, ok := eng.collectors[rm.ID]
	eng.mu.Unlock()
	if !ok {
		return
	}
	now := eng.env.Now()
	c.mu.Lock()
	// The window index arrived over the network. Clamp it to what the
	// plan's Every and the elapsed time allow: a crafted (or buggy)
	// huge window would otherwise jump c.maxW, and gatherWindows would
	// permanently close every real window's observer accounting — and
	// skew the stats catalog's cardinality feedback.
	if rm.Window < 0 || rm.Window > c.allowedWindow(now) {
		c.mu.Unlock()
		return
	}
	if rm.Window >= c.closed {
		c.counts[rm.Window] += len(rm.Tuples)
	}
	var reports []windowReport
	if rm.Window > c.maxW {
		c.maxW = rm.Window
		// Windows more than one behind the watermark are closed;
		// the one-window grace absorbs cross-node stragglers.
		reports = c.gatherWindowsLocked(c.maxW - 1)
	}
	c.tuples += uint64(len(rm.Tuples))
	if c.traced && (len(rm.Spans) > 0 || rm.SpanDrops > 0) {
		eng.absorbSpansLocked(c, rm.Spans, rm.SpanDrops)
	}
	c.mu.Unlock()
	eng.deliverReports(c.plan, reports)
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
	c.mu.Lock()
	sc := c.credit[from]
	if sc == nil {
		sc = &senderCredit{granted: w}
		c.credit[from] = sc
	}
	sc.received += int64(n)
	// <= rather than <: with a 1-tuple window w/2 is 0, and headroom
	// can never drop below it — strictly-less would then never grant
	// and the sender would trickle one tuple per CreditRefresh.
	grant := int64(0)
	if sc.granted-sc.received <= w/2 {
		sc.granted = sc.received + w
		grant = sc.granted
	}
	c.mu.Unlock()
	if grant > 0 {
		eng.qstats.creditGrants.Add(1)
		eng.env.Send(from, &creditMsg{ID: id, Limit: grant})
		if c.traced {
			eng.recordCollectorSpan(c, trace.Span{
				Stage: trace.StageCreditGrant,
				Start: eng.env.Now().UnixNano(),
				Note:  fmt.Sprintf("%s limit=%d", from, grant),
			})
		}
	}
}

func (eng *Engine) onMulticast(origin env.Addr, ns string, payload env.Message) {
	if ns != QueryNS {
		return
	}
	switch m := payload.(type) {
	case *queryMsg:
		eng.mu.Lock()
		_, running := eng.execs[m.ID]
		eng.mu.Unlock()
		if running {
			return
		}
		if eng.cancelled[m.ID] {
			return
		}
		// The plan arrived over the network; a crafted or corrupt one
		// (no tables, mismatched join columns) must be dropped here,
		// not panic the executor on the event loop.
		if m.Plan == nil || m.Plan.Validate() != nil {
			return
		}
		ex := newExec(eng, m)
		eng.mu.Lock()
		if eng.execs == nil {
			eng.execs = make(map[uint64]*exec)
		}
		eng.execs[m.ID] = ex
		eng.mu.Unlock()
		ex.start()
		ex.timer(m.Plan.TTL, func() { eng.endExec(m.ID, ex) })
	case *bloomDist:
		eng.mu.Lock()
		ex := eng.execs[m.ID]
		eng.mu.Unlock()
		if ex != nil {
			ex.onBloomDist(m)
		}
	case *cancelMsg:
		eng.rememberCancelled(m.ID)
		eng.mu.Lock()
		ex := eng.execs[m.ID]
		eng.mu.Unlock()
		if ex != nil {
			eng.endExec(m.ID, ex)
		}
	}
}

// endExec ends an executor, on cancel or at its TTL: stop releases
// everything the executor holds, its own TTL timer included, and the
// engine forgets it.
func (eng *Engine) endExec(id uint64, ex *exec) {
	ex.stop()
	eng.mu.Lock()
	delete(eng.execs, id)
	eng.mu.Unlock()
}

// rememberCancelled records a cancelled query id so a late or re-flooded
// queryMsg cannot restart it, evicting the oldest past the memo bound.
func (eng *Engine) rememberCancelled(id uint64) {
	if eng.cancelled[id] {
		return
	}
	if eng.cancelled == nil {
		eng.cancelled = make(map[uint64]bool)
	}
	eng.cancelled[id] = true
	eng.cancelOrder = append(eng.cancelOrder, id)
	if len(eng.cancelOrder) > cancelMemo {
		delete(eng.cancelled, eng.cancelOrder[0])
		eng.cancelOrder = eng.cancelOrder[1:]
	}
}
