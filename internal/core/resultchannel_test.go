package core

// Result-channel and collector-lifecycle tests. These run the real
// engine over the discrete-event simulator — the same mini-stack
// pier.buildNode assembles (CAN router, provider, engine), without the
// root package's extras — so credit flow, stall refresh, window
// clamping, and stop-flush semantics are exercised over actual
// (fault-injectable) message delivery.

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"pier/internal/core/bloom"
	"pier/internal/dht/can"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
	"pier/internal/trace"
)

type harness struct {
	net     *simnet.Network
	engines []*Engine
	provs   []*provider.Provider
	sm      *can.SpaceMap
}

func newHarness(n int, seed int64, cfg Config) *harness {
	return newHarnessWith(n, seed, cfg, provider.Config{})
}

// newHarnessWith is newHarness with a provider configuration.
func newHarnessWith(n int, seed int64, cfg Config, pcfg provider.Config) *harness {
	h := &harness{net: simnet.New(topology.NewFullMesh(), seed)}
	var routers []*can.Router
	for i := 0; i < n; i++ {
		e := h.net.AddNode()
		rt := can.New(e, can.DefaultConfig())
		prov := provider.New(e, rt, pcfg, nil)
		eng := New(e, prov, cfg)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if rt.HandleMessage(from, m) {
				return
			}
			if prov.HandleMessage(from, m) {
				return
			}
			eng.HandleMessage(from, m)
		}))
		routers = append(routers, rt)
		h.engines = append(h.engines, eng)
		h.provs = append(h.provs, prov)
	}
	h.sm = can.Bootstrap(routers, seed^0x51ca90)
	return h
}

// load stores a tuple directly at the node owning (ns, rid) — like
// pier.SimNetwork.Load; an item parked anywhere else would be handed
// off to its owner once events run, racing the query's snapshot scan.
func (h *harness) load(ns, rid string, iid int64, t *Tuple) {
	h.provs[h.sm.OwnerOf(ns, rid)].StoreLocal(
		&storage.Item{Namespace: ns, ResourceID: rid, InstanceID: iid, Payload: t})
}

// ridsOwnedBy generates n distinct resourceIDs of namespace ns that
// hash to node i, so a test can park a whole relation on one chosen
// sender.
func (h *harness) ridsOwnedBy(i int, ns string, n int) []string {
	var out []string
	for c := 0; len(out) < n; c++ {
		rid := fmt.Sprintf("r%d", c)
		if h.sm.OwnerOf(ns, rid) == i {
			out = append(out, rid)
		}
	}
	return out
}

func scanPlan(ns string, ttl time.Duration) *Plan {
	return &Plan{Tables: []TableRef{{NS: ns, RIDCol: 0}}, TTL: ttl}
}

// tracedSpans returns the spans of stage st in the initiator's trace
// of query id. It fails if the query left no trace, or if the trace
// dropped spans, which could hide the ones a test looks for.
func tracedSpans(t *testing.T, initiator *Engine, id uint64, st trace.Stage) []trace.Span {
	t.Helper()
	tr, ok := initiator.Trace(id)
	if !ok {
		t.Fatalf("query %d not traced", id)
	}
	if tr.Drops != 0 {
		t.Fatalf("query %d: trace dropped %d spans", id, tr.Drops)
	}
	var out []trace.Span
	for _, s := range tr.Spans {
		if s.Stage == st {
			out = append(out, s)
		}
	}
	return out
}

// requireGrantDriven fails unless every credit stall of the traced
// query id ended with a collector grant: the initiator's trace must
// hold one "grant" credit-stall span per stall episode the sender
// counted, no "self-refresh" span, and no dropped span that could hide
// one.
func requireGrantDriven(t *testing.T, initiator, sender *Engine, id uint64) {
	t.Helper()
	ends := map[string]uint64{}
	for _, s := range tracedSpans(t, initiator, id, trace.StageCreditStall) {
		ends[s.Note]++
	}
	stalls := sender.QueryStats().CreditStalls
	if stalls == 0 || ends["grant"] != stalls || len(ends) != 1 {
		t.Fatalf("%d stall episodes ended as %v, want every one by a grant", stalls, ends)
	}
}

// TestResultCallbackRunsOnCaller pins the engine's threading contract:
// HandleMessage runs the result callback before it returns, on the
// caller — the node's event loop — so delivery order is execution
// order on every node, simulated or real.
func TestResultCallbackRunsOnCaller(t *testing.T) {
	h := newHarness(1, 5, DefaultConfig())
	ran := false
	id, err := h.engines[0].Run(scanPlan("T", time.Hour), func(*Tuple, int) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	rm := getResultMsg()
	rm.ID = id
	rm.Tuples = append(rm.Tuples, &Tuple{Rel: "T", Vals: []Value{int64(0)}})
	h.engines[0].HandleMessage("sim:1", rm)
	if !ran {
		t.Fatal("HandleMessage returned before the result callback ran")
	}
}

func TestLateResultAfterTTLCloseIgnored(t *testing.T) {
	h := newHarness(2, 91, DefaultConfig())
	h.load("T", "1", 1, &Tuple{Rel: "T", Vals: []Value{int64(1)}})

	got := 0
	id, err := h.engines[0].Run(scanPlan("T", 5*time.Second), func(*Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(3 * time.Second)
	if got != 1 {
		t.Fatalf("got %d results before TTL", got)
	}
	// TTL passes: the collector closes.
	h.net.RunFor(10 * time.Second)
	if h.engines[0].OpenCollectors() != 0 {
		t.Fatal("collector still open after TTL")
	}
	// A straggler frame for the closed query must be consumed quietly:
	// no panic, no callback, still claimed as an engine message.
	late := &resultMsg{ID: id, Window: 0, Tuples: []*Tuple{{Rel: "T", Vals: []Value{int64(9)}}}}
	if !h.engines[0].HandleMessage("sim:1", late) {
		t.Fatal("late resultMsg not claimed by the engine")
	}
	if got != 1 {
		t.Fatalf("late frame reached the callback: got %d", got)
	}
	// Same for a late credit grant with no live executor behind it.
	if !h.engines[1].HandleMessage("sim:0", &creditMsg{ID: id, Limit: 1 << 40}) {
		t.Fatal("late creditMsg not claimed by the engine")
	}
}

func TestCancelMidStreamFlushesBufferExactlyOnce(t *testing.T) {
	// A continuous query's arrivals have no local end, so with a huge
	// batch size they park in the executor's result buffer until the
	// flush timer; a cancel inside the flush interval must flush them
	// exactly once (stop is reachable twice: cancel multicast now, TTL
	// timer later).
	cfg := DefaultConfig()
	cfg.ResultBatch = 10_000
	cfg.ResultCredit = -1
	h := newHarness(1, 92, cfg)
	plan := scanPlan("T", time.Minute)
	plan.Continuous, plan.Every = true, 10*time.Second
	id, err := h.engines[0].Run(plan, func(*Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(time.Millisecond)
	const rows = 25
	for i := 0; i < rows; i++ {
		h.load("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	h.net.RunFor(resultFlushPeriod / 2)
	if qs := h.engines[0].QueryStats(); qs.ResultBatches != 0 || h.engines[0].ActiveExecs() != 1 {
		t.Fatalf("arrivals not parked in the result buffer: %d frames, %d executors", qs.ResultBatches, h.engines[0].ActiveExecs())
	}
	h.engines[0].Cancel(id)
	h.net.RunFor(5 * time.Second)
	qs := h.engines[0].QueryStats()
	if qs.ResultBatches != 1 || qs.ResultTuples != rows {
		t.Fatalf("stop-flush: %d frames / %d tuples, want 1 / %d", qs.ResultBatches, qs.ResultTuples, rows)
	}
	// The TTL timer fires on the already-stopped exec: no second flush.
	h.net.RunFor(2 * time.Minute)
	if qs := h.engines[0].QueryStats(); qs.ResultBatches != 1 {
		t.Fatalf("result buffer flushed %d times, want exactly once", qs.ResultBatches)
	}
}

// TestResultsLeaveAtCompletion: an executor that knows its local
// output is complete ships it at once instead of waiting out the flush
// period. A one-shot scan's row reaches the initiator one link latency
// after the query reached the row's node, and neither the scan nor a
// Fetch Matches join records a flush as long as the period. A
// continuous query's arrivals have no local end: they still wait for
// the timer.
func TestResultsLeaveAtCompletion(t *testing.T) {
	h := newHarness(16, 97, DefaultConfig())
	latency := topology.NewFullMesh().Delay
	// rowOf holds each sender's scan row; every sender also holds one
	// Fetch Matches outer row.
	rowOf := map[env.Addr]string{}
	for i := 1; i < len(h.engines); i++ {
		row := []Value{int64(i)}
		rowOf[h.engines[i].env.Addr()] = fmt.Sprint(row)
		h.load("T", h.ridsOwnedBy(i, "T", 1)[0], 0, &Tuple{Rel: "T", Vals: row})
		// Fetch Matches: one outer row per node, whose key matches two
		// inner rows. An even node owns its key, so its gets answer
		// inside the executor's start; an odd node's key lives at the
		// next node.
		owner := i
		if i%2 == 1 {
			owner = (i + 1) % len(h.engines)
		}
		rid, key := h.ridsOwnedBy(i, "R", 1)[0], h.ridsOwnedBy(owner, "S", 2)[i%2]
		h.load("R", rid, 0, &Tuple{Rel: "R", Vals: []Value{rid, key}})
		for j := int64(0); j < 2; j++ {
			h.load("S", key, j, &Tuple{Rel: "S", Vals: []Value{key, j}})
		}
	}
	senders := len(rowOf)
	// run runs a traced snapshot query and returns when each row arrived.
	run := func(plan *Plan) (uint64, map[string]time.Time) {
		t.Helper()
		plan.Trace = true
		arrived := map[string]time.Time{}
		id, err := h.engines[0].Run(plan, func(tp *Tuple, _ int) {
			arrived[fmt.Sprint(tp.Vals)] = h.net.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		h.net.RunFor(5 * time.Second)
		return id, arrived
	}
	spans := func(id uint64, st trace.Stage) []trace.Span {
		t.Helper()
		return tracedSpans(t, h.engines[0], id, st)
	}
	// noTimerFlush also requires each sender's executor span in the
	// live trace: a flush inside the executor's start must not leave
	// that span for stop's frame, which finds the collector closed.
	noTimerFlush := func(what string, id uint64) {
		t.Helper()
		flushes := spans(id, trace.StageResultFlush)
		if len(flushes) < senders {
			t.Fatalf("%s: %d result flushes from %d senders", what, len(flushes), senders)
		}
		for _, s := range flushes {
			if s.Dur >= resultFlushPeriod {
				t.Errorf("%s: %s flushed %q after %v, the flush period", what, s.Node, s.Note, s.Dur)
			}
		}
		executors := map[env.Addr]int{}
		for _, s := range spans(id, trace.StageExecutor) {
			executors[s.Node]++
		}
		for a := range rowOf {
			if executors[a] != 1 {
				t.Errorf("%s: %d executor spans from sender %s in the live trace, want 1", what, executors[a], a)
			}
		}
	}

	id, arrived := run(scanPlan("T", time.Minute))
	if len(arrived) != senders {
		t.Fatalf("scan: %d of %d rows arrived", len(arrived), senders)
	}
	noTimerFlush("scan", id)
	reached := 0
	for _, s := range spans(id, trace.StageMulticast) {
		row, ok := rowOf[s.Node]
		if !ok {
			continue
		}
		reached++
		// Transmission at 10 Mbit/s, queued behind the other senders'
		// frames, adds a few milliseconds at most.
		if d := arrived[row].Sub(time.Unix(0, s.Start)); d < latency || d > latency+5*time.Millisecond {
			t.Errorf("scan: row of %s reached the initiator %v after the query reached its node, want one link latency (%v)", s.Node, d, latency)
		}
	}
	if reached != senders {
		t.Fatalf("scan: query arrival traced at %d of %d senders", reached, senders)
	}

	id, arrived = run(&Plan{
		Tables: []TableRef{
			{NS: "R", JoinCols: []int{1}, RIDCol: 0},
			{NS: "S", JoinCols: []int{0}, RIDCol: 0},
		},
		Strategy: FetchMatches,
		TTL:      time.Minute,
	})
	if len(arrived) != 2*senders {
		t.Fatalf("fetch matches: %d of %d rows arrived", len(arrived), 2*senders)
	}
	noTimerFlush("fetch matches", id)

	plan := scanPlan("T", time.Minute)
	plan.Continuous, plan.Every, plan.Trace = true, 10*time.Second, true
	id, err := h.engines[0].Run(plan, func(*Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(time.Second)
	h.load("T", "late", 0, &Tuple{Rel: "T", Vals: []Value{int64(0)}})
	h.net.RunFor(time.Second)
	flushes := spans(id, trace.StageResultFlush)
	if len(flushes) != 1 || flushes[0].Dur != resultFlushPeriod {
		t.Fatalf("continuous: result flushes %+v, want one timer flush after %v", flushes, resultFlushPeriod)
	}
}

// TestCancelBeforeQueryDropsState: other nodes' rehashes can reach a
// node before the query does. A cancel that arrives there while no
// executor runs still drops the query's state, and a late copy of the
// query does not start it again.
func TestCancelBeforeQueryDropsState(t *testing.T) {
	h := newHarness(4, 94, DefaultConfig())
	h.load("T", "1", 1, &Tuple{Rel: "T", Vals: []Value{int64(1)}})
	h.net.RunFor(time.Second)
	const id, far = 0x5eed, 3
	before := make([]int, len(h.provs))
	for i, p := range h.provs {
		before[i] = p.Store().TotalLen()
	}
	exp := h.net.Now().Add(10 * time.Minute)
	for k, ns := range tempNamespaces(id) {
		for _, rid := range h.ridsOwnedBy(far, ns, 2) {
			h.provs[far].StoreLocal(&storage.Item{Namespace: ns, ResourceID: rid, InstanceID: int64(k),
				Payload: &Tuple{Rel: ns, Vals: []Value{int64(k)}}, Expires: exp})
		}
	}
	if n := h.engines[far].ActiveExecs(); n != 0 {
		t.Fatalf("node %d runs %d executors before the query reached it", far, n)
	}
	h.provs[0].Multicast(QueryNS, &cancelMsg{ID: id})
	h.net.RunFor(time.Second)
	for i, p := range h.provs {
		if n := p.Store().TotalLen(); n != before[i] {
			t.Errorf("node %d holds %d items after the cancel, %d before the query's state arrived", i, n, before[i])
		}
	}
	h.provs[0].Multicast(QueryNS, &queryMsg{ID: id, Initiator: h.engines[0].env.Addr(), Plan: scanPlan("T", time.Minute)})
	h.net.RunFor(time.Second)
	for i, eng := range h.engines {
		// A scan ends with its last frame, so a restarted one would
		// show only in what it shipped.
		if n, shipped := eng.ActiveExecs(), eng.QueryStats().ResultTuples; n != 0 || shipped != 0 {
			t.Errorf("node %d started %d executors of a cancelled query and shipped %d rows", i, n, shipped)
		}
	}
}

func TestCreditStallRefreshSurvivesLostGrants(t *testing.T) {
	// Node 1 holds 100 rows; every grant from the initiator (0 -> 1)
	// is lost. The sender must exhaust its bootstrap window, stall,
	// and make progress one self-refreshed window per creditRefresh —
	// delivering everything instead of deadlocking.
	cfg := DefaultConfig()
	cfg.ResultBatch = 5
	cfg.ResultCredit = 10
	h := newHarness(2, 93, cfg)
	const rows = 100
	for i, rid := range h.ridsOwnedBy(1, "T", rows) {
		h.load("T", rid, int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	got := 0
	if _, err := h.engines[0].Run(scanPlan("T", 2*time.Minute), func(*Tuple, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	// Let the query multicast cross 0->1 (loss rolls at send time),
	// then cut the grant path for the rest of the run: every further
	// creditMsg from the initiator is lost.
	h.net.RunFor(250 * time.Millisecond)
	h.net.SetLinkFault(0, 1, 1.0)
	h.net.RunFor(90 * time.Second) // 9 refreshes take 45 s

	if got != rows {
		t.Fatalf("delivered %d/%d rows with grants lost", got, rows)
	}
	qs := h.engines[1].QueryStats()
	if qs.CreditStalls == 0 {
		t.Fatal("sender never stalled despite a 10-tuple window and lost grants")
	}
	// Every window beyond the bootstrap one was opened by stall
	// refresh: ceil((rows-credit)/credit) = 9 episodes.
	if qs.CreditStalls < 5 {
		t.Fatalf("only %d stall episodes for %d rows over a %d window", qs.CreditStalls, rows, cfg.ResultCredit)
	}
}

func TestCreditGrantsReplenishWithoutTimerStalls(t *testing.T) {
	// Lossless run with a window much smaller than the result set: the
	// collector's replenishment grants must keep the sender moving and
	// every stall must resolve via a grant, not the refresh timer.
	cfg := DefaultConfig()
	cfg.ResultBatch = 5
	cfg.ResultCredit = 10
	h := newHarness(2, 94, cfg)
	const rows = 200
	for i, rid := range h.ridsOwnedBy(1, "T", rows) {
		h.load("T", rid, int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	plan := scanPlan("T", time.Minute)
	plan.Trace = true
	got := 0
	id, err := h.engines[0].Run(plan, func(*Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(30 * time.Second)
	if got != rows {
		t.Fatalf("delivered %d/%d rows", got, rows)
	}
	requireGrantDriven(t, h.engines[0], h.engines[1], id)
	if qs := h.engines[0].QueryStats(); qs.CreditGrants == 0 {
		t.Fatal("collector never issued a replenishment grant")
	}
	if qs := h.engines[1].QueryStats(); qs.ResultTuples != rows {
		t.Fatalf("sender shipped %d tuples, want %d", qs.ResultTuples, rows)
	}
}

func TestHostileWindowCannotCloseObserverAccounting(t *testing.T) {
	// Regression: a single resultMsg with a huge window used to close
	// every real window's accounting permanently. The clamp drops
	// windows beyond what the plan's Every and the elapsed time allow.
	cfg := DefaultConfig()
	h := newHarness(1, 95, cfg)
	eng := h.engines[0]

	plan := &Plan{
		Tables:     []TableRef{{NS: "T", RIDCol: 0}},
		Continuous: true,
		Every:      10 * time.Second,
		Windows:    3,
		AggWait:    2 * time.Second,
		Aggs:       []Aggregate{{Kind: Count, Col: -1}},
		TTL:        time.Minute,
	}
	got := 0
	windows := map[int]int{}
	id, err := eng.Run(plan, func(_ *Tuple, w int) { got++; windows[w]++ })
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(time.Second)

	// Hostile frame claiming a window far in the future.
	hostile := &resultMsg{ID: id, Window: 1 << 30, Tuples: []*Tuple{{Rel: "x", Vals: []Value{int64(0)}}}}
	if !eng.HandleMessage("sim:666", hostile) {
		t.Fatal("resultMsg not claimed")
	}
	if got != 0 {
		t.Fatal("hostile future-window tuples reached the application callback")
	}

	// Arrivals across three windows; each window's aggregate must
	// still reach the callback.
	for w := 0; w < 3; w++ {
		h.provs[0].Put("T", fmt.Sprintf("r%d", w), int64(w), &Tuple{Rel: "T", Vals: []Value{int64(w)}}, time.Minute)
		h.net.RunFor(10 * time.Second)
	}
	h.net.RunFor(2 * time.Minute) // TTL: collector closes, final windows report

	if got == 0 {
		t.Fatal("no real results delivered after the hostile frame")
	}
	for w := 0; w < 3; w++ {
		if windows[w] == 0 {
			t.Fatalf("window %d never reached the callback (delivered: %v)", w, windows)
		}
	}
}

// TestObserverCountsEachOneShotJoinOnce: the observer hears of a
// one-shot join exactly once, when its collector closes, with the
// number of rows the application received, and never of a continuous
// query, whose windows each cover only their own arrivals.
func TestObserverCountsEachOneShotJoinOnce(t *testing.T) {
	h := newHarness(16, 96, DefaultConfig())
	for i := 0; i < 40; i++ {
		h.load("R", fmt.Sprint(i), int64(i), &Tuple{Rel: "R", Vals: []Value{int64(i), "r"}})
		h.load("S", fmt.Sprint(i), int64(i), &Tuple{Rel: "S", Vals: []Value{int64(i), "s"}})
	}
	eng := h.engines[0]
	var counts []int
	eng.SetObserver(func(_ *Plan, n int) { counts = append(counts, n) })

	join := &Plan{
		Tables: []TableRef{
			{NS: "R", JoinCols: []int{0}, RIDCol: 0},
			{NS: "S", JoinCols: []int{0}, RIDCol: 0},
		},
		Strategy: SymmetricHash,
		TTL:      time.Minute,
	}
	rows := 0
	id, err := eng.Run(join, func(*Tuple, int) { rows++ })
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(20 * time.Second)
	if rows != 40 {
		t.Fatalf("join delivered %d of 40 rows", rows)
	}
	if len(counts) != 0 {
		t.Fatalf("observer called before the collector closed: %v", counts)
	}
	eng.Cancel(id)
	h.net.RunFor(2 * time.Minute)
	if len(counts) != 1 || counts[0] != rows {
		t.Fatalf("observer calls %v, want exactly [%d]", counts, rows)
	}

	counts = nil
	cq := &Plan{
		Tables:     []TableRef{{NS: "T", RIDCol: 0}},
		Continuous: true,
		Every:      10 * time.Second,
		Windows:    3,
		AggWait:    2 * time.Second,
		Aggs:       []Aggregate{{Kind: Count, Col: -1}},
		TTL:        time.Minute,
	}
	windows := 0
	if _, err := eng.Run(cq, func(*Tuple, int) { windows++ }); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		h.provs[0].Put("T", fmt.Sprintf("r%d", w), int64(w), &Tuple{Rel: "T", Vals: []Value{int64(w)}}, time.Minute)
		h.net.RunFor(10 * time.Second)
	}
	h.net.RunFor(2 * time.Minute)
	if windows == 0 {
		t.Fatal("continuous query delivered nothing")
	}
	if len(counts) != 0 {
		t.Fatalf("observer called for a continuous query: %v", counts)
	}
}

func TestNegativeWindowRejected(t *testing.T) {
	h := newHarness(1, 96, DefaultConfig())
	got := 0
	id, err := h.engines[0].Run(scanPlan("T", time.Minute), func(*Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	bad := &resultMsg{ID: id, Window: -3, Tuples: []*Tuple{{Rel: "x", Vals: []Value{int64(1)}}}}
	h.engines[0].HandleMessage("sim:666", bad)
	if got != 0 {
		t.Fatal("negative-window tuples reached the application callback")
	}
}

func TestBloomMismatchFallsBackToUnprunedRehash(t *testing.T) {
	// Regression: emitBloom used to skip a peer's filter when Union
	// failed on mismatched geometry. If the hostile filter sorted
	// first it became the combine seed and every honest filter was
	// skipped — pruning away all real join keys: silently dropped
	// rows. The fix degrades the combine to a saturated filter, so the
	// join must now produce the full reference result, and count the
	// fallback.
	h := newHarness(4, 97, DefaultConfig())

	// R rows join S rows on column 0, spread by the DHT hash.
	const keys = 12
	for i := 0; i < keys; i++ {
		h.load("R", fmt.Sprint(i), int64(i), &Tuple{Rel: "R", Vals: []Value{int64(i), "r"}})
		h.load("S", fmt.Sprint(i), int64(i), &Tuple{Rel: "S", Vals: []Value{int64(i), "s"}})
	}
	plan := &Plan{
		Tables: []TableRef{
			{NS: "R", JoinCols: []int{0}, RIDCol: 0},
			{NS: "S", JoinCols: []int{0}, RIDCol: 0},
		},
		Strategy:  BloomJoin,
		TTL:       time.Minute,
		BloomWait: 3 * time.Second,
	}
	got := 0
	id, err := h.engines[0].Run(plan, func(*Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	// Before the BloomWait fires, plant a hostile mis-sized bloomPut at
	// side 0's collector, with an instanceID that sorts first so the
	// pre-fix code would have seeded the combine with it.
	h.net.RunFor(time.Second)
	ns := tempNamespaces(id)[nsBloom0]
	owner := h.sm.OwnerOf(ns, "or")
	h.provs[owner].StoreLocal(&storage.Item{
		Namespace: ns, ResourceID: "or", InstanceID: 0,
		Payload: &bloomPut{Side: 0, F: bloom.New(64, 2)},
	})
	h.net.RunFor(30 * time.Second)

	if got != keys {
		t.Fatalf("bloom join with hostile filter returned %d/%d rows", got, keys)
	}
	fallbacks := uint64(0)
	for _, eng := range h.engines {
		fallbacks += eng.QueryStats().BloomFallbacks
	}
	if fallbacks == 0 {
		t.Fatal("geometry mismatch not counted as a bloom fallback")
	}
}

func TestLevel1RidFormat(t *testing.T) {
	// Pins the level-1 (intermediate aggregation site) resourceID
	// format: "<window>|<group>\x1e<bucket>". combineLevel1 splits on
	// the 0x1e record separator and emitGroups skips rids containing
	// it; if the separator drifts, hierarchical aggregation silently
	// double- or zero-counts.
	cfg := DefaultConfig()
	h := newHarness(1, 98, cfg)
	eng := h.engines[0]

	plan := &Plan{
		Tables:    []TableRef{{NS: "T", RIDCol: 0}},
		GroupBy:   []int{1},
		Aggs:      []Aggregate{{Kind: Count, Col: -1}},
		AggFanout: 4,
		TTL:       time.Minute,
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := newExec(eng, &queryMsg{ID: 7, Initiator: "sim:0", Plan: plan})
	ex.onRow(&Tuple{Rel: "T", Vals: []Value{int64(1), "g1"}})
	ex.flushPartials()
	h.net.RunFor(time.Second)

	want := fmt.Sprintf("0|g1\x1e%d", eng.nodeIID%int64(plan.AggFanout))
	found := false
	h.provs[0].Scan(ex.ns[nsAgg], func(it *storage.Item) bool {
		if it.ResourceID != want {
			t.Fatalf("level-1 rid %q, want %q", it.ResourceID, want)
		}
		found = true
		return true
	})
	if !found {
		t.Fatal("no level-1 partial stored")
	}
}

func TestOneTupleCreditWindowStillGrantDriven(t *testing.T) {
	// Degenerate window: ResultCredit=1. Every tuple exhausts the
	// window, so delivery must be carried by replenishment grants (one
	// round trip per tuple), never by the stall-refresh timer.
	cfg := DefaultConfig()
	cfg.ResultBatch = 4
	cfg.ResultCredit = 1
	h := newHarness(2, 99, cfg)
	const rows = 20
	for i, rid := range h.ridsOwnedBy(1, "T", rows) {
		h.load("T", rid, int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	plan := scanPlan("T", time.Minute)
	plan.Trace = true
	got := 0
	id, err := h.engines[0].Run(plan, func(*Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(30 * time.Second)
	if got != rows {
		t.Fatalf("delivered %d/%d rows with a 1-tuple credit window", got, rows)
	}
	requireGrantDriven(t, h.engines[0], h.engines[1], id)
	if qs := h.engines[0].QueryStats(); qs.CreditGrants < rows-1 {
		t.Fatalf("only %d grants for %d one-tuple windows", qs.CreditGrants, rows)
	}
}

func TestStalledBufferDrainsExactlyOnceInOrder(t *testing.T) {
	// One sender scans 20 000 rows in a single event, so all but the
	// first window sit in its result buffer behind the credit stall and
	// leave 64 at a time as grants arrive, never by the stall-refresh
	// timer. Every tuple must reach the collector exactly once, in emit
	// (scan) order, and the drained buffer's array — far past the
	// 4096-slot keep bound — must go, with the executor once its last
	// frame has left.
	cfg := DefaultConfig()
	cfg.ResultBatch = 64
	cfg.ResultCredit = 64
	h := newHarness(2, 100, cfg)
	const rows = 20_000
	rids := h.ridsOwnedBy(1, "T", rows)
	for i, rid := range rids {
		h.load("T", rid, 1, &Tuple{Rel: "T", Vals: []Value{rid, int64(i)}})
	}
	sort.Strings(rids) // lscan order
	plan := scanPlan("T", time.Hour)
	plan.Trace = true
	var got []string
	id, err := h.engines[0].Run(plan, func(tp *Tuple, _ int) {
		got = append(got, tp.Vals[0].(string))
	})
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(time.Second)
	ex := h.engines[1].execs[id]
	if ex == nil {
		t.Fatal("sender's executor ended with its buffer still stalled")
	}
	h.net.RunFor(10 * time.Minute)
	if len(got) != rows {
		t.Fatalf("delivered %d/%d rows", len(got), rows)
	}
	for i := range got {
		if got[i] != rids[i] {
			t.Fatalf("tuple %d is %s, want %s: not emit order", i, got[i], rids[i])
		}
	}
	if qs := h.engines[1].QueryStats(); qs.ResultTuples != rows || qs.CreditStalls < rows/64/2 {
		t.Fatalf("sender shipped %d tuples in %d stall episodes", qs.ResultTuples, qs.CreditStalls)
	}
	requireGrantDriven(t, h.engines[0], h.engines[1], id)
	if n := h.engines[1].ActiveExecs(); n != 0 {
		t.Fatalf("sender keeps %d executors after its last frame", n)
	}
	if ex.resBuf != nil || ex.resHead != 0 {
		t.Fatalf("drained buffer kept: len %d cap %d head %d", len(ex.resBuf), cap(ex.resBuf), ex.resHead)
	}
}

// BenchmarkStalledDrain measures a credit-stalled result buffer of n
// tuples leaving in 64-tuple grants. Its ns/tuple must not depend on n:
// a grant costs the tuples it ships, not the tuples still waiting
// (shifting the remainder down on every grant made 20k ten times 2k).
func BenchmarkStalledDrain(b *testing.B) {
	for _, n := range []int{2_000, 20_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.ResultBatch = 64
			cfg.ResultCredit = 64
			tup := &Tuple{Rel: "result", Vals: []Value{int64(1), "x"}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex, se := flushExec(cfg)
				for k := 0; k < n; k++ {
					ex.emit(tup, 0)
				}
				for limit := int64(2 * cfg.ResultCredit); se.tuples < uint64(n); limit += int64(cfg.ResultCredit) {
					ex.onCredit(limit)
				}
				if len(ex.resBuf) != 0 {
					b.Fatal("buffer not drained")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/tuple")
		})
	}
}
