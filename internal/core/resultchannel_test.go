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
)

type harness struct {
	net     *simnet.Network
	engines []*Engine
	provs   []*provider.Provider
	sm      *can.SpaceMap
}

func newHarness(n int, seed int64, cfg Config) *harness {
	h := &harness{net: simnet.New(topology.NewFullMesh(), seed)}
	var routers []*can.Router
	for i := 0; i < n; i++ {
		e := h.net.AddNode()
		rt := can.New(e, can.DefaultConfig())
		prov := provider.New(e, rt, provider.DefaultConfig())
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
	// A huge batch size and a long flush interval park every scanned
	// tuple in the executor's result buffer; cancel must flush it
	// exactly once (stop is reachable twice: cancel multicast now, TTL
	// timer later).
	cfg := DefaultConfig()
	cfg.ResultBatch = 10_000
	cfg.ResultFlushInterval = time.Hour
	cfg.ResultCredit = -1
	h := newHarness(1, 92, cfg)
	const rows = 25
	for i := 0; i < rows; i++ {
		h.load("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	id, err := h.engines[0].Run(scanPlan("T", time.Minute), func(*Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(2 * time.Second)
	if qs := h.engines[0].QueryStats(); qs.ResultBatches != 0 {
		t.Fatalf("buffer flushed prematurely: %d frames", qs.ResultBatches)
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

func TestCreditStallRefreshSurvivesLostGrants(t *testing.T) {
	// Node 1 holds 100 rows; every grant from the initiator (0 -> 1)
	// is lost. The sender must exhaust its bootstrap window, stall,
	// and make progress one self-refreshed window per CreditRefresh —
	// delivering everything instead of deadlocking.
	cfg := DefaultConfig()
	cfg.ResultBatch = 5
	cfg.ResultCredit = 10
	cfg.ResultFlushInterval = 100 * time.Millisecond
	cfg.CreditRefresh = 2 * time.Second
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
	h.net.SetLinkFault(0, 1, 1.0, 0)
	h.net.RunFor(time.Minute)

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
	// every stall must resolve via a grant, not the refresh timer —
	// i.e. delivery finishes far faster than stalls × CreditRefresh.
	cfg := DefaultConfig()
	cfg.ResultBatch = 5
	cfg.ResultCredit = 10
	cfg.ResultFlushInterval = 50 * time.Millisecond
	cfg.CreditRefresh = time.Hour // a timer-resolved stall would blow the deadline below
	h := newHarness(2, 94, cfg)
	const rows = 200
	for i, rid := range h.ridsOwnedBy(1, "T", rows) {
		h.load("T", rid, int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	got := 0
	if _, err := h.engines[0].Run(scanPlan("T", time.Minute), func(*Tuple, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(30 * time.Second)
	if got != rows {
		t.Fatalf("delivered %d/%d rows", got, rows)
	}
	if qs := h.engines[0].QueryStats(); qs.CreditGrants == 0 {
		t.Fatal("collector never issued a replenishment grant")
	}
	if qs := h.engines[1].QueryStats(); qs.ResultTuples != rows {
		t.Fatalf("sender shipped %d tuples, want %d", qs.ResultTuples, rows)
	}
}

func TestHostileWindowCannotCloseObserverAccounting(t *testing.T) {
	// Regression: a single resultMsg with a huge window used to jump
	// c.maxW, and reportWindows then closed every real window's
	// observer accounting permanently. The clamp drops windows beyond
	// what the plan's Every and the elapsed time allow.
	cfg := DefaultConfig()
	h := newHarness(1, 95, cfg)
	eng := h.engines[0]

	reported := map[int]int{}
	eng.SetObserver(func(_ *Plan, w, n int) { reported[w] = n })

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
	id, err := eng.Run(plan, func(*Tuple, int) { got++ })
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
	// still reach the callback and the observer.
	for w := 0; w < 3; w++ {
		h.provs[0].Put("T", fmt.Sprintf("r%d", w), int64(w), &Tuple{Rel: "T", Vals: []Value{int64(w)}}, time.Minute)
		h.net.RunFor(10 * time.Second)
	}
	h.net.RunFor(2 * time.Minute) // TTL: collector closes, final windows report

	if got == 0 {
		t.Fatal("no real results delivered after the hostile frame")
	}
	for w := 0; w < 3; w++ {
		if reported[w] == 0 {
			t.Fatalf("window %d never reported to the observer (reported: %v)", w, reported)
		}
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
	cfg := DefaultConfig()
	cfg.ResultFlushInterval = 50 * time.Millisecond
	h := newHarness(4, 97, cfg)

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
	ns := fmt.Sprintf("q%x.bloom0", id)
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
	h.provs[0].Scan(ex.aggNS, func(it *storage.Item) bool {
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
	// round trip per tuple), never by the stall-refresh timer — the
	// timer here is set far beyond the run's deadline.
	cfg := DefaultConfig()
	cfg.ResultBatch = 4
	cfg.ResultCredit = 1
	cfg.ResultFlushInterval = 50 * time.Millisecond
	cfg.CreditRefresh = time.Hour
	h := newHarness(2, 99, cfg)
	const rows = 20
	for i, rid := range h.ridsOwnedBy(1, "T", rows) {
		h.load("T", rid, int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i)}})
	}
	got := 0
	if _, err := h.engines[0].Run(scanPlan("T", time.Minute), func(*Tuple, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(30 * time.Second)
	if got != rows {
		t.Fatalf("delivered %d/%d rows with a 1-tuple credit window", got, rows)
	}
	if qs := h.engines[0].QueryStats(); qs.CreditGrants < rows-1 {
		t.Fatalf("only %d grants for %d one-tuple windows", qs.CreditGrants, rows)
	}
}

func TestStalledBufferDrainsExactlyOnceInOrder(t *testing.T) {
	// One sender scans 20 000 rows in a single event, so all but the
	// first window sit in its result buffer behind the credit stall and
	// leave 64 at a time as grants arrive. Every tuple must reach the
	// collector exactly once, in emit (scan) order, and the drained
	// buffer's array — far past the 4096-slot keep bound — must go.
	cfg := DefaultConfig()
	cfg.ResultBatch = 64
	cfg.ResultCredit = 64
	cfg.CreditRefresh = time.Hour // grant-driven only
	h := newHarness(2, 100, cfg)
	const rows = 20_000
	rids := h.ridsOwnedBy(1, "T", rows)
	for i, rid := range rids {
		h.load("T", rid, 1, &Tuple{Rel: "T", Vals: []Value{rid, int64(i)}})
	}
	sort.Strings(rids) // lscan order
	var got []string
	id, err := h.engines[0].Run(scanPlan("T", time.Hour), func(tp *Tuple, _ int) {
		got = append(got, tp.Vals[0].(string))
	})
	if err != nil {
		t.Fatal(err)
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
	ex := h.engines[1].execs[id]
	if ex == nil {
		t.Fatal("sender's executor is gone before the TTL")
	}
	ex.resMu.Lock()
	defer ex.resMu.Unlock()
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
				for limit := int64(2 * cfg.ResultCredit); se.tuples.Load() < uint64(n); limit += int64(cfg.ResultCredit) {
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
