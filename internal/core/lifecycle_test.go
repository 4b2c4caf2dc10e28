package core

// Executor lifecycle tests: an executor stays registered only while it
// holds work, so a node keeps nothing of a one-shot scan once its rows
// have left, and a cancel at a node that kept nothing costs nothing.
// TestStalledBufferDrainsExactlyOnceInOrder covers a credit-stalled
// scan, which ends with its last frame.

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht/provider"
	"pier/internal/env"
	"pier/internal/trace"
)

// activeExecs sums ActiveExecs over the harness's nodes.
func (h *harness) activeExecs() int {
	n := 0
	for _, eng := range h.engines {
		n += eng.ActiveExecs()
	}
	return n
}

// loadSpread stores rows tuples of ns across the overlay.
func (h *harness) loadSpread(ns string, rows int) {
	for i := 0; i < rows; i++ {
		h.load(ns, fmt.Sprint(i), int64(i), &Tuple{Rel: ns, Vals: []Value{int64(i)}})
	}
}

func TestAnsweredScanEndsWithItsScan(t *testing.T) {
	h := newHarness(8, 110, DefaultConfig())
	h.loadSpread("T", 50)
	got := 0
	if _, err := h.engines[0].Run(scanPlan("T", time.Hour), func(*Tuple, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(5 * time.Second)
	if got != 50 {
		t.Fatalf("delivered %d/50 rows", got)
	}
	if n := h.activeExecs(); n != 0 {
		t.Fatalf("%d executors left after every scan was answered within credit", n)
	}
	if h.engines[0].OpenCollectors() != 1 {
		t.Fatal("the collector closed with the executors")
	}
}

// TestWorkHoldingExecutorsEndAtCancelOrTTL: joins (a probe subscription),
// aggregates (emit timers) and continuous queries (an arrival
// subscription) keep their executors until the query's cancel or TTL.
// A traced scan that matches no row holds no work: its executors end
// with their scans, and their spans, which no row frame carried, reach
// the open collector in each one's last frame.
func TestWorkHoldingExecutorsEndAtCancelOrTTL(t *testing.T) {
	plans := map[string]func() *Plan{
		"join": func() *Plan {
			return &Plan{Tables: []TableRef{
				{NS: "R", JoinCols: []int{0}, RIDCol: 0},
				{NS: "S", JoinCols: []int{0}, RIDCol: 0},
			}, Strategy: SymmetricHash}
		},
		"aggregate": func() *Plan {
			return &Plan{Tables: []TableRef{{NS: "T", RIDCol: 0}}, AggWait: time.Second,
				Aggs: []Aggregate{{Kind: Count, Col: -1}}}
		},
		"continuous": func() *Plan {
			return &Plan{Tables: []TableRef{{NS: "T", RIDCol: 0}}, Continuous: true, Every: 10 * time.Second}
		},
		"traced-without-rows": func() *Plan {
			return &Plan{Tables: []TableRef{{NS: "empty", RIDCol: 0}}, Trace: true}
		},
	}
	const n = 6
	for name, mk := range plans {
		for _, end := range []string{"cancel", "ttl"} {
			t.Run(name+"/"+end, func(t *testing.T) {
				h := newHarness(n, 112, DefaultConfig())
				h.loadSpread("T", 20)
				h.loadSpread("R", 20)
				h.loadSpread("S", 20)
				p := mk()
				p.TTL = time.Minute
				id, err := h.engines[0].Run(p, func(*Tuple, int) {})
				if err != nil {
					t.Fatal(err)
				}
				h.net.RunFor(30 * time.Second)
				want := n
				if p.Trace {
					want = 0
					tr, _ := h.engines[0].Trace(id)
					if nodes := spanNodes(tr); nodes != n {
						t.Fatalf("spans from %d nodes reached the collector before the %s, want %d", nodes, end, n)
					}
				}
				if got := h.activeExecs(); got != want {
					t.Fatalf("%d executors half-way to the TTL, want %d", got, want)
				}
				if end == "cancel" {
					h.engines[0].Cancel(id)
					h.net.RunFor(5 * time.Second)
				} else {
					h.net.RunFor(31 * time.Second)
				}
				if got := h.activeExecs(); got != 0 {
					t.Fatalf("%d executors after the %s", got, end)
				}
			})
		}
	}
}

// spanNodes counts the executor nodes whose spans a trace holds.
func spanNodes(tr *trace.Trace) int {
	nodes := map[env.Addr]bool{}
	for _, s := range tr.Spans {
		if s.Node != "" {
			nodes[s.Node] = true
		}
	}
	return len(nodes)
}

// TestQueryFloodDeliveredTwiceRunsOnce: robust flooding hands each node
// several copies of the query; an executor that ended with its scan must
// not be started again by a later copy.
func TestQueryFloodDeliveredTwiceRunsOnce(t *testing.T) {
	const n, rows = 16, 60
	h := newHarnessWith(n, 113, DefaultConfig(), provider.Config{RobustMulticast: true})
	h.loadSpread("T", rows)
	h.net.ResetStats()
	got := 0
	if _, err := h.engines[0].Run(scanPlan("T", time.Hour), func(*Tuple, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	h.net.RunFor(10 * time.Second)
	if msgs := h.net.Stats().Messages; msgs < 2*n {
		t.Fatalf("the flood took %d messages over %d nodes: no node saw it twice", msgs, n)
	}
	shipped := uint64(0)
	for _, eng := range h.engines {
		shipped += eng.QueryStats().ResultTuples
	}
	if got != rows || shipped != rows {
		t.Fatalf("delivered %d and shipped %d rows, want %d each", got, shipped, rows)
	}
	if n := h.activeExecs(); n != 0 {
		t.Fatalf("%d executors left", n)
	}
}

// TestCancelWithoutStateAllocatesNothing: every node sees every cancel,
// and most hold nothing of the query by then.
func TestCancelWithoutStateAllocatesNothing(t *testing.T) {
	for _, id := range []uint64{0, 0xa, 0x5eed, 1<<64 - 1} {
		for k, ns := range tempNamespaces(id) {
			if got := tempSlot(ns, id); got != k {
				t.Errorf("tempSlot(%q, %#x) = %d, want %d", ns, id, got, k)
			}
			if got := tempSlot(ns, id+1); got != -1 {
				t.Errorf("tempSlot(%q, %#x) = %d, want -1", ns, id+1, got)
			}
		}
	}
	for _, ns := range []string{"", "q", "T", "q0x", "q5eed.agg.", "q5eeda"} {
		if got := tempSlot(ns, 0x5eed); got != -1 {
			t.Errorf("tempSlot(%q) = %d, want -1", ns, got)
		}
	}

	h := newHarness(2, 114, DefaultConfig())
	h.loadSpread("T", 10)
	eng := h.engines[1]
	m := &cancelMsg{}
	for m.ID = 1; m.ID <= cancelMemo; m.ID++ {
		eng.onMulticast("sim:0", QueryNS, m)
	}
	if a := testing.AllocsPerRun(100, func() {
		m.ID++
		eng.onMulticast("sim:0", QueryNS, m)
	}); a != 0 {
		t.Errorf("a cancel with nothing to drop costs %.1f allocations, want 0", a)
	}
	if len(eng.cancelled) != cancelMemo {
		t.Fatalf("the cancel memo holds %d ids, want %d", len(eng.cancelled), cancelMemo)
	}
}
