package core_test

// Executor scans of a base table larger than one slice, on a one-node
// simulated stack: the scan yields the event loop between slices, and
// a query's answer, its first result frame and its cancel all keep
// their meaning across the pauses.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht/can"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
	"pier/internal/workload"
)

// countRows wraps a table filter and counts the rows the scan hands it.
type countRows struct {
	core.Expr
	n *int
}

func (c countRows) Eval(row []core.Value) core.Value {
	*c.n++
	return c.Expr.Eval(row)
}

// sliceNode is one simulated node holding three slices of workload S,
// and a 50%-selective scan of it whose filter counts the rows visited.
type sliceNode struct {
	net  *simnet.Network
	eng  *core.Engine
	want []int64 // the pkeys of the reference answer, sorted
	plan *core.Plan
	rows int
}

func newSliceNode(t *testing.T) *sliceNode {
	t.Helper()
	// Unlimited bandwidth makes a self-send due at once, so frames and
	// slices take turns in the order they were queued, as on a real
	// node's loop.
	s := &sliceNode{net: simnet.New(topology.NewFullMeshInfinite(), 7)}
	e := s.net.AddNode()
	rt := can.New(e, can.DefaultConfig())
	prov := provider.New(e, rt, provider.Config{}, nil)
	s.eng = core.New(e, prov, core.DefaultConfig())
	e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		if !rt.HandleMessage(from, m) && !prov.HandleMessage(from, m) {
			s.eng.HandleMessage(from, m)
		}
	}))
	can.Bootstrap([]*can.Router{rt}, 7)

	tables := workload.Generate(workload.Config{STuples: 3 * core.ScanSlice, Seed: 7, PadBytes: 16})
	_, c2, _ := workload.Constants(0.5, 0.5, 0.5)
	for i, tup := range tables.S {
		pkey := tup.Vals[workload.SPkey].(int64)
		prov.StoreLocal(&storage.Item{Namespace: "S", ResourceID: fmt.Sprint(pkey), InstanceID: int64(i), Payload: tup})
		if tup.Vals[workload.SNum2].(int64) > c2 {
			s.want = append(s.want, pkey)
		}
	}
	slices.Sort(s.want)
	s.plan = &core.Plan{
		Tables: []core.TableRef{{
			NS: "S",
			Filter: countRows{&core.Cmp{Op: core.GT, L: &core.Col{Idx: workload.SNum2}, R: &core.Const{V: c2}},
				&s.rows},
			RIDCol: workload.SPkey,
		}},
		Output: []core.Expr{&core.Col{Idx: workload.SPkey}},
		TTL:    time.Hour,
	}
	return s
}

func TestScanInSlicesReturnsTheReferenceAnswer(t *testing.T) {
	s := newSliceNode(t)
	var got []int64
	firstAt := -1 // rows visited when the first result frame arrived
	_, err := s.eng.Run(s.plan, func(tup *core.Tuple, _ int) {
		if firstAt < 0 {
			firstAt = s.rows
		}
		got = append(got, tup.Vals[0].(int64))
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.rows != core.ScanSlice {
		t.Fatalf("Run visited %d rows before returning, want one slice (%d)", s.rows, core.ScanSlice)
	}
	s.net.RunFor(time.Minute)
	if s.rows != 3*core.ScanSlice {
		t.Fatalf("the scan visited %d of %d rows", s.rows, 3*core.ScanSlice)
	}
	if firstAt < 0 || firstAt > 2*core.ScanSlice {
		t.Fatalf("the first result frame arrived after %d rows: not before the last slice", firstAt)
	}
	slices.Sort(got)
	if !slices.Equal(got, s.want) {
		t.Fatalf("the scan returned %d tuples, the reference answer has %d", len(got), len(s.want))
	}
}

func TestCancelBetweenSlicesStopsTheScan(t *testing.T) {
	s := newSliceNode(t)
	results := 0
	id, err := s.eng.Run(s.plan, func(*core.Tuple, int) { results++ })
	if err != nil {
		t.Fatal(err)
	}
	s.net.RunWhile(s.net.Now().Add(time.Minute), func() bool { return results == 0 })
	if results == 0 || s.rows >= 3*core.ScanSlice {
		t.Fatalf("%d results after %d rows: the test needs a result before the last slice", results, s.rows)
	}
	// Cancel runs the executor's stop, and its stop-flush, before it
	// returns: this node is the whole multicast.
	if !s.eng.Cancel(id) {
		t.Fatal("Cancel found no live query")
	}
	rows, frames := s.rows, s.eng.QueryStats().ResultBatches
	s.net.RunFor(time.Minute)
	if s.rows != rows {
		t.Fatalf("the cancelled scan went on: %d rows visited after the cancel", s.rows-rows)
	}
	if f := s.eng.QueryStats().ResultBatches; f != frames {
		t.Fatalf("%d result frames shipped after the stop-flush", f-frames)
	}
}
