package simnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/topology"
)

// queueModel drives a network with random schedules, timer stops and
// kills, and keeps the reference: every event it scheduled with its
// (at, seq) key and whether it was canceled. Pops must come out in the
// reference's (at, seq) order.
type queueModel struct {
	t      *testing.T
	nw     *Network
	rng    *rand.Rand
	nodes  []*NodeEnv // alive
	evs    []modelEvent
	timers []modelTimer
	fired  []int
}

type modelEvent struct {
	at              int64
	seq             uint64
	node            int
	fired, canceled bool
}

type modelTimer struct {
	tm env.Timer
	id int
}

func newQueueModel(t *testing.T, seed int64) *queueModel {
	q := &queueModel{t: t, nw: New(topology.NewFullMeshInfinite(), seed), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < 6; i++ {
		q.addNode()
	}
	return q
}

func (q *queueModel) addNode() *NodeEnv {
	n := q.nw.AddNode()
	n.SetHandler(env.HandlerFunc(func(_ env.Addr, m env.Message) { q.fire(m.(testMsg).n) }))
	q.nodes = append(q.nodes, n)
	return n
}

func (q *queueModel) fire(id int) {
	q.evs[id].fired = true
	q.fired = append(q.fired, id)
}

func (q *queueModel) pick() *NodeEnv { return q.nodes[q.rng.Intn(len(q.nodes))] }

// after schedules a timer on n at a delay drawn from three values, the
// middle one the send latency, so equal times (ordered by seq) are
// common.
func (q *queueModel) after(n *NodeEnv) {
	id := len(q.evs)
	d := time.Duration(q.rng.Intn(3)) * 100 * time.Millisecond
	q.evs = append(q.evs, modelEvent{at: q.nw.now + int64(d), seq: q.nw.seq, node: n.Index()})
	q.timers = append(q.timers, modelTimer{n.After(d, func() { q.fire(id) }), id})
}

func (q *queueModel) send(from, to *NodeEnv) {
	id, seq := len(q.evs), q.nw.seq
	from.Send(to.Addr(), testMsg{n: id, size: 10})
	i := slices.IndexFunc(q.nw.heap, func(r eventRef) bool { return r.seq == seq })
	if i < 0 {
		q.t.Fatal("a send between live nodes scheduled nothing")
	}
	q.evs = append(q.evs, modelEvent{at: q.nw.heap[i].at, seq: seq, node: to.Index()})
}

func (q *queueModel) stop(mt modelTimer) {
	mt.tm.Stop()
	if ev := &q.evs[mt.id]; !ev.fired {
		ev.canceled = true
	}
}

func (q *queueModel) kill(n *NodeEnv) {
	q.nw.Kill(n.Index())
	for i := range q.evs {
		if ev := &q.evs[i]; ev.node == n.Index() && !ev.fired {
			ev.canceled = true
		}
	}
	q.nodes = slices.DeleteFunc(q.nodes, func(x *NodeEnv) bool { return x == n })
	if len(q.nodes) < 3 {
		q.addNode()
	}
}

// compactTo empties the queue, schedules 64+k timers on one node and
// cancels 64 of them (by Stop, or by killing the node after moving k
// elsewhere): the 64th tombstone crosses the compaction threshold with
// exactly k live entries, so the heapify runs on a heap of k.
func (q *queueModel) compactTo(k int, byKill bool) {
	q.nw.Drain()
	n := q.addNode()
	for i := 0; i < 64; i++ {
		q.after(n)
	}
	for i := 0; i < k; i++ {
		q.after(q.nodes[i%(len(q.nodes)-1)])
	}
	if byKill {
		q.kill(n)
	} else {
		held := q.timers[len(q.timers)-64-k : len(q.timers)-k]
		for _, i := range q.rng.Perm(len(held)) {
			q.stop(held[i])
		}
	}
	if len(q.nw.heap) != k || q.nw.live != k {
		q.t.Fatalf("after 64 cancellations: heap %d entries, %d live, want %d of each", len(q.nw.heap), q.nw.live, k)
	}
}

// churn applies ops random operations: schedules, stops, kills and
// partial runs.
func (q *queueModel) churn(ops int) {
	for i := 0; i < ops; i++ {
		switch x := q.rng.Intn(100); {
		case x < 40:
			q.after(q.pick())
		case x < 75:
			q.send(q.pick(), q.pick())
		case x < 88 && len(q.timers) > 0:
			q.stop(q.timers[q.rng.Intn(len(q.timers))])
		case x < 91:
			q.kill(q.pick())
		case x < 94:
			q.addNode()
		default:
			q.nw.RunFor(time.Duration(q.rng.Intn(250)) * time.Millisecond)
		}
	}
}

// check drains the queue and compares every pop since the start with
// the reference order.
func (q *queueModel) check(seed int64) {
	q.nw.Drain()
	var want []int
	for id, ev := range q.evs {
		if !ev.canceled {
			want = append(want, id)
		}
	}
	slices.SortFunc(want, func(a, b int) int {
		ea, eb := q.evs[a], q.evs[b]
		if ea.at != eb.at {
			return int(ea.at - eb.at)
		}
		return int(ea.seq) - int(eb.seq)
	})
	if !slices.Equal(q.fired, want) {
		q.t.Fatalf("seed %d: %d pops differ from the (at, seq) order of %d live events", seed, len(q.fired), len(want))
	}
}

// TestEventQueueOrderProperty: whatever the interleaving of timers,
// sends, Stops and Kills, and whatever size of heap a compaction
// rebuilds (down to 0 entries), events pop in (at, seq) order and
// canceled ones never pop.
func TestEventQueueOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		q := newQueueModel(t, seed)
		for round := 0; round < 12; round++ {
			q.churn(150)
			q.compactTo(round%6, round%4 >= 2)
			q.churn(150)
		}
		q.check(seed)
	}
}

// TestLookupAddrOnlyCanonical: only the spelling a node's address has
// resolves, so no node is reachable under two addresses.
func TestLookupAddrOnlyCanonical(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	for i := 0; i < 6; i++ {
		nw.AddNode()
	}
	for _, a := range []env.Addr{"sim:0", "sim:5"} {
		if n, ok := nw.lookupAddr(a); !ok || n.Addr() != a {
			t.Errorf("%q does not resolve to its node", a)
		}
	}
	for _, a := range []env.Addr{"sim:05", "sim:+5", "sim:-0", "sim:00", "sim: 5", "sim:5 ", "sim:", "sim:6", "sim:-1", "SIM:5", "5"} {
		if n, ok := nw.lookupAddr(a); ok {
			t.Errorf("%q resolves to node %s", a, n.Addr())
		}
	}
	a := nw.Node(0)
	b := nw.Node(5)
	got := 0
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got++ }))
	a.Send("sim:05", testMsg{size: 1})
	a.Send("sim:+5", testMsg{size: 1})
	if nw.Drain() != 0 || got != 0 {
		t.Fatal("a non-canonical address reached a node")
	}
}

// BenchmarkEventQueue measures the steady schedule-and-pop path at the
// scale of sim-scale's heap (43k live events between scans, more during
// one): 80k pending timers, each of which reschedules itself when it
// fires. One op is one event.
func BenchmarkEventQueue(b *testing.B) {
	const pending, nodes = 80_000, 1000
	nw := New(topology.NewFullMeshInfinite(), 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < nodes; i++ {
		nw.AddNode()
	}
	for i := 0; i < pending; i++ {
		n := nw.Node(i % nodes)
		var tick func()
		tick = func() { n.After(time.Duration(n.Rand().Int63n(int64(10*time.Second))), tick) }
		n.After(time.Duration(rng.Int63n(int64(10*time.Second))), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	nw.RunWhile(Epoch.Add(math.MaxInt64), func() bool { done++; return done <= b.N })
}
