package simnet

import (
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/topology"
)

type testMsg struct {
	n    int
	size int
}

func (m testMsg) WireSize() int { return m.size }

// collect registers a handler that appends received payloads.
func collect(n *NodeEnv) *[]int {
	var got []int
	n.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		got = append(got, m.(testMsg).n)
	}))
	return &got
}

func TestLatencyOnlyDelivery(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	got := collect(b)
	var at time.Time
	b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		*got = append(*got, m.(testMsg).n)
		at = nw.Now()
	}))
	a.Send(b.Addr(), testMsg{n: 7, size: 1000})
	nw.Drain()
	if len(*got) != 1 || (*got)[0] != 7 {
		t.Fatalf("got %v, want [7]", *got)
	}
	if want := Epoch.Add(100 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 10 Mbps inbound: 1.25 MB on the link (message + the per-send
	// header) serializes in exactly 1 s.
	nw := New(topology.NewFullMesh(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	var times []time.Duration
	b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		times = append(times, nw.Now().Sub(Epoch))
	}))
	a.Send(b.Addr(), testMsg{size: 1250000 - env.HeaderSize})
	a.Send(b.Addr(), testMsg{size: 1250000 - env.HeaderSize})
	nw.Drain()
	if len(times) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(times))
	}
	if want := 1100 * time.Millisecond; times[0] != want {
		t.Errorf("first delivery at %v, want %v", times[0], want)
	}
	// Second message queues behind the first on the inbound link.
	if want := 2100 * time.Millisecond; times[1] != want {
		t.Errorf("second delivery at %v, want %v", times[1], want)
	}
}

func TestSendToDeadNodeDropped(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	got := collect(b)
	nw.Kill(b.Index())
	a.Send(b.Addr(), testMsg{n: 1, size: 10})
	nw.Drain()
	if len(*got) != 0 {
		t.Fatalf("dead node received %v", *got)
	}
	if s := nw.Stats(); s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
}

func TestDeadNodeTimersAndSendsSuppressed(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	got := collect(b)
	fired := false
	a.After(time.Second, func() { fired = true })
	nw.Kill(a.Index())
	a.Send(b.Addr(), testMsg{n: 1, size: 10})
	nw.Drain()
	if fired {
		t.Error("timer fired on dead node")
	}
	if len(*got) != 0 {
		t.Errorf("dead node's send was delivered: %v", *got)
	}
}

func TestTimerOrderingAndCancel(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a := nw.AddNode()
	var order []int
	a.After(2*time.Second, func() { order = append(order, 2) })
	a.After(1*time.Second, func() { order = append(order, 1) })
	tm := a.After(1500*time.Millisecond, func() { order = append(order, 99) })
	tm.Stop()
	a.After(1*time.Second, func() { order = append(order, 11) }) // FIFO at equal times
	nw.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Fatalf("order = %v, want [1 11 2]", order)
	}
}

func TestEverySchedulesPeriodically(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a := nw.AddNode()
	count := 0
	stop := env.Every(a, time.Second, func() { count++ })
	nw.RunFor(3500 * time.Millisecond)
	stop()
	nw.Drain()
	if count != 3 {
		t.Fatalf("periodic fired %d times, want 3", count)
	}
}

func TestStatsAccounting(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	collect(b)
	a.Send(b.Addr(), testMsg{size: 100})
	a.Send(b.Addr(), testMsg{size: 50})
	nw.Drain()
	s := nw.Stats()
	const want = 150 + 2*env.HeaderSize // each send is charged the header once
	if s.Messages != 2 || s.Bytes != want {
		t.Fatalf("stats = %+v, want 2 msgs / %d bytes", s, want)
	}
	if s.InboundByNode[b.Index()] != want || s.MaxInbound() != want {
		t.Fatalf("per-node inbound wrong: %+v", s.InboundByNode)
	}
	nw.ResetStats()
	if s := nw.Stats(); s.Bytes != 0 || s.MaxInbound() != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		nw := New(topology.NewFullMesh(), 42)
		a, b := nw.AddNode(), nw.AddNode()
		var got []int
		b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			got = append(got, m.(testMsg).n)
		}))
		for i := 0; i < 20; i++ {
			n := a.Rand().Intn(1000)
			a.Send(b.Addr(), testMsg{n: n, size: 64 + n})
		}
		nw.Drain()
		return got
	}
	x, y := run(), run()
	if len(x) != 20 || len(y) != 20 {
		t.Fatalf("lengths %d/%d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, x[i], y[i])
		}
	}
}

func TestPostRunsInOrderAtCurrentTime(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a := nw.AddNode()
	var order []int
	a.Post(func() { order = append(order, 1) })
	a.Post(func() { order = append(order, 2) })
	nw.Drain()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
	if !nw.Now().Equal(Epoch) {
		t.Fatalf("time advanced to %v during Post", nw.Now())
	}
}

func TestRunDeadlineStopsBeforeEvent(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a := nw.AddNode()
	fired := false
	a.After(10*time.Second, func() { fired = true })
	nw.RunFor(5 * time.Second)
	if fired {
		t.Fatal("event past deadline fired")
	}
	if nw.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", nw.Pending())
	}
	nw.Drain()
	if !fired {
		t.Fatal("event lost")
	}
}
