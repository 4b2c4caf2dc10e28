package simnet

import (
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/topology"
)

func TestLossDropsDeterministically(t *testing.T) {
	run := func() (int, int64) {
		nw := New(topology.NewFullMeshInfinite(), 7)
		a, b := nw.AddNode(), nw.AddNode()
		got := collect(b)
		nw.SetLoss(0.5)
		for i := 0; i < 200; i++ {
			a.Send(b.Addr(), testMsg{n: i, size: 10})
		}
		nw.Drain()
		return len(*got), nw.Stats().LostLoss
	}
	n1, lost1 := run()
	n2, lost2 := run()
	if n1 != n2 || lost1 != lost2 {
		t.Fatalf("loss not deterministic: %d/%d delivered, %d/%d lost", n1, n2, lost1, lost2)
	}
	if n1+int(lost1) != 200 {
		t.Fatalf("delivered %d + lost %d != 200", n1, lost1)
	}
	if n1 < 50 || n1 > 150 {
		t.Fatalf("50%% loss delivered %d/200", n1)
	}
}

func TestLossNeverAppliesToSelfSends(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 7)
	a := nw.AddNode()
	got := collect(a)
	nw.SetLoss(1.0)
	for i := 0; i < 20; i++ {
		a.Send(a.Addr(), testMsg{n: i, size: 10})
	}
	nw.Drain()
	if len(*got) != 20 {
		t.Fatalf("self-sends lost under loss: %d/20 delivered", len(*got))
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b, c := nw.AddNode(), nw.AddNode(), nw.AddNode()
	gotB, gotC := collect(b), collect(c)

	nw.Partition([]int{b.Index()})
	a.Send(b.Addr(), testMsg{n: 1, size: 10}) // crosses the partition
	a.Send(c.Addr(), testMsg{n: 2, size: 10}) // same island (implicit 0)
	nw.Drain()
	if len(*gotB) != 0 {
		t.Fatalf("message crossed partition: %v", *gotB)
	}
	if len(*gotC) != 1 {
		t.Fatalf("same-island message lost: %v", *gotC)
	}
	if s := nw.Stats(); s.LostPartition != 1 {
		t.Fatalf("LostPartition = %d, want 1", s.LostPartition)
	}

	nw.Heal()
	a.Send(b.Addr(), testMsg{n: 3, size: 10})
	nw.Drain()
	if len(*gotB) != 1 || (*gotB)[0] != 3 {
		t.Fatalf("heal did not restore connectivity: %v", *gotB)
	}
}

func TestPartitionGroupsAreIslands(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	var envs []*NodeEnv
	for i := 0; i < 4; i++ {
		envs = append(envs, nw.AddNode())
	}
	got2 := collect(envs[2])
	got1 := collect(envs[1])
	// Islands: {0,1} and {2,3}.
	nw.Partition([]int{0, 1}, []int{2, 3})
	envs[0].Send(envs[1].Addr(), testMsg{n: 1, size: 1}) // within island
	envs[0].Send(envs[2].Addr(), testMsg{n: 2, size: 1}) // across
	envs[3].Send(envs[2].Addr(), testMsg{n: 3, size: 1}) // within island
	nw.Drain()
	if len(*got1) != 1 || len(*got2) != 1 || (*got2)[0] != 3 {
		t.Fatalf("island semantics wrong: got1=%v got2=%v", *got1, *got2)
	}
}

func TestLinkFaultOverridesGlobal(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	got := collect(b)
	nw.SetLoss(1.0)
	nw.SetLinkFault(a.Index(), b.Index(), 0, 0) // reliable link under global loss
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), testMsg{n: i, size: 1})
	}
	nw.Drain()
	if len(*got) != 10 {
		t.Fatalf("link override ignored: %d/10 delivered", len(*got))
	}
	nw.ClearLinkFault(a.Index(), b.Index())
	a.Send(b.Addr(), testMsg{n: 99, size: 1})
	nw.Drain()
	if len(*got) != 10 {
		t.Fatalf("cleared override still in effect: %d delivered", len(*got))
	}
}

func TestExtraDelayShiftsDelivery(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	var at time.Time
	b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { at = nw.Now() }))
	nw.SetExtraDelay(400 * time.Millisecond)
	a.Send(b.Addr(), testMsg{n: 1, size: 10})
	nw.Drain()
	if want := Epoch.Add(500 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v (100ms latency + 400ms extra)", at, want)
	}
}

// Regression for the Kill audit: killing a node must reclaim its queued
// timers and in-flight messages from the event heap, zero its
// inbound-stats slot, and release its handler so the node stack can be
// collected.
func TestKillReclaimsPendingEventsAndStats(t *testing.T) {
	nw := New(topology.NewFullMeshInfinite(), 1)
	a, b := nw.AddNode(), nw.AddNode()
	collect(b)

	// Inbound traffic before the kill occupies b's stats slot.
	a.Send(b.Addr(), testMsg{n: 0, size: 500})
	nw.Drain()
	if nw.Stats().InboundByNode[b.Index()] != 500+env.HeaderSize {
		t.Fatal("setup: no inbound bytes recorded")
	}

	// Queue state owned by b: periodic timers and an in-flight message.
	fired := 0
	for i := 0; i < 8; i++ {
		b.After(time.Duration(i+1)*time.Second, func() { fired++ })
	}
	a.Send(b.Addr(), testMsg{n: 1, size: 10})
	if nw.Pending() == 0 {
		t.Fatal("setup: no pending events")
	}

	nw.Kill(b.Index())
	if nw.Pending() != 0 {
		t.Fatalf("Kill left %d events in the heap", nw.Pending())
	}
	s := nw.Stats()
	if s.Dropped != 1 {
		t.Fatalf("in-flight message not counted dropped: Dropped=%d", s.Dropped)
	}
	if s.InboundByNode[b.Index()] != 0 {
		t.Fatalf("inbound slot not reclaimed: %d", s.InboundByNode[b.Index()])
	}
	if b.handler != nil {
		t.Fatal("handler not released on Kill")
	}
	nw.Drain()
	if fired != 0 {
		t.Fatalf("%d timers of the killed node fired", fired)
	}
	if s := nw.Stats(); s.DeliveredToDead != 0 {
		t.Fatalf("DeliveredToDead = %d, want 0", s.DeliveredToDead)
	}

	// Sends to the dead node drop eagerly without queue growth.
	a.Send(b.Addr(), testMsg{n: 2, size: 10})
	if nw.Pending() != 0 {
		t.Fatal("send to dead node enqueued an event")
	}
	if s := nw.Stats(); s.Dropped != 2 {
		t.Fatalf("eager drop not counted: Dropped=%d", s.Dropped)
	}

	// Kill is idempotent and survivors keep working.
	nw.Kill(b.Index())
	gotA := collect(a)
	b2 := nw.AddNode()
	collect(b2)
	b2.Send(a.Addr(), testMsg{n: 9, size: 10})
	nw.Drain()
	if len(*gotA) != 1 || (*gotA)[0] != 9 {
		t.Fatalf("survivor traffic broken after kill: %v", *gotA)
	}
}

func TestKillInterleavedWithTrafficKeepsHeapConsistent(t *testing.T) {
	// Heap rebuild under load: kill nodes while many events are queued
	// and verify pop order stays monotonic (Step panics on time going
	// backwards) and all remaining events fire.
	nw := New(topology.NewFullMesh(), 3)
	var envs []*NodeEnv
	for i := 0; i < 8; i++ {
		envs = append(envs, nw.AddNode())
	}
	delivered := 0
	for _, e := range envs {
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { delivered++ }))
	}
	for round := 0; round < 20; round++ {
		for i, e := range envs {
			e.Send(envs[(i+1)%len(envs)].Addr(), testMsg{n: round, size: 100})
			e.Send(envs[(i+3)%len(envs)].Addr(), testMsg{n: round, size: 100})
		}
	}
	nw.Kill(2)
	nw.RunFor(50 * time.Millisecond)
	nw.Kill(5)
	nw.Kill(7)
	nw.Drain()
	s := nw.Stats()
	if got := int64(delivered); got != s.Messages {
		t.Fatalf("delivered %d != Messages %d", delivered, s.Messages)
	}
	if s.Messages+s.Dropped != 8*2*20 {
		t.Fatalf("messages %d + dropped %d != sent %d", s.Messages, s.Dropped, 8*2*20)
	}
}
