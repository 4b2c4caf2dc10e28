package multicast

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

type note struct{ N int }

func (n *note) WireSize() int { return 100 }

type testNet struct {
	nw       *simnet.Network
	envs     []*simnet.NodeEnv
	flooders []*Flooder
	got      []int // deliveries per node
}

func build(t *testing.T, n int) *testNet {
	t.Helper()
	tn := &testNet{nw: simnet.New(topology.NewFullMeshInfinite(), 9), got: make([]int, n)}
	routers := make([]*can.Router, n)
	for i := 0; i < n; i++ {
		i := i
		e := tn.nw.AddNode()
		r := can.New(e, can.DefaultConfig())
		f := New(e, r, false, func(env.Addr, env.Message) { tn.got[i]++ })
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			if r.HandleMessage(from, m) {
				return
			}
			f.HandleMessage(from, m)
		}))
		routers[i] = r
		tn.envs = append(tn.envs, e)
		tn.flooders = append(tn.flooders, f)
	}
	can.Bootstrap(routers, 33)
	return tn
}

func TestDirectedFloodReachesAllExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 32, 128} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tn := build(t, n)
			src := n / 2
			tn.envs[src].Post(func() { tn.flooders[src].Multicast(&note{N: 1}) })
			tn.nw.Drain()
			for i, c := range tn.got {
				if c != 1 {
					t.Fatalf("node %d delivered %d times, want 1", i, c)
				}
			}
		})
	}
}

func TestDirectedFloodIsTrafficEfficient(t *testing.T) {
	// Directed flooding should cost ~1 message per node, not ~2d. Allow
	// slack for the half-way rule's antipodal overlaps.
	n := 256
	tn := build(t, n)
	tn.nw.ResetStats()
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	msgs := tn.nw.Stats().Messages
	if msgs > int64(2*n) {
		t.Fatalf("flood used %d messages for %d nodes; directed flooding should be near n", msgs, n)
	}
	if msgs < int64(n-1) {
		t.Fatalf("flood used only %d messages; cannot have reached %d nodes", msgs, n)
	}
}

func TestSequentialMulticastsAllDelivered(t *testing.T) {
	tn := build(t, 16)
	for k := 0; k < 5; k++ {
		tn.envs[k].Post(func() { tn.flooders[0].Multicast(&note{N: 1}) })
	}
	tn.nw.Drain()
	for i, c := range tn.got {
		if c != 5 {
			t.Fatalf("node %d saw %d of 5 multicasts", i, c)
		}
	}
}

func TestFloodSurvivesDeadNodes(t *testing.T) {
	tn := build(t, 64)
	for _, dead := range []int{3, 17, 40} {
		tn.nw.Kill(dead)
	}
	tn.envs[0].Post(func() { tn.flooders[0].Multicast(&note{}) })
	tn.nw.Drain()
	reached := 0
	for i, c := range tn.got {
		switch i {
		case 3, 17, 40:
			if c != 0 {
				t.Fatal("dead node got the multicast")
			}
		default:
			if c >= 1 {
				reached++
			}
		}
	}
	// Directed flooding loses the subtree behind a dead node; the
	// remaining coverage must still be substantial (soft state + query
	// refresh absorb the rest in practice).
	if reached < 50 {
		t.Fatalf("flood reached only %d/61 live nodes around failures", reached)
	}
}

func TestWireSizeIncludesPayloadAndHint(t *testing.T) {
	m := &FloodMsg{Origin: "sim:0", Seq: 1, Hint: []uint32{1, 2, 3, 4}, Payload: &note{}}
	// Tag, origin, seq, four one-byte hints behind their count, and the
	// untagged payload at its literal size.
	if want := 1 + (1 + 5) + 1 + (1 + 4) + 100; m.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", m.WireSize(), want)
	}
}

// lone builds a flooder on a one-node overlay: floods handed to it are
// delivered and forwarded to nobody.
func lone(t *testing.T) (*simnet.Network, *Flooder, *int) {
	t.Helper()
	nw := simnet.New(topology.NewFullMeshInfinite(), 1)
	e := nw.AddNode()
	r := can.New(e, can.DefaultConfig())
	r.Join(env.NilAddr)
	delivered := new(int)
	return nw, New(e, r, false, func(env.Addr, env.Message) { *delivered++ }), delivered
}

// TestSeenTableCostsTheSamePerFloodAtAnySize: the duplicate table used
// to be rescanned in full by every new flood once it held 8 192 entries
// younger than ten minutes. 3 x 8 192 floods inside one simulated minute
// must all be remembered, and the third batch must cost what the first
// did (it cost over a thousand times more).
func TestSeenTableCostsTheSamePerFloodAtAnySize(t *testing.T) {
	nw, f, delivered := lone(t)
	const batch = 8192
	var took [3]time.Duration
	for b := range took {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f.HandleMessage("peer:1", &FloodMsg{Origin: "peer:2", Seq: uint64(b*batch + i), Payload: &note{}})
		}
		took[b] = time.Since(t0)
		nw.RunFor(20 * time.Second)
	}
	if *delivered != 3*batch || f.seen.n != 3*batch || f.old.n != 0 {
		t.Fatalf("delivered %d, remembered %d (+%d retired), want %d remembered in one generation", *delivered, f.seen.n, f.old.n, 3*batch)
	}
	f.HandleMessage("peer:1", &FloodMsg{Origin: "peer:2", Seq: 7, Payload: &note{}})
	if *delivered != 3*batch {
		t.Fatal("a duplicate was delivered")
	}
	t.Logf("batches of %d floods took %v", batch, took)
	if took[2] > 20*took[0]+50*time.Millisecond {
		t.Errorf("the third batch of %d floods took %v against the first's %v: the table is being rescanned", batch, took[2], took[0])
	}
}

// TestSeenFloodsExpire: a flood is remembered for at least ten minutes
// and forgotten within twenty, whole generations at a time.
func TestSeenFloodsExpire(t *testing.T) {
	nw, f, delivered := lone(t)
	flood := func(seq uint64) {
		f.HandleMessage("peer:1", &FloodMsg{Origin: "peer:2", Seq: seq, Payload: &note{}})
	}
	flood(1)
	nw.RunFor(9 * time.Minute)
	flood(1)
	if *delivered != 1 {
		t.Fatal("a duplicate nine minutes later was delivered")
	}
	nw.RunFor(2 * time.Minute)
	flood(2) // retires the first generation
	flood(1)
	if *delivered != 2 || f.old.n != 1 {
		t.Fatalf("delivered %d with %d retired entries, want flood 1 still suppressed from the retired generation", *delivered, f.old.n)
	}
	nw.RunFor(11 * time.Minute)
	flood(3) // drops it
	if f.seen.n+f.old.n != 2 {
		t.Fatalf("%d floods remembered 22 minutes on, want 2: the first must be gone", f.seen.n+f.old.n)
	}
	flood(1)
	if *delivered != 4 {
		t.Fatal("a flood forgotten after twenty minutes was still suppressed")
	}
}

// counting is a node environment whose sends are only counted.
type counting struct {
	env.Env
	sent *int
}

func (c counting) Send(env.Addr, env.Message) { *c.sent++ }

// TestDuplicatesAndDirectedForwardingAllocateNothing: every node handles
// every flood of the overlay, so suppressing a duplicate and picking a
// flood's next hops must not allocate.
func TestDuplicatesAndDirectedForwardingAllocateNothing(t *testing.T) {
	tn := build(t, 32)
	rt := tn.flooders[5].rt
	sent := new(int)
	f := New(counting{tn.envs[5], sent}, rt, false, func(env.Addr, env.Message) {})
	m := &FloodMsg{Origin: "elsewhere", Seq: 1, Hint: tn.flooders[0].rt.(dht.MulticastRouter).MulticastHint(), Payload: &note{}}
	from := rt.Neighbors()[0]
	f.HandleMessage(from, m)
	if a := testing.AllocsPerRun(100, func() { f.HandleMessage(from, m) }); a != 0 {
		t.Errorf("a duplicate costs %.1f allocations, want 0", a)
	}
	*sent = 0
	if a := testing.AllocsPerRun(100, func() { f.forward(m, env.NilAddr) }); a != 0 {
		t.Errorf("directed forwarding costs %.1f allocations, want 0", a)
	}
	if *sent == 0 {
		t.Fatal("forwarding sent nothing")
	}
}

// TestFingerprintsArePinned: a flood's fingerprint depends only on its
// (Origin, Seq), so every node and every run agree on it.
func TestFingerprintsArePinned(t *testing.T) {
	for _, c := range []struct {
		origin env.Addr
		seq    uint64
		want   uint64
	}{
		{"sim:0", 1, 0x9a5b1564a4d61720},
		{"sim:0", 2, 0x96eba8f47d5237d8},
		{"sim:8999", 1, 0x9c55188334f957c8},
		{"127.0.0.1:7001", 1 << 40, 0x4800d6017621009c},
	} {
		if got := fingerprint(c.origin, c.seq); got != c.want {
			t.Errorf("fingerprint(%q, %d) = %#x, want %#x", c.origin, c.seq, got, c.want)
		}
	}
}
