package multicast

import (
	"fmt"
	"testing"
	"time"

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
	if *delivered != 3*batch || len(f.seen) != 3*batch || f.old != nil {
		t.Fatalf("delivered %d, remembered %d (+%d retired), want %d remembered in one generation", *delivered, len(f.seen), len(f.old), 3*batch)
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
	if *delivered != 2 || len(f.old) != 1 {
		t.Fatalf("delivered %d with %d retired entries, want flood 1 still suppressed from the retired generation", *delivered, len(f.old))
	}
	nw.RunFor(11 * time.Minute)
	flood(3) // drops it
	if len(f.seen)+len(f.old) != 2 {
		t.Fatalf("%d floods remembered 22 minutes on, want 2: the first must be gone", len(f.seen)+len(f.old))
	}
	flood(1)
	if *delivered != 4 {
		t.Fatal("a flood forgotten after twenty minutes was still suppressed")
	}
}
