package can_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pier/internal/chaos"
	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/topology"
)

// TestNeighborTableUnderChurn runs a 64-node CAN with maintenance
// through a chaos fault schedule of crashes and graceful leaves, each
// departure followed by a fresh node joining through node 0, and checks
// every router's table as it goes: every simulated second it must be
// strictly sorted by address (so no duplicate) and hold no self entry;
// once the overlay has had a schedule interval to settle, just before
// the next fault, it must hold only live nodes whose zones abut its own.
func TestNeighborTableUnderChurn(t *testing.T) {
	const seed = 4
	cfg := can.DefaultConfig()
	cfg.Maintenance = true
	nw := simnet.New(topology.NewFullMeshInfinite(), seed)
	var routers []*can.Router // by simulator index
	add := func() int {
		e := nw.AddNode()
		r := can.New(e, cfg)
		e.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { r.HandleMessage(from, m) }))
		routers = append(routers, r)
		return e.Index()
	}
	live := make([]int, 64)
	for i := range live {
		live[i] = add()
	}
	can.Bootstrap(routers, seed)
	index := func(a env.Addr) int {
		var i int
		if _, err := fmt.Sscanf(string(a), "sim:%d", &i); err != nil || i >= len(routers) {
			t.Fatalf("neighbor %q is no node", a)
		}
		return i
	}
	checkOrder := func(when string) {
		for _, i := range live {
			nbrs := routers[i].Neighbors()
			for k, a := range nbrs {
				if k > 0 && nbrs[k-1] >= a {
					t.Fatalf("%s: node %d's table is not strictly sorted: %v", when, i, nbrs)
				}
				if a == nw.Node(i).Addr() {
					t.Fatalf("%s: node %d holds itself", when, i)
				}
			}
		}
	}
	checkAdjacent := func(when string) {
		for _, i := range live {
			r := routers[i]
			if !r.Ready() {
				t.Fatalf("%s: node %d has not joined", when, i)
			}
			for _, a := range r.Neighbors() {
				j := index(a)
				if !nw.Alive(j) {
					t.Fatalf("%s: node %d still holds dead node %d", when, i, j)
				}
				if !can.AnyAdjacent(r.Zones(), routers[j].Zones()) {
					t.Fatalf("%s: node %d holds node %d, whose zones do not abut its own", when, i, j)
				}
			}
		}
	}

	sched := chaos.BuildSchedule(chaos.Config{
		Seed: seed, CrashesPerMin: 2, GracefulFrac: 0.5, Queries: 12, QueryEvery: time.Minute,
	})
	if len(sched) < 20 {
		t.Fatalf("schedule has %d faults", len(sched))
	}
	rng := rand.New(rand.NewSource(seed))
	start := nw.Now()
	for step, ev := range append(sched, chaos.Event{At: sched[len(sched)-1].At + time.Minute}) {
		for nw.Now().Before(start.Add(ev.At)) {
			nw.RunFor(time.Second)
			checkOrder(fmt.Sprintf("step %d at %v", step, nw.Now().Sub(start)))
		}
		checkAdjacent(fmt.Sprintf("before step %d (%v)", step, ev.Kind))
		if step == len(sched) {
			break
		}
		k := 1 + rng.Intn(len(live)-1) // node 0 is the landmark
		v := live[k]
		live = slices.Delete(live, k, k+1)
		if ev.Kind == chaos.EvLeave {
			routers[v].Leave()
		}
		nw.Kill(v)
		j := add()
		live = append(live, j)
		landmark := nw.Node(0).Addr()
		nw.Node(j).Post(func() { routers[j].Join(landmark) })
	}
}
