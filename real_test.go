package pier

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht/can"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/workload"
)

// startCluster launches n real-transport nodes on loopback, joined into
// one CAN overlay.
func startCluster(t *testing.T, n int) []*RealNode {
	t.Helper()
	return startClusterOpts(t, n, DefaultOptions())
}

func startClusterOpts(t *testing.T, n int, opts Options) []*RealNode {
	t.Helper()
	nodes := make([]*RealNode, 0, n)
	first, err := StartNode("127.0.0.1:0", env.NilAddr, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		nd, err := StartNode("127.0.0.1:0", first.Addr(), int64(i+2), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !nd.WaitReady(10 * time.Second) {
			t.Fatalf("node %d did not join", i)
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

func TestRealNetPutGet(t *testing.T) {
	nodes := startCluster(t, 4)
	nodes[1].Publish("T", "k1", 1, &Tuple{Rel: "T", Vals: []Value{int64(7), "x"}}, time.Minute)

	// Put is async (lookup + direct send); poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ch := make(chan []*storage.Item, 1)
		nodes[3].Do(func() {
			nodes[3].Provider().Get("T", "k1", func(items []*storage.Item) {
				select {
				case ch <- items:
				default:
				}
			})
		})
		select {
		case items := <-ch:
			if len(items) == 1 {
				tu := items[0].Payload.(*Tuple)
				if tu.Vals[0].(int64) != 7 || tu.Vals[1].(string) != "x" {
					t.Fatalf("wrong tuple over the wire: %v", tu)
				}
				return
			}
		case <-time.After(5 * time.Second):
		}
		if time.Now().After(deadline) {
			t.Fatal("item never became visible over realnet")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRealNetEndToEndJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a TCP cluster")
	}
	nodes := startCluster(t, 5)
	tables := workload.Generate(workload.Config{STuples: 12, Seed: 31, PadBytes: 32})
	for i, r := range tables.R {
		nodes[i%len(nodes)].Publish("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, time.Minute)
	}
	for i, s := range tables.S {
		nodes[i%len(nodes)].Publish("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, time.Minute)
	}
	time.Sleep(500 * time.Millisecond) // let puts land

	c1, c2, c3 := workload.Constants(1, 1, 1) // no filtering: every matched pair
	want := tables.ReferenceJoin(c1, c2, c3)

	var mu sync.Mutex
	var got []*Tuple
	plan := workload.JoinPlan(SymmetricHash, c1, c2, c3)
	if _, err := nodes[0].Query(plan, func(tu *core.Tuple, _ int) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(want) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("real deployment returned %d results, want %d", len(got), len(want))
	}
	var gotPairs, wantPairs []string
	for _, tu := range got {
		gotPairs = append(gotPairs, fmt.Sprintf("%v-%v", tu.Vals[0], tu.Vals[1]))
	}
	for _, p := range want {
		wantPairs = append(wantPairs, fmt.Sprintf("%d-%d", p[0], p[1]))
	}
	sort.Strings(gotPairs)
	sort.Strings(wantPairs)
	for i := range wantPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("result mismatch at %d: %s vs %s", i, gotPairs[i], wantPairs[i])
		}
	}
}

func TestRealNetMulticastQueryDissemination(t *testing.T) {
	nodes := startCluster(t, 3)
	var mu sync.Mutex
	seen := 0
	for _, nd := range nodes {
		nd := nd
		nd.Do(func() {
			nd.Provider().OnMulticast(func(origin env.Addr, ns string, m env.Message) {
				if ns == "hello" {
					mu.Lock()
					seen++
					mu.Unlock()
				}
			})
		})
	}
	nodes[1].Do(func() {
		nodes[1].Provider().Multicast("hello", &Tuple{Rel: "x", Vals: []Value{int64(1)}})
	})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := seen
		mu.Unlock()
		if n == 3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("multicast reached %d/3 nodes", seen)
}

// TestRealNodeTransportStats: the transport's batching counters
// (frames/batches/bytes/drops) must be readable through the node-level
// accessor — the NetStats probe and operators consume them there.
func TestRealNodeTransportStats(t *testing.T) {
	nodes := startCluster(t, 3)
	ls, ok := nodes[0].TransportStats()
	if !ok {
		t.Fatal("real node must expose link counters")
	}
	// The CAN join protocol alone moves frames.
	deadline := time.Now().Add(10 * time.Second)
	for ls.FramesSent == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		ls, _ = nodes[0].TransportStats()
	}
	if ls.FramesSent == 0 || ls.BytesSent == 0 {
		t.Fatalf("no traffic counted after cluster join: %+v", ls)
	}
	if ls.BatchesSent == 0 || ls.BatchesSent > ls.FramesSent {
		t.Fatalf("batch accounting inconsistent: %+v", ls)
	}
}

// TestRealNetAdaptiveStrategyChoice runs the statistics catalog over
// real TCP sockets: nodes publish summaries on the refresh loop, the
// initiator warms its cache, and an AutoStrategy query picks Fetch
// Matches (the inner table is hashed on the join attribute) — the same
// adaptive behavior the simnet benchmark demonstrates, deployed.
func TestRealNetAdaptiveStrategyChoice(t *testing.T) {
	opts := DefaultOptions()
	opts.Stats.Interval = 200 * time.Millisecond
	nodes := startClusterOpts(t, 4, opts)

	tables := workload.Generate(workload.Config{STuples: 24, Seed: 9})
	for i, r := range tables.R {
		nodes[i%4].Publish("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, time.Minute)
	}
	for i, s := range tables.S {
		nodes[i%4].Publish("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, time.Minute)
	}

	// Let the refresh loop publish, then warm the initiator's cache.
	warmed := func() bool {
		ch := make(chan int, 2)
		nodes[0].Do(func() {
			nodes[0].Stats().Fetch("R", func(_ TableStats, ok bool) {
				if ok {
					ch <- 1
				} else {
					ch <- 0
				}
			})
			nodes[0].Stats().Fetch("S", func(_ TableStats, ok bool) {
				if ok {
					ch <- 1
				} else {
					ch <- 0
				}
			})
		})
		got := 0
		for i := 0; i < 2; i++ {
			select {
			case v := <-ch:
				got += v
			case <-time.After(5 * time.Second):
				return false
			}
		}
		return got == 2
	}
	deadline := time.Now().Add(15 * time.Second)
	for !warmed() {
		if time.Now().After(deadline) {
			t.Fatal("catalog never warmed over TCP")
		}
		time.Sleep(100 * time.Millisecond)
	}

	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	expected := len(tables.ReferenceJoin(c1, c2, c3))
	plan := workload.JoinPlan(SymmetricHash, c1, c2, c3)
	plan.AutoStrategy = true
	plan.TTL = time.Minute

	var mu sync.Mutex
	rows := 0
	id, err := nodes[0].Query(plan, func(*core.Tuple, int) {
		mu.Lock()
		rows++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Cancel(id)

	if plan.Strategy != FetchMatches {
		t.Fatalf("warm catalog chose %v over TCP, want fetch matches", plan.Strategy)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := rows
		mu.Unlock()
		if n >= expected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("adaptive query returned %d/%d rows", n, expected)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRealNodeFreesExpiredSoftState: a real node runs until the process
// exits, so it must delete expired items on its own — with default
// options, and without a read to trigger the lazy filter.
func TestRealNodeFreesExpiredSoftState(t *testing.T) {
	nd := startCluster(t, 1)[0]
	stored := func() (n int) {
		nd.Do(func() { n = nd.Provider().Store().TotalLen() })
		return n
	}
	nd.Publish("T", "k1", 1, &Tuple{Rel: "T", Vals: []Value{int64(7)}}, 200*time.Millisecond)
	if stored() != 1 {
		t.Fatalf("stored %d items after a local publish, want 1", stored())
	}
	deadline := time.Now().Add(5 * time.Second)
	for stored() != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := stored(); n != 0 {
		t.Fatalf("%d expired items still held 5s after a 200ms lifetime", n)
	}
}

// TestRealNetLoopbackScan streams a multi-frame result set through the
// credit window over real sockets — the only tier-1 test that does: two
// loopback TCP nodes, 400 tuples of S spread across them, and a
// 50%-selective scan whose every matching tuple must reach the
// initiator through the pooled, sharded result path. (benchmark/'s
// tcp-scan measures the same path at 150k tuples, outside tier-1.)
func TestRealNetLoopbackScan(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP deployment")
	}
	nodes := startCluster(t, 2)

	// Puts are asynchronous fire-and-forget sends, and the transport
	// drops frames beyond the per-peer outbox like a congested
	// datagram network would — so load in chunks, letting the store
	// absorb each one before issuing the next, and wait for the whole
	// load before querying.
	tables := workload.Generate(workload.Config{STuples: 400, Seed: 40, PadBytes: 64})
	loadDeadline := time.Now().Add(30 * time.Second)
	const chunk = 256
	for off := 0; off < len(tables.S); off += chunk {
		end := min(off+chunk, len(tables.S))
		for i, s := range tables.S[off:end] {
			nodes[(off+i)%2].Publish("S", core.ValueString(s.Vals[workload.SPkey]), int64(off+i), s, 10*time.Minute)
		}
		for time.Now().Before(loadDeadline) {
			stored := 0
			for _, nd := range nodes {
				nd.Do(func() { stored += nd.Provider().Store().TotalLen() })
			}
			if stored >= end {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	_, c2, _ := workload.Constants(0.5, 0.5, 0.5)
	expected := 0
	for _, s := range tables.S {
		if v, ok := s.Vals[workload.SNum2].(int64); ok && v > c2 {
			expected++
		}
	}
	if expected == 0 {
		t.Fatal("scan workload produced no expected results")
	}
	plan := &core.Plan{
		Tables: []core.TableRef{{
			NS:     "S",
			Filter: &core.Cmp{Op: core.GT, L: &core.Col{Idx: workload.SNum2}, R: &core.Const{V: c2}},
			RIDCol: workload.SPkey,
		}},
		Output: []core.Expr{&core.Col{Idx: workload.SPkey}, &core.Col{Idx: workload.SNum2}},
		TTL:    10 * time.Minute,
	}

	var mu sync.Mutex
	received := 0
	id, err := nodes[0].Query(plan, func(*core.Tuple, int) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodes[0].Cancel(id)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		cnt := received
		mu.Unlock()
		if cnt >= expected {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if received < expected {
		t.Fatalf("loopback scan delivered %d/%d tuples", received, expected)
	}
}

// TestRealNetKeepalivesAndTakeover runs CAN maintenance over real TCP:
// the table (full update) and then bare digests must survive the codec
// and the transport — a keepalive the decoder refused would cost the
// connection — and when a node dies its neighbors must agree, from the
// table it sent them, on who adopts its zones.
func TestRealNetKeepalivesAndTakeover(t *testing.T) {
	opts := DefaultOptions()
	opts.CANConfig.Maintenance = true
	opts.CANConfig.KeepaliveInterval = 40 * time.Millisecond
	opts.CANConfig.FailTimeout = 400 * time.Millisecond
	nodes := startClusterOpts(t, 5, opts)
	covered := func(live []*RealNode) float64 {
		vol := 0.0
		for _, nd := range live {
			done := make(chan float64, 1)
			nd.Do(func() { done <- can.TotalVolume(nd.Router().(*can.Router).Zones()) })
			vol += <-done
		}
		return vol
	}
	time.Sleep(400 * time.Millisecond) // ~10 ticks: one full update, then bare digests
	if v := covered(nodes); v < 0.999999 || v > 1.000001 {
		t.Fatalf("five live nodes cover %v of the space after ten keepalive rounds, want 1", v)
	}
	for _, nd := range nodes {
		if s, ok := nd.TransportStats(); ok && s.Drops != 0 {
			t.Fatalf("transport dropped %d frames while idle", s.Drops)
		}
	}
	nodes[2].Close()
	live := append(append([]*RealNode{}, nodes[:2]...), nodes[3:]...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := covered(live)
		if v > 0.999999 && v < 1.000001 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors cover %v of the space 10 s after a node died, want 1", v)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
