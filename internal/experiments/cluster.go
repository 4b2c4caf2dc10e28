package experiments

import (
	"fmt"
	"sync"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/workload"
)

// ClusterConfig drives Figure 8: the prototype deployed (not simulated)
// on a cluster, network size 2..64, load scaled with the number of
// nodes, measuring the time to the 30th result tuple.
//
// The paper used 64 shared PCs on a 1 Gbps switch; here the nodes are
// real TCP processes multiplexed over loopback — the same code path
// through net.Conn, wire framing, and per-node event loops.
type ClusterConfig struct {
	Sizes    []int
	SPerNode int
	Seed     int64
}

// DefaultCluster returns the scaled default.
func DefaultCluster(full bool) ClusterConfig {
	cfg := ClusterConfig{Sizes: []int{2, 4, 8, 16}, SPerNode: 8, Seed: 77}
	if full {
		cfg.Sizes = []int{2, 4, 8, 16, 32, 64}
	}
	return cfg
}

// Cluster runs the deployment sweep and reports wall-clock times.
func Cluster(cfg ClusterConfig) *Table {
	t := &Table{
		Title:   "Figure 8: real deployment over loopback TCP — time to 30th result tuple",
		Note:    "paper: flat as size and load scale together on a 1 Gbps cluster",
		Headers: []string{"nodes", "time to 30th (s)", "results", "expected"},
	}
	for _, n := range cfg.Sizes {
		kth, got, want := clusterRun(n, cfg)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprintf("%.3f", kth.Seconds()), fmt.Sprint(got), fmt.Sprint(want)})
	}
	return t
}

func clusterRun(n int, cfg ClusterConfig) (kth time.Duration, got, want int) {
	opts := pier.DefaultOptions()
	nodes := make([]*pier.RealNode, 0, n)
	first, err := pier.StartNode("127.0.0.1:0", env.NilAddr, cfg.Seed, opts)
	if err != nil {
		panic(err)
	}
	nodes = append(nodes, first)
	for i := 1; i < n; i++ {
		nd, err := pier.StartNode("127.0.0.1:0", first.Addr(), cfg.Seed+int64(i), opts)
		if err != nil {
			panic(err)
		}
		if !nd.WaitReady(15 * time.Second) {
			panic(fmt.Sprintf("cluster node %d failed to join", i))
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	tables := workload.Generate(workload.Config{STuples: cfg.SPerNode * n, Seed: cfg.Seed + 9, PadBytes: 964})
	for i, r := range tables.R {
		nodes[i%n].Publish("R", core.ValueString(r.Vals[workload.RPkey]), int64(i), r, 10*time.Minute)
	}
	for i, s := range tables.S {
		nodes[i%n].Publish("S", core.ValueString(s.Vals[workload.SPkey]), int64(i), s, 10*time.Minute)
	}
	// Puts are asynchronous (lookup + direct send); wait until the whole
	// load is stored so the query's snapshot covers it, as in the
	// paper's setup ("after ... tables R and S are loaded", §5.2).
	total := len(tables.R) + len(tables.S)
	loadDeadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(loadDeadline) {
		stored := 0
		for _, nd := range nodes {
			nd.Do(func() { stored += nd.Provider().Store().TotalLen() })
		}
		if stored >= total {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	expected := tables.ReferenceJoin(c1, c2, c3)
	want = len(expected)

	var mu sync.Mutex
	var arrivals []time.Duration
	start := time.Now()
	plan := workload.JoinPlan(core.SymmetricHash, c1, c2, c3)
	id, err := nodes[0].Query(plan, func(*core.Tuple, int) {
		mu.Lock()
		arrivals = append(arrivals, time.Since(start))
		mu.Unlock()
	})
	if err != nil {
		panic(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		cnt := len(arrivals)
		mu.Unlock()
		if cnt >= want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	nodes[0].Cancel(id)
	mu.Lock()
	defer mu.Unlock()
	got = len(arrivals)
	if got >= kthTuple {
		kth = arrivals[kthTuple-1]
	} else if got > 0 {
		kth = arrivals[got-1]
	}
	return kth, got, want
}
