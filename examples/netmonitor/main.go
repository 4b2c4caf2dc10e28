// Network monitoring: continuous queries over packet-header streams —
// the paper's driving application class (§2.1: "network tools like
// tcpdump can be used to generate traces of packet headers, supporting
// queries on bandwidth utilization by source, by port, etc."), using
// the continuous/windowed execution the paper sketches as future work
// (§7: "Continuous queries over streams").
//
// Every node wraps a synthetic tcpdump feed and publishes one tuple per
// observed packet; a monitoring station asks for per-source bandwidth,
// aggregated in 10-second tumbling windows.
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/topology"
)

func main() {
	sn := pier.NewSimNetwork(32, topology.NewFullMesh(), 3, pier.DefaultOptions())

	plan := monitorPlan()

	type row struct {
		src   string
		pkts  int64
		bytes int64
	}
	perWindow := map[int][]row{}
	_, err := sn.Nodes[0].Query(plan, func(t *core.Tuple, w int) {
		perWindow[w] = append(perWindow[w], row{t.Vals[0].(string), t.Vals[1].(int64), t.Vals[2].(int64)})
	})
	if err != nil {
		panic(err)
	}

	// Synthetic traffic: a handful of sources with different rates;
	// src "10.0.0.9" goes loud in window 1 — the anomaly the monitor
	// should surface. Each wrapper publishes packets as they happen.
	rng := rand.New(rand.NewSource(9))
	sources := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.9"}
	iid := int64(0)
	for at := 250 * time.Millisecond; at < 30*time.Second; at += 250 * time.Millisecond {
		at := at
		node := rng.Intn(len(sn.Nodes))
		src := sources[rng.Intn(3)] // background traffic
		if at > 10*time.Second && at < 20*time.Second && rng.Intn(2) == 0 {
			src = "10.0.0.9" // burst in the second window
		}
		iid++
		id := iid
		size := int64(64 + rng.Intn(1400))
		n := sn.Nodes[node]
		sn.Net.Node(node).After(at, func() {
			pkt := &pier.Tuple{Rel: "packets", Vals: []pier.Value{src, int64(80), size}}
			n.Publish("packets", fmt.Sprintf("%s/%d", src, id), id, pkt, time.Minute)
		})
	}

	// Run long enough for all three windows to be emitted.
	sn.RunFor(50 * time.Second)

	for w := 0; w < 3; w++ {
		fmt.Printf("== window %d (t=%ds..%ds): bandwidth by source ==\n", w, w*10, (w+1)*10)
		rows := perWindow[w]
		sort.Slice(rows, func(i, j int) bool { return rows[i].bytes > rows[j].bytes })
		for _, r := range rows {
			bar := ""
			for i := int64(0); i < r.bytes/2000; i++ {
				bar += "#"
			}
			fmt.Printf("  %-10s %4d pkts %7d bytes %s\n", r.src, r.pkts, r.bytes, bar)
		}
	}
	fmt.Println("note: 10.0.0.9 should spike in window 1 — the monitoring signal")
}

// monitorPlan is the continuous query: per-source packet and byte
// counts per 10-second window, three windows. src is the key column:
// each packet's resourceID is its source and a sequence number.
func monitorPlan() *pier.Plan {
	plan, err := pier.ParseSQL(`
		SELECT src, count(*), sum(size) FROM packets GROUP BY src
		EVERY '10s' WINDOWS 3 WAIT '4s'`,
		pier.Catalog{"packets": {Name: "packets", Cols: []string{"src", "port", "size"}, Key: "src"}})
	if err != nil {
		panic(err)
	}
	plan.TTL = 2 * time.Minute
	return plan
}
