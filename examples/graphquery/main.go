// Graph reachability: the paper's §7 research thrust "Recursive Queries
// on Network Graphs" — "in the Gnutella filesharing network it is
// useful to compute the set of nodes reachable within k hops of each
// node. A twist here is that the data is the network: the graph being
// queried is in fact the communication network used in execution."
//
// Every node publishes its own CAN overlay links into a "links"
// relation (src, dst), hashed on src. Reachability from a source is
// then k rounds of a distributed semi-naive join: the initiator
// publishes the current frontier as a temporary relation and joins it
// against "links" with the Fetch Matches strategy — one DHT get per
// frontier member, exactly an index lookup on the edge table.
package main

import (
	"fmt"
	"time"

	"pier"
	"pier/internal/topology"
)

func main() {
	const n = 64
	sn := pier.NewSimNetwork(n, topology.NewFullMesh(), 17, pier.DefaultOptions())

	// Each node wraps its own routing state: one (src, dst) tuple per
	// overlay link, published under src so gets by source stay cheap.
	iid := int64(0)
	edges := 0
	for _, node := range sn.Nodes {
		src := string(node.Addr())
		for _, nb := range node.Router().Neighbors() {
			iid++
			edges++
			t := &pier.Tuple{Rel: "links", Vals: []pier.Value{src, string(nb)}}
			sn.Load("links", src, iid, t, 0)
		}
	}
	fmt.Printf("published %d overlay links from %d nodes\n", edges, n)

	source := string(sn.Nodes[0].Addr())
	visited := map[string]bool{source: true}
	frontier := []string{source}

	for hop := 1; hop <= 4 && len(frontier) > 0; hop++ {
		// Publish the frontier as a temporary soft-state relation.
		fns := fmt.Sprintf("frontier%d", hop)
		for i, f := range frontier {
			sn.Load(fns, f, int64(i), &pier.Tuple{Rel: fns, Vals: []pier.Value{f}}, 10*time.Minute)
		}
		rows, _, err := sn.Collect(0, reachPlan(fns), 0, 2*time.Minute)
		if err != nil {
			panic(err)
		}
		var next []string
		for _, r := range rows {
			dst := r.Vals[0].(string)
			if !visited[dst] {
				visited[dst] = true
				next = append(next, dst)
			}
		}
		frontier = next
		fmt.Printf("hop %d: +%d newly reachable, %d/%d total\n", hop, len(next), len(visited), n)
	}

	if len(visited) == n {
		fmt.Println("the whole overlay is reachable — the CAN neighbor graph is connected")
	} else {
		fmt.Printf("reached %d of %d nodes within 4 hops\n", len(visited), n)
	}
}

// reachPlan is one round of the reachability join: frontier ⋈ links
// on addr = src, via Fetch Matches, since the links table is already
// hashed on the join attribute (§4.1).
func reachPlan(frontier string) *pier.Plan {
	plan, err := pier.ParseSQL(fmt.Sprintf(`
		SELECT links.dst FROM %[1]s, links WHERE %[1]s.addr = links.src
		USING STRATEGY 'fetch matches'`, frontier), pier.Catalog{
		frontier: {Name: frontier, Cols: []string{"addr"}, Key: "addr"},
		"links":  {Name: "links", Cols: []string{"src", "dst"}, Key: "src"},
	})
	if err != nil {
		panic(err)
	}
	return plan
}
