package pier

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/topology"
	"pier/internal/wire"
	"pier/internal/workload"
)

// TestSimulatorChargesWhatTheCodecWrites is ROADMAP's "the simulator's
// byte model agrees with the real codec" as a test: over a join per
// strategy, a GROUP BY and an index range query — with the maintenance,
// statistics and index tickers running — every message the simulator
// delivers is re-encoded with the real codec, and the per-send header
// plus the encoded length plus the declared pad, summed, must equal the
// bytes the simulator charged, exactly.
func TestSimulatorChargesWhatTheCodecWrites(t *testing.T) {
	schema := SQLTable{
		Name: "T", Cols: []string{"pkey", "num"}, Key: "pkey",
		Indexes: []SQLIndex{{Name: "t_num", Col: "num"}},
	}
	opts := DefaultOptions()
	opts.Index.Interval = 10 * time.Second
	sn := NewSimNetwork(16, topology.NewFullMesh(), 5, opts)

	var delivered, encoded int64
	for i, nd := range sn.Nodes {
		nd := nd
		sn.Net.Node(i).SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			// Encode before the handler runs: it may recycle or mutate m.
			b, err := wire.Marshal(m)
			if err != nil {
				t.Fatalf("delivered %T does not encode: %v", m, err)
			}
			delivered++
			encoded += int64(env.HeaderSize + len(b) + wire.PadSize(m))
			nd.handle(from, m)
		}))
	}

	loadWorkload(sn, workload.Generate(workload.Config{STuples: 30, Seed: 7, PadBytes: 1024}))
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	run := func(name string, plan *Plan) {
		t.Helper()
		plan.TTL = 2 * time.Minute
		rows := 0
		id, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) { rows++ })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sn.RunFor(90 * time.Second)
		sn.Nodes[0].Cancel(id)
		if rows == 0 {
			t.Fatalf("%s returned no rows: the test exercises nothing", name)
		}
	}
	for _, st := range []Strategy{SymmetricHash, FetchMatches, SymmetricSemiJoin, BloomJoin} {
		plan := workload.JoinPlan(st, c1, c2, c3)
		plan.BloomWait = 3 * time.Second
		run(st.String(), plan)
	}
	run("group by", &Plan{
		Tables:  []TableRef{{NS: "S"}},
		GroupBy: []int{workload.SNum2},
		Aggs:    []Aggregate{{Kind: Count, Col: -1}},
		AggWait: 5 * time.Second,
	})

	sn.Nodes[0].RegisterTable(schema, time.Hour)
	if err := sn.Nodes[0].CreateIndex(schema, "t_num", "num", time.Hour); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	sn.RunFor(30 * time.Second)
	for i := 0; i < 60; i++ {
		sn.Nodes[0].Publish("T", fmt.Sprint(i), int64(i), &Tuple{Rel: "T", Vals: []Value{int64(i), int64(i * 7919 % 1000)}}, time.Hour)
	}
	sn.RunFor(2 * time.Minute) // place entries, let the trie split
	plan, err := ParseSQL("SELECT pkey FROM T WHERE num < 500", Catalog{"T": schema})
	if err != nil || plan.Tables[0].IndexScan == nil {
		t.Fatalf("no index plan: %v", err)
	}
	plan.AutoAccess = false // always take the index path
	run("index range", plan)

	tot := sn.Net.Totals()
	t.Logf("%d messages, %d bytes charged, %d re-encoded", tot.Messages, tot.Bytes, encoded)
	if delivered != tot.Messages || delivered < 5_000 {
		t.Fatalf("observed %d deliveries, simulator counted %d (want the same, and a real workload)", delivered, tot.Messages)
	}
	if encoded != tot.Bytes {
		t.Fatalf("simulator charged %d bytes for %d messages; header + codec + pad comes to %d (off by %d)",
			tot.Bytes, tot.Messages, encoded, tot.Bytes-encoded)
	}
}
