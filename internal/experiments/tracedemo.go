package experiments

// The trace demo: one traced distributed join, end to end, printing
// the assembled span tree — the same artifact EXPLAIN TRACE returns
// over SQL and GET /api/queries/{id}/trace returns over REST. It
// exists so `pier-bench -trace` gives a zero-setup look at what query
// tracing records: multicast fan-out, per-node executor and scan
// spans, rehash/Bloom phases, and result-flush latencies, all on the
// deployment's virtual clock.

import (
	"fmt"
	"time"

	"pier"
	"pier/internal/topology"
	"pier/internal/workload"
)

// TraceDemo runs the §5.1 workload join EXPLAIN TRACE'd over a
// simulated deployment (64 nodes; 256 with full) and returns a
// human-readable report: recall plus the rendered span tree.
func TraceDemo(seed int64, full bool) (string, error) {
	nodes, sTuples := 64, 60
	if full {
		nodes, sTuples = 256, 200
	}
	tables := workload.Generate(workload.Config{STuples: sTuples, Seed: seed + 1})
	sn := deploy(nodes, topology.NewFullMeshInfinite(), seed, pier.DefaultOptions(), workloadTables(tables)...)
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	want := len(tables.ReferenceJoin(c1, c2, c3))

	src := fmt.Sprintf(`EXPLAIN TRACE
		SELECT R.pkey, S.pkey
		FROM R, S
		WHERE R.num1 = S.pkey AND R.num2 > %d AND S.num2 > %d
		  AND f(R.num3, S.num3) > %d`, c1, c2, c3)
	plan, err := pier.ParseSQL(src, workload.Catalog)
	if err != nil {
		return "", err
	}

	m := measure(sn, plan, want, 10*time.Minute)
	// Let trailing result frames — and the span buffers they piggyback —
	// land before the collector closes.
	sn.RunFor(2 * time.Second)
	sn.Nodes[0].Cancel(m.id)
	tr, ok := sn.Nodes[0].Trace(m.id)
	if !ok {
		return "", fmt.Errorf("traced query %d left no trace", m.id)
	}
	return fmt.Sprintf("join returned %d/%d rows across %d nodes\n\n%s",
		len(m.arrivals), want, nodes, tr.RenderString()), nil
}
