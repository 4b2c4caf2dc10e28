package experiments

import (
	"testing"
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/sql"
	"pier/internal/topology"
	"pier/internal/workload"
)

// bloomAnswer runs the §5.1 join as a Bloom join from node 0 of an
// n-node deployment, with clauses appended to its SQL, and reports the
// rows it answered and the reference answer, each as a multiset of
// (R.pkey, S.pkey), plus the nodes' summed Bloom collector counters.
func bloomAnswer(t *testing.T, n, sTuples int, seed int64, clauses string) (got, want map[[2]int64]int, qs core.QueryStats) {
	t.Helper()
	tables := workload.Generate(workload.Config{STuples: sTuples, Seed: seed + 1, PadBytes: 64})
	sn := deploy(n, topology.NewFullMesh(), seed, pier.DefaultOptions(), workloadTables(tables)...)
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	want = map[[2]int64]int{}
	for _, row := range tables.ReferenceJoin(c1, c2, c3) {
		want[row]++
	}
	plan := sql.MustPlan(workload.JoinSQL(core.BloomJoin, c1, c2, c3)+clauses, workload.Catalog)
	got = map[[2]int64]int{}
	_, err := sn.Nodes[0].Query(plan, func(tu *core.Tuple, _ int) {
		got[[2]int64{tu.Vals[0].(int64), tu.Vals[1].(int64)}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	sn.RunFor(time.Minute)
	for _, nd := range sn.Nodes {
		s := nd.QueryStats()
		qs.BloomComplete += s.BloomComplete
		qs.BloomLateFilters += s.BloomLateFilters
		qs.BloomOvercovered += s.BloomOvercovered
	}
	return got, want, qs
}

// sameRows fails the test unless got and want are the same multiset.
func sameRows(t *testing.T, got, want map[[2]int64]int) {
	t.Helper()
	missing, extra := 0, 0
	for row, n := range want {
		if got[row] < n {
			missing += n - got[row]
		}
	}
	for row, n := range got {
		if n > want[row] {
			extra += n - want[row]
		}
	}
	if missing > 0 || extra > 0 {
		t.Fatalf("answer misses %d of the reference's %d rows and has %d it does not", missing, len(want), extra)
	}
}

// TestBloomJoinAtDefaultsAnswersInFull: at plan defaults (5 s wait,
// 2^16-bit filters) and n=1024 the collectors used to multicast before
// the last per-node filters had landed, and the join lost rows (3 670 of
// 3 722 here). Each collector now emits once every owner of the key
// space has reported.
func TestBloomJoinAtDefaultsAnswersInFull(t *testing.T) {
	got, want, qs := bloomAnswer(t, 1024, 3300, 3, "")
	sameRows(t, got, want)
	if qs.BloomComplete != 2 || qs.BloomLateFilters != 0 || qs.BloomOvercovered != 0 {
		t.Fatalf("collector counters %+v, want two emissions on coverage and nothing late or overcovered", qs)
	}
}

// TestBloomLateFiltersJoinOnce: with a 1 s wait the collectors emit
// what they have at the wait and again when coverage completes. The
// second filters' rows are rehashed once, so the answer is the
// reference multiset, with no row twice.
func TestBloomLateFiltersJoinOnce(t *testing.T) {
	got, want, qs := bloomAnswer(t, 1024, 3300, 3, " WAIT '1s'")
	sameRows(t, got, want)
	if qs.BloomLateFilters == 0 || qs.BloomComplete != 2 {
		t.Fatalf("collector counters %+v, want late filters merged by emissions on coverage", qs)
	}
}
