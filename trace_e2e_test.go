package pier

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
	"pier/internal/workload"
)

// TestExplainTraceJoin64 is the tentpole acceptance test: an EXPLAIN
// TRACE over a 64-node simulated join must yield a trace tree with
// spans from at least three distinct stages (multicast fan-out,
// executor start, result flush) recorded on at least two distinct
// nodes; the same trace must be retrievable over the admin plane's
// GET /api/queries/{id}/trace; and /metrics must export
// pier_query_duration_seconds as a self-consistent Prometheus
// histogram.
func TestExplainTraceJoin64(t *testing.T) {
	sn := NewSimNetwork(64, topology.NewFullMeshInfinite(), 171, DefaultOptions())
	tables := workload.Generate(workload.Config{STuples: 60, Seed: 19})
	loadWorkload(sn, tables)
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.5)
	want := tables.ReferenceJoin(c1, c2, c3)
	if len(want) == 0 {
		t.Fatal("workload produced an empty reference join")
	}

	src := fmt.Sprintf(`EXPLAIN TRACE
		SELECT R.pkey, S.pkey
		FROM R, S
		WHERE R.num1 = S.pkey AND R.num2 > %d AND S.num2 > %d
		  AND f(R.num3, S.num3) > %d`, c1, c2, c3)
	plan, err := ParseSQL(src, e2eCat)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Trace {
		t.Fatal("EXPLAIN TRACE plan is not marked traced")
	}

	var rows []*Tuple
	id, err := sn.Nodes[0].Query(plan, func(tp *core.Tuple, window int) { rows = append(rows, tp) })
	if err != nil {
		t.Fatal(err)
	}
	if !sn.RunUntil(10*time.Minute, func() bool { return len(rows) >= len(want) }) {
		t.Fatalf("join returned %d/%d rows", len(rows), len(want))
	}

	// While the query is live, Trace serves a partial assembly.
	live, ok := sn.Nodes[0].Trace(id)
	if !ok {
		t.Fatal("no live trace for a traced query")
	}
	if live.Finished != 0 {
		t.Fatal("live trace claims to be finished")
	}

	// Cancel closes the collector and retains the completed trace.
	if !sn.Nodes[0].Cancel(id) {
		t.Fatal("cancel reported query not found")
	}
	tr, ok := sn.Nodes[0].Trace(id)
	if !ok {
		t.Fatal("no retained trace after cancel")
	}
	if tr.Finished == 0 {
		t.Fatal("retained trace is not finished")
	}
	if tr.QueryID != id || string(tr.Root) != string(sn.Nodes[0].Addr()) {
		t.Fatalf("trace identity: query %x root %s", tr.QueryID, tr.Root)
	}

	stages := map[string]bool{}
	nodes := map[string]bool{}
	for _, s := range tr.Spans {
		stages[s.Stage.String()] = true
		nodes[string(s.Node)] = true
	}
	for _, st := range []string{"multicast", "executor", "result_flush"} {
		if !stages[st] {
			t.Errorf("trace has no %s span; stages seen: %v", st, stages)
		}
	}
	if len(stages) < 3 {
		t.Fatalf("trace covers %d stages, want >= 3: %v", len(stages), stages)
	}
	if len(nodes) < 2 {
		t.Fatalf("trace covers %d nodes, want >= 2: %v", len(nodes), nodes)
	}

	rendered := tr.RenderString()
	for _, wantSub := range []string{"multicast", "result_flush", "initiator"} {
		if !strings.Contains(rendered, wantSub) {
			t.Errorf("rendered trace missing %q:\n%s", wantSub, rendered)
		}
	}

	// The same trace over the admin plane. The simulation is idle, so
	// serving HTTP over the simulated node is a safe single-threaded
	// inspection.
	srv := httptest.NewServer(AdminHandler(sn.Nodes[0]))
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("%s/api/queries/%d/trace", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var rest struct {
		ID       string `json:"id"`
		Root     string `json:"root"`
		Finished int64  `json:"finished_unix_nano"`
		Spans    []struct {
			Stage string `json:"stage"`
			Node  string `json:"node"`
		} `json:"spans"`
		Rendered string `json:"rendered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rest); err != nil {
		t.Fatal(err)
	}
	if rest.ID != fmt.Sprintf("%d", id) || len(rest.Spans) != len(tr.Spans) {
		t.Fatalf("REST trace mismatch: id %s, %d spans (want %d)", rest.ID, len(rest.Spans), len(tr.Spans))
	}
	if rest.Rendered == "" {
		t.Fatal("REST trace lost the rendered text")
	}

	// /metrics must export the query-duration histogram and it must be
	// internally consistent.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	checkHistogramFamily(t, mresp, "pier_query_duration_seconds")
}

// TestTracedScanSpansReachTheCollector: every node runs a traced scan,
// and most of them match none of its 20 rows. Each executor ends with
// its scan, and its spans reach the open collector in its last frame,
// whether or not a row frame carried them.
func TestTracedScanSpansReachTheCollector(t *testing.T) {
	const n, rows = 256, 20
	sn := NewSimNetwork(n, topology.NewFullMeshInfinite(), 53, DefaultOptions())
	for i := 0; i < rows; i++ {
		sn.Load("S", fmt.Sprint(i), int64(i), &Tuple{Rel: "S", Vals: []Value{int64(i), int64(i), int64(i)}}, 0)
	}
	plan, err := ParseSQL("EXPLAIN TRACE SELECT pkey, num2 FROM S", e2eCat)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	id, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	sn.RunFor(5 * time.Second)
	if got != rows {
		t.Fatalf("delivered %d/%d rows", got, rows)
	}
	tr, ok := sn.Nodes[0].Trace(id)
	if !ok {
		t.Fatal("no live trace for a traced query")
	}
	nodes := map[string]bool{}
	for _, s := range tr.Spans {
		nodes[string(s.Node)] = true
	}
	delete(nodes, "") // the collector's own spans
	left := 0
	for _, nd := range sn.Nodes {
		left += nd.engine.ActiveExecs()
	}
	if len(nodes) != n || left != 0 {
		t.Fatalf("spans from %d of %d nodes reached the collector, and %d executors are left", len(nodes), n, left)
	}
}

// probeFlood runs a traced fetch-matches join to completion on one
// node and returns it with the query's id. The join records one
// dht_get span per probe; every probe is local, so all of them finish
// before the first result frame can drain the executor's span buffer,
// and there are more of them than the engine's 256-span buffer holds.
// Overflow may only drop spans, never disturb results.
func probeFlood(t *testing.T) (*SimNetwork, uint64) {
	t.Helper()
	sn := NewSimNetwork(1, topology.NewFullMeshInfinite(), 99, DefaultOptions())
	tables := workload.Generate(workload.Config{STuples: 100, Seed: 23})
	loadWorkload(sn, tables)
	c1, c2, c3 := workload.Constants(0.5, 0.5, 0.1)
	want := tables.ReferenceJoin(c1, c2, c3)
	probes := 0
	for _, r := range tables.R {
		if r.Vals[workload.RNum2].(int64) > c1 {
			probes++
		}
	}
	if probes <= 256 || len(want) == 0 || len(want) >= 32 {
		t.Fatalf("%d probes for %d rows: want more than the 256-span trace buffer, "+
			"and fewer rows than one 32-tuple result frame", probes, len(want))
	}

	plan, err := ParseSQL(fmt.Sprintf(`EXPLAIN TRACE
		SELECT R.pkey, S.pkey
		FROM R, S
		WHERE R.num1 = S.pkey AND R.num2 > %d AND S.num2 > %d
		  AND f(R.num3, S.num3) > %d
		USING STRATEGY 'fetch matches'`, c1, c2, c3), e2eCat)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	id, err := sn.Nodes[0].Query(plan, func(*core.Tuple, int) { rows++ })
	if err != nil {
		t.Fatal(err)
	}
	if !sn.RunUntil(10*time.Minute, func() bool { return rows >= len(want) }) {
		t.Fatalf("flooded traced join returned %d/%d rows", rows, len(want))
	}
	sn.Nodes[0].Cancel(id)
	if rows != len(want) {
		t.Fatalf("tracing overflow changed recall: %d != %d", rows, len(want))
	}
	return sn, id
}

// TestSpanBuffersBoundedUnderFlood pins the tracing memory bound: an
// executor's spans beyond its buffer are dropped and counted in the
// assembled trace, never kept.
func TestSpanBuffersBoundedUnderFlood(t *testing.T) {
	sn, id := probeFlood(t)
	tr, ok := sn.Nodes[0].Trace(id)
	if !ok {
		t.Fatal("no retained trace")
	}
	if tr.Drops == 0 {
		t.Fatalf("probe flood dropped no spans (%d kept)", len(tr.Spans))
	}
	if len(tr.Spans) > 4096 {
		t.Fatalf("trace kept %d spans; collector bound breached", len(tr.Spans))
	}
}

// checkHistogramFamily asserts the named family appears as a valid
// Prometheus histogram in the scrape: cumulative non-decreasing
// buckets, +Inf bucket equal to _count, and a count of at least 1.
func checkHistogramFamily(t *testing.T, resp *http.Response, family string) {
	t.Helper()
	var body strings.Builder
	if _, err := fmt.Fprint(&body, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	scrape := body.String()
	if !strings.Contains(scrape, "# TYPE "+family+" histogram") {
		t.Fatalf("scrape does not TYPE %s as histogram", family)
	}
	var last, inf, count float64
	var sawInf, sawCount bool
	for _, line := range strings.Split(scrape, "\n") {
		switch {
		case strings.HasPrefix(line, family+"_bucket{"):
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket counts regressed at %q (%g after %g)", line, v, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				inf, sawInf = v, true
			}
		case strings.HasPrefix(line, family+"_count "):
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &count); err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			sawCount = true
		}
	}
	if !sawInf || !sawCount {
		t.Fatalf("%s histogram incomplete: +Inf=%v count=%v", family, sawInf, sawCount)
	}
	if inf != count {
		t.Fatalf("%s: +Inf bucket %g != count %g", family, inf, count)
	}
	if count < 1 {
		t.Fatalf("%s: count %g, want >= 1 after a completed query", family, count)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
