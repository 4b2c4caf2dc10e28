package pier

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/topology"
)

// pumpedSession serves the admin plane over a simulated node: a call
// that waits on the network (QuerySQL) runs the simulator itself, so
// the HTTP handler goroutine is the only one touching the simulation
// while a request is in flight.
type pumpedSession struct {
	*Node
	sn *SimNetwork
}

func (p pumpedSession) QuerySQL(src string, tables []string, fn ResultFunc, done func(uint64, error)) {
	p.Node.QuerySQL(src, tables, fn, done)
	p.sn.RunFor(30 * time.Second)
}

// jsonShape flattens a decoded JSON document into path -> JSON type
// (object, array, string, number, bool, null). Array elements share
// the path suffix "[]", so a path's type is the union over elements.
func jsonShape(v any, path string, out map[string]string) {
	kind := ""
	switch x := v.(type) {
	case map[string]any:
		kind = "object"
		for k, e := range x {
			jsonShape(e, path+"."+k, out)
		}
	case []any:
		kind = "array"
		for _, e := range x {
			jsonShape(e, path+"[]", out)
		}
	case string:
		kind = "string"
	case float64:
		kind = "number"
	case bool:
		kind = "bool"
	case nil:
		kind = "null"
	}
	if prev, ok := out[path]; ok && prev != kind {
		kind = prev + "|" + kind
	}
	out[path] = kind
}

// adminContract is the admin plane's JSON contract as served over a
// simulated node with an index and a live traced query: one line per
// key path, "<request> <path> <type>". A change may add keys; every
// key here must keep its path and its JSON type.
const adminContract = `
GET /api/indexes . object
GET /api/indexes .indexes array
GET /api/indexes .indexes[] object
GET /api/indexes .indexes[].col string
GET /api/indexes .indexes[].name string
GET /api/indexes .indexes[].table string
GET /api/indexes .scans number
GET /api/indexes .visits number
GET /api/indexes .visits_ahead number
GET /api/indexes .visits_wasted number
GET /api/queries . object
GET /api/queries .queries array
GET /api/queries .queries[] object
GET /api/queries .queries[].continuous bool
GET /api/queries .queries[].executor bool
GET /api/queries .queries[].id string
GET /api/queries .queries[].initiator bool
GET /api/queries .queries[].started string
GET /api/queries .queries[].tables array
GET /api/queries .queries[].tables[] string
GET /api/queries/{id}/trace . object
GET /api/queries/{id}/trace .dropped_spans number
GET /api/queries/{id}/trace .finished_unix_nano number
GET /api/queries/{id}/trace .id string
GET /api/queries/{id}/trace .rendered string
GET /api/queries/{id}/trace .root string
GET /api/queries/{id}/trace .spans array
GET /api/queries/{id}/trace .spans[] object
GET /api/queries/{id}/trace .spans[].duration_ns number
GET /api/queries/{id}/trace .spans[].node string
GET /api/queries/{id}/trace .spans[].note string
GET /api/queries/{id}/trace .spans[].seq number
GET /api/queries/{id}/trace .spans[].stage string
GET /api/queries/{id}/trace .spans[].start_unix_nano number
GET /api/queries/{id}/trace .started_unix_nano number
GET /api/softstate . object
GET /api/softstate .namespaces array
GET /api/softstate .namespaces[] object
GET /api/softstate .namespaces[].bytes number
GET /api/softstate .namespaces[].items number
GET /api/softstate .namespaces[].namespace string
GET /api/softstate .storage object
GET /api/softstate .storage.bytes_evicted number
GET /api/softstate .storage.bytes_spilled number
GET /api/softstate .storage.items_evicted number
GET /api/softstate .storage.items_spilled number
GET /api/softstate .storage.puts_delayed number
GET /api/softstate .storage.puts_dropped number
GET /api/softstate .storage.puts_throttled number
GET /api/softstate .storage.spilled_live_items number
GET /api/softstate .stored_bytes number
GET /api/softstate .stored_items number
GET /api/status . object
GET /api/status .active_execs number
GET /api/status .addr string
GET /api/status .cached_stats_tables number
GET /api/status .histograms array
GET /api/status .histograms[] object
GET /api/status .histograms[].bounds array
GET /api/status .histograms[].bounds[] number
GET /api/status .histograms[].count number
GET /api/status .histograms[].counts array
GET /api/status .histograms[].counts[] number
GET /api/status .histograms[].help string
GET /api/status .histograms[].name string
GET /api/status .histograms[].stage string
GET /api/status .histograms[].sum number
GET /api/status .hop_latency_ms number
GET /api/status .index_scans number
GET /api/status .index_visits number
GET /api/status .index_visits_ahead number
GET /api/status .index_visits_wasted number
GET /api/status .indexes array
GET /api/status .indexes[] object
GET /api/status .indexes[].col string
GET /api/status .indexes[].name string
GET /api/status .indexes[].table string
GET /api/status .lookup_hops number
GET /api/status .neighbors array
GET /api/status .neighbors[] string
GET /api/status .open_collectors number
GET /api/status .overlay_nodes number
GET /api/status .query_channel object
GET /api/status .query_channel.bloom_complete number
GET /api/status .query_channel.bloom_fallbacks number
GET /api/status .query_channel.bloom_late_filters number
GET /api/status .query_channel.bloom_overcovered number
GET /api/status .query_channel.credit_grants number
GET /api/status .query_channel.credit_stalls number
GET /api/status .query_channel.result_batches number
GET /api/status .query_channel.result_tuples number
GET /api/status .ready bool
GET /api/status .soft_state array
GET /api/status .soft_state[] object
GET /api/status .soft_state[].bytes number
GET /api/status .soft_state[].items number
GET /api/status .soft_state[].namespace string
GET /api/status .started_at string
GET /api/status .storage object
GET /api/status .storage.bytes_evicted number
GET /api/status .storage.bytes_spilled number
GET /api/status .storage.items_evicted number
GET /api/status .storage.items_spilled number
GET /api/status .storage.puts_delayed number
GET /api/status .storage.puts_dropped number
GET /api/status .storage.puts_throttled number
GET /api/status .storage.spilled_live_items number
GET /api/status .stored_bytes number
GET /api/status .stored_items number
GET /api/status .uptime_seconds number
POST /api/queries(EXPLAIN) . object
POST /api/queries(EXPLAIN) .rows number
POST /api/queries(EXPLAIN) .trace object
POST /api/queries(EXPLAIN) .trace.dropped_spans number
POST /api/queries(EXPLAIN) .trace.finished_unix_nano number
POST /api/queries(EXPLAIN) .trace.id string
POST /api/queries(EXPLAIN) .trace.rendered string
POST /api/queries(EXPLAIN) .trace.root string
POST /api/queries(EXPLAIN) .trace.spans array
POST /api/queries(EXPLAIN) .trace.spans[] object
POST /api/queries(EXPLAIN) .trace.spans[].duration_ns number
POST /api/queries(EXPLAIN) .trace.spans[].node string
POST /api/queries(EXPLAIN) .trace.spans[].note string
POST /api/queries(EXPLAIN) .trace.spans[].seq number
POST /api/queries(EXPLAIN) .trace.spans[].stage string
POST /api/queries(EXPLAIN) .trace.spans[].start_unix_nano number
POST /api/queries(EXPLAIN) .trace.started_unix_nano number
`

// TestAdminContractOverSimNode serves every GET view, a live query's
// trace and an EXPLAIN TRACE answer from a real *Node and checks them
// against adminContract: the REST keys an operator scripts against
// keep their names and JSON types.
func TestAdminContractOverSimNode(t *testing.T) {
	sn := NewSimNetwork(8, topology.NewFullMeshInfinite(), 5, DefaultOptions())
	for i, name := range []string{"salmon", "tuna", "cod"} {
		sn.Load("fish", name, int64(i), &Tuple{Rel: "fish", Vals: []Value{name, int64(7 + 60*i)}}, 0)
	}
	// The served node stores a row, so its soft-state list is not empty.
	node := sn.Nodes[sn.Owner("fish", "salmon")]
	fish := SQLTable{Name: "fish", Cols: []string{"name", "size"}, Key: "name"}
	cat := Catalog{"fish": fish}
	node.RegisterTable(fish, 0)
	sn.RunFor(2 * time.Second)
	if err := node.Exec("CREATE INDEX fish_size ON fish (size)", cat); err != nil {
		t.Fatal(err)
	}
	sn.RunFor(2 * time.Second)
	plan, err := ParseSQL("EXPLAIN TRACE SELECT name, size FROM fish", cat)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	id, err := node.Query(plan, func(*core.Tuple, int) { rows++ })
	if err != nil {
		t.Fatal(err)
	}
	if !sn.RunUntil(time.Minute, func() bool { return rows >= 3 }) {
		t.Fatalf("traced query returned %d/3 rows", rows)
	}

	srv := httptest.NewServer(AdminHandler(pumpedSession{node, sn}))
	defer srv.Close()
	got := map[string]string{}
	record := func(req string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", req, resp.StatusCode)
		}
		var doc any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s: %v", req, err)
		}
		shape := map[string]string{}
		jsonShape(doc, "", shape)
		for p, kind := range shape {
			got[req+" ."+strings.TrimPrefix(p, ".")] = kind
		}
	}
	for _, path := range []string{"/api/status", "/api/softstate", "/api/indexes", "/api/queries",
		fmt.Sprintf("/api/queries/%d/trace", id)} {
		resp, err := http.Get(srv.URL + path)
		record("GET "+strings.Replace(path, strconv.FormatUint(id, 10), "{id}", 1), resp, err)
	}
	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"EXPLAIN TRACE SELECT name, size FROM fish","wait_ms":50}`))
	record("POST /api/queries(EXPLAIN)", resp, err)

	sc := bufio.NewScanner(strings.NewReader(adminContract))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		key, want := strings.Join(f[:len(f)-1], " "), f[len(f)-1]
		if kind, ok := got[key]; !ok {
			t.Errorf("%s: key gone (was %s)", key, want)
		} else if kind != want {
			t.Errorf("%s: JSON type %s, was %s", key, kind, want)
		}
		delete(got, key)
	}
	var added []string
	for key, kind := range got {
		added = append(added, key+" "+kind)
	}
	sort.Strings(added)
	t.Logf("keys beyond the contract:\n%s", strings.Join(added, "\n"))
}

// TestMetricsShowTraceSpanDrops: spans lost to full trace buffers are
// visible on a running node's /metrics, as the count its engine keeps.
func TestMetricsShowTraceSpanDrops(t *testing.T) {
	sn, _ := probeFlood(t)
	node := sn.Nodes[0]

	srv := httptest.NewServer(AdminHandler(node))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const series = "pier_query_trace_span_drops_total "
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series); ok {
			drops := node.QueryStats().TraceSpanDrops
			if v != strconv.FormatUint(drops, 10) || drops == 0 {
				t.Fatalf("/metrics serves %s%s, engine counted %d drops under a probe flood", series, v, drops)
			}
			return
		}
	}
	t.Fatalf("/metrics has no %s sample", strings.TrimSpace(series))
}
