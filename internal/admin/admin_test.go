package admin

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/trace"
)

// fakeBackend is an in-memory Backend for handler tests.
type fakeBackend struct {
	mu        sync.Mutex
	snap      Snapshot
	queries   []core.QueryInfo
	cancelled []uint64
	liveIDs   map[uint64]bool
	rows      []Row
	lateRows  []Row // emitted 50 ms after RunSQL returns
	sqlErr    error
	left      bool
	published []string
	trace     *trace.Trace
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		snap: Snapshot{
			Addr:          "127.0.0.1:7001",
			StartedAt:     time.Unix(1700000000, 0),
			UptimeSeconds: 12.5,
			Ready:         true,
			Neighbors:     []string{"127.0.0.1:7002", "127.0.0.1:7003"},
			OverlayNodes:  3,
			HopLatencyMS:  1.25,
			LookupHops:    1.5,
			SoftState:     []NamespaceCount{{Namespace: "R", Items: 4, Bytes: 2048}, {Namespace: `we"ird\ns`, Items: 1, Bytes: 512}},
			StoredItems:   5,
			StoredBytes:   2560,
			Storage: provider.StorageStats{
				Stats: storage.Stats{
					ItemsEvicted: 6, BytesEvicted: 3072,
					ItemsSpilled: 2, BytesSpilled: 1024, SpilledLive: 1,
					PutsDropped: 3,
				},
				PutsThrottled: 9, PutsDelayed: 8,
			},
			Indexes:           []index.Def{{Name: "r_num1", Table: "R", Col: "num1", ColIdx: 1}},
			IndexScans:        7,
			IndexVisits:       21,
			IndexVisitsAhead:  12,
			IndexVisitsWasted: 2,
			CachedStatsTables: 2,
			ActiveExecs:       1,
			OpenCollectors:    1,
			Query: core.QueryStats{
				ResultBatches: 10, ResultTuples: 100, CreditGrants: 5, CreditStalls: 1, BloomFallbacks: 0,
			},
			Transport: &env.LinkStats{FramesSent: 40, BatchesSent: 30, BytesSent: 9000, FramesRecv: 38, BytesRecv: 8800, Drops: 2},
		},
		liveIDs: map[uint64]bool{42: true, math.MaxUint64: true},
		queries: []core.QueryInfo{
			{ID: math.MaxUint64, Initiator: true, Tables: []string{"R", "S"}, Started: time.Unix(1700000100, 0)},
		},
	}
}

func (f *fakeBackend) Snapshot() Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

func (f *fakeBackend) Queries() []core.QueryInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]core.QueryInfo(nil), f.queries...)
}

func (f *fakeBackend) RunSQL(src string, each func(Row)) (uint64, SQLKind, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sqlErr != nil {
		return 0, SQLDDL, f.sqlErr
	}
	up := strings.ToUpper(strings.TrimSpace(src))
	if strings.HasPrefix(up, "CREATE") {
		return 0, SQLDDL, nil
	}
	for _, r := range f.rows {
		each(r)
	}
	if late := f.lateRows; len(late) > 0 {
		time.AfterFunc(50*time.Millisecond, func() {
			for _, r := range late {
				each(r)
			}
		})
	}
	if strings.HasPrefix(up, "EXPLAIN") {
		return 43, SQLExplain, nil
	}
	return 42, SQLQuery, nil
}

func (f *fakeBackend) Trace(id uint64) (*trace.Trace, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.trace == nil || f.trace.QueryID != id {
		return nil, false
	}
	return f.trace, true
}

func (f *fakeBackend) Cancel(id uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancelled = append(f.cancelled, id)
	return f.liveIDs[id]
}

func (f *fakeBackend) RegisterTable(name, key string, cols []string) error {
	for _, c := range cols {
		if c == key {
			return nil
		}
	}
	return fmt.Errorf("key column %q is not one of the table's columns", key)
}

func (f *fakeBackend) Publish(table string, values []any, lifetime time.Duration) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if table == "missing" {
		return "", fmt.Errorf("table %q not in the DHT catalog", table)
	}
	if table == "offline" {
		return "", fmt.Errorf("catalog lookup timed out: %w", ErrUnavailable)
	}
	f.published = append(f.published, table)
	return "rid-0", nil
}

func (f *fakeBackend) Leave() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.left = true
}

func newTestServer(t *testing.T, f *fakeBackend) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(f))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestStatusServesSnapshot(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)

	var got Snapshot
	resp := getJSON(t, srv.URL+"/api/status", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got.Addr != f.snap.Addr || !got.Ready || got.StoredItems != 5 {
		t.Fatalf("snapshot mismatch: %+v", got)
	}
	if got.Transport == nil || got.Transport.FramesSent != 40 {
		t.Fatalf("transport counters lost in serialization: %+v", got.Transport)
	}
	if got.Query.ResultTuples != 100 {
		t.Fatalf("query-channel counters lost: %+v", got.Query)
	}
}

func TestRoutingSoftStateIndexViews(t *testing.T) {
	srv := newTestServer(t, newFakeBackend())

	var routing map[string]any
	getJSON(t, srv.URL+"/api/routing", &routing)
	if routing["addr"] != "127.0.0.1:7001" || routing["overlay_nodes"].(float64) != 3 {
		t.Fatalf("routing view: %v", routing)
	}
	if n := len(routing["neighbors"].([]any)); n != 2 {
		t.Fatalf("neighbors = %d", n)
	}

	var soft map[string]any
	getJSON(t, srv.URL+"/api/softstate", &soft)
	if soft["stored_items"].(float64) != 5 || soft["stored_bytes"].(float64) != 2560 {
		t.Fatalf("softstate view: %v", soft)
	}
	storage := soft["storage"].(map[string]any)
	if storage["items_evicted"].(float64) != 6 || storage["puts_throttled"].(float64) != 9 {
		t.Fatalf("softstate storage counters: %v", storage)
	}
	ns := soft["namespaces"].([]any)[0].(map[string]any)
	if ns["bytes"].(float64) != 2048 {
		t.Fatalf("namespace bytes: %v", ns)
	}

	var idx map[string]any
	getJSON(t, srv.URL+"/api/indexes", &idx)
	if idx["scans"].(float64) != 7 || idx["visits"].(float64) != 21 ||
		idx["visits_ahead"].(float64) != 12 || idx["visits_wasted"].(float64) != 2 {
		t.Fatalf("indexes view: %v", idx)
	}
}

// TestQueryIDsSurviveJSON: query ids are full uint64s; they must round-
// trip as decimal strings, not float64-mangled numbers.
func TestQueryIDsSurviveJSON(t *testing.T) {
	srv := newTestServer(t, newFakeBackend())
	resp, err := http.Get(srv.URL + "/api/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	want := `"id":"18446744073709551615"`
	if !strings.Contains(string(body), want) {
		t.Fatalf("query listing must carry string ids, got %s", body)
	}
	var view struct {
		Queries []core.QueryInfo `json:"queries"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Queries) != 1 || view.Queries[0].ID != math.MaxUint64 {
		t.Fatalf("round-trip lost the id: %+v", view.Queries)
	}
}

func TestCancelQuery(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)
	del := func(path string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del("/api/queries/42"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel live query = %d", resp.StatusCode)
	}
	if resp := del("/api/queries/41"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown query = %d, want 404", resp.StatusCode)
	}
	// Hostile ids must be 4xx, never 5xx.
	for _, bad := range []string{"/api/queries/zebra", "/api/queries/-1", "/api/queries/1e9", "/api/queries/18446744073709551616"} {
		if resp := del(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("DELETE %s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestRunQueryStreamsNDJSON(t *testing.T) {
	f := newFakeBackend()
	f.rows = []Row{
		{Window: 0, Values: []any{"a", float64(1)}},
		{Window: 0, Values: []any{"b", float64(2)}},
	}
	srv := newTestServer(t, f)

	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"SELECT x FROM T","wait_ms":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 4 { // meta, 2 rows, trailer
		t.Fatalf("stream had %d lines: %v", len(lines), lines)
	}
	var meta streamMeta
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil || meta.ID != "42" {
		t.Fatalf("meta line: %q (%v)", lines[0], err)
	}
	var row Row
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil || row.Values[0] != "a" {
		t.Fatalf("row line: %q", lines[1])
	}
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[3]), &tr); err != nil || tr.Rows != 2 || tr.Dropped != 0 {
		t.Fatalf("trailer line: %q", lines[3])
	}
	// The stream handler must cancel the query when the stream ends.
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.cancelled) == 0 || f.cancelled[len(f.cancelled)-1] != 42 {
		t.Fatalf("stream end did not cancel the query: %v", f.cancelled)
	}
}

func TestRunQueryLimitStopsStream(t *testing.T) {
	f := newFakeBackend()
	for i := 0; i < 50; i++ {
		f.rows = append(f.rows, Row{Values: []any{float64(i)}})
	}
	srv := newTestServer(t, f)
	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"SELECT x FROM T","wait_ms":5000,"limit":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 { // meta, 3 rows, trailer
		t.Fatalf("limit=3 streamed %d lines", len(lines))
	}
}

// TestRunQueryCountsEveryOverflow: rows past the stream buffer are
// dropped one by one, so the trailer's rows + dropped is every row the
// query emitted, and EXPLAIN TRACE's row count includes them too.
func TestRunQueryCountsEveryOverflow(t *testing.T) {
	f := newFakeBackend()
	for i := 0; i < rowBuffer+50; i++ {
		f.rows = append(f.rows, Row{Values: []any{float64(i)}})
	}
	f.trace = sampleTrace()
	srv := newTestServer(t, f)
	post := func(body string) []byte {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	lines := strings.Split(strings.TrimSpace(string(post(`{"sql":"SELECT x FROM T","wait_ms":200}`))), "\n")
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("trailer line: %q", lines[len(lines)-1])
	}
	if streamed := len(lines) - 2; tr.Rows != streamed {
		t.Errorf("trailer rows = %d, stream carried %d", tr.Rows, streamed)
	}
	if tr.Rows+tr.Dropped != len(f.rows) || tr.Dropped < 50 {
		t.Errorf("trailer rows=%d dropped=%d, want a sum of %d with at least 50 dropped", tr.Rows, tr.Dropped, len(f.rows))
	}

	var explain struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(post(`{"sql":"EXPLAIN TRACE SELECT x FROM T","wait_ms":50}`), &explain); err != nil {
		t.Fatal(err)
	}
	if explain.Rows != len(f.rows) {
		t.Errorf("EXPLAIN TRACE rows = %d, want %d", explain.Rows, len(f.rows))
	}
}

// TestRunQueryHugeWaitStillStreams: a wait_ms whose Duration would
// overflow is clamped to the server cap, so rows arriving after the
// request still stream instead of the stream ending at once.
func TestRunQueryHugeWaitStillStreams(t *testing.T) {
	f := newFakeBackend()
	f.lateRows = []Row{{Values: []any{"a"}}, {Values: []any{"b"}}}
	srv := newTestServer(t, f)
	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"SELECT x FROM T","wait_ms":10000000000000,"limit":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var tr streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || tr.Rows != 2 {
		t.Fatalf("huge wait_ms streamed %q, want both late rows", body)
	}
}

func TestRunQueryDDL(t *testing.T) {
	srv := newTestServer(t, newFakeBackend())
	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"CREATE INDEX r1 ON R (num1)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["ddl"] != true || out["ok"] != true {
		t.Fatalf("DDL answer: %v", out)
	}
}

// TestHostileInputsNever5xx: malformed bodies and bad SQL are client
// errors; only an unreachable deployment may answer 5xx.
func TestHostileInputsNever5xx(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)
	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	cases := []struct{ path, body string }{
		{"/api/queries", `{not json`},
		{"/api/queries", `{"sql":""}`},
		{"/api/queries", `{"sql":"SELECT x FROM T"} trailing`},
		{"/api/queries", `{"sql":"SELECT x FROM T","limit":-4}`},
		{"/api/tables", `{"name":"","key":"k","cols":["k"]}`},
		{"/api/tables", `{"name":"T","key":"missing","cols":["a","b"]}`},
		{"/api/publish", `{"table":"","values":[1]}`},
		{"/api/publish", `{"table":"T","values":[]}`},
		{"/api/publish", `{"table":"T","values":[1],"lifetime_ms":-5}`},
		// 1e13 ms wraps a Duration negative: stored without expiry.
		{"/api/publish", `{"table":"T","values":[1],"lifetime_ms":10000000000000}`},
		{"/api/publish", `{"table":"missing","values":[1]}`},
	}
	for _, c := range cases {
		if resp := post(c.path, c.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}

	// Malformed SQL surfaces the parser error as a 400.
	f.mu.Lock()
	f.sqlErr = errors.New("parse error at SELEKT")
	f.mu.Unlock()
	if resp := post("/api/queries", `{"sql":"SELEKT"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad SQL = %d, want 400", resp.StatusCode)
	}

	// Unreachable deployment is the one 5xx: 503 via ErrUnavailable.
	f.mu.Lock()
	f.sqlErr = fmt.Errorf("catalog timed out: %w", ErrUnavailable)
	f.mu.Unlock()
	if resp := post("/api/queries", `{"sql":"SELECT x FROM T"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unavailable deployment = %d, want 503", resp.StatusCode)
	}
	if resp := post("/api/publish", `{"table":"offline","values":[1]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("unavailable publish = %d, want 503", resp.StatusCode)
	}
}

func TestPublishAndRegisterTable(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)
	resp, err := http.Post(srv.URL+"/api/tables", "application/json",
		strings.NewReader(`{"name":"fish","key":"name","cols":["name","size"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	var pub map[string]any
	resp2, err := http.Post(srv.URL+"/api/publish", "application/json",
		strings.NewReader(`{"table":"fish","values":["salmon",7]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	if pub["rid"] != "rid-0" {
		t.Fatalf("publish answer: %v", pub)
	}
}

func TestLeave(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)
	resp, err := http.Post(srv.URL+"/api/leave", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.left {
		t.Fatal("POST /api/leave did not reach the backend")
	}
}

func sampleTrace() *trace.Trace {
	return &trace.Trace{
		QueryID:  43,
		Root:     "127.0.0.1:7001",
		Started:  1000,
		Finished: 9000,
		Spans: []trace.Span{
			{Stage: trace.StageCollect, Node: "127.0.0.1:7001", Start: 1000, Dur: 8000},
			{Stage: trace.StageMulticast, Node: "127.0.0.1:7002", Start: 2000, Note: "query arrived: R"},
			{Stage: trace.StageResultFlush, Node: "127.0.0.1:7002", Start: 5000, Dur: 100, Seq: 1},
		},
	}
}

// restTrace is what a REST client reads of a served trace.
type restTrace struct {
	ID    string `json:"id"`
	Spans []struct {
		Stage string `json:"stage"`
		DurNS int64  `json:"duration_ns"`
	} `json:"spans"`
	Rendered string `json:"rendered"`
}

// TestTraceEndpoint: GET /api/queries/{id}/trace serves the assembled
// trace for a traced query and proper 4xx for everything else.
func TestTraceEndpoint(t *testing.T) {
	f := newFakeBackend()
	f.trace = sampleTrace()
	srv := newTestServer(t, f)

	var got restTrace
	resp := getJSON(t, srv.URL+"/api/queries/43/trace", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if got.ID != "43" || len(got.Spans) != 3 || got.Spans[1].Stage != "multicast" || got.Spans[0].DurNS != 8000 {
		t.Fatalf("trace mismatch: %+v", got)
	}
	if !strings.HasPrefix(got.Rendered, "trace query=2b ") {
		t.Fatalf("trace rendered as %q", got.Rendered)
	}
	if resp := getJSON(t, srv.URL+"/api/queries/41/trace", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/api/queries/zebra/trace", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", resp.StatusCode)
	}
}

// TestExplainTraceAnswersTrace: an EXPLAIN TRACE statement answers one
// JSON document carrying the trace (not an NDJSON row stream), and the
// handler cancels the query before fetching it so the retained trace
// is complete.
func TestExplainTraceAnswersTrace(t *testing.T) {
	f := newFakeBackend()
	f.rows = []Row{{Values: []any{"a"}}, {Values: []any{"b"}}}
	f.trace = sampleTrace()
	f.liveIDs[43] = true
	srv := newTestServer(t, f)

	resp, err := http.Post(srv.URL+"/api/queries", "application/json",
		strings.NewReader(`{"sql":"EXPLAIN TRACE SELECT x FROM T","wait_ms":50}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q, want plain JSON", ct)
	}
	var out struct {
		Rows  int       `json:"rows"`
		Trace restTrace `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 2 || out.Trace.ID != "43" || len(out.Trace.Spans) != 3 {
		t.Fatalf("explain answer: %+v", out)
	}
	if out.Trace.Rendered == "" {
		t.Fatal("explain answer lost the rendered text")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.cancelled) == 0 || f.cancelled[len(f.cancelled)-1] != 43 {
		t.Fatalf("explain did not cancel the traced query: %v", f.cancelled)
	}
}

// parseMetrics reads an exposition-format scrape into name→value
// (labeled series keep their label string in the name).
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsScrape(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	m := parseMetrics(t, body)

	// Every family the acceptance criteria name must be present:
	// transport, query channel (batches/credits), catalog, plus the
	// operational gauges.
	wantSeries := map[string]float64{
		"pier_up":                             1,
		"pier_ready":                          1,
		"pier_overlay_nodes":                  3,
		"pier_softstate_stored_items":         5,
		`pier_softstate_items{namespace="R"}`: 4,
		"pier_softstate_stored_bytes":         2560,
		`pier_softstate_bytes{namespace="R"}`: 2048,
		"pier_storage_evictions_total":        6,
		"pier_storage_evicted_bytes_total":    3072,
		"pier_storage_spilled_items_total":    2,
		"pier_storage_spilled_bytes_total":    1024,
		"pier_storage_spilled_live_items":     1,
		"pier_storage_puts_throttled_total":   9,
		"pier_storage_puts_delayed_total":     8,
		"pier_storage_puts_dropped_total":     3,
		"pier_catalog_cached_tables":          2,
		"pier_index_scans_total":              7,
		"pier_index_visits_total":             21,
		"pier_index_visits_ahead_total":       12,
		"pier_index_visits_wasted_total":      2,
		"pier_queries_active_executors":       1,
		"pier_query_result_batches_total":     10,
		"pier_query_result_tuples_total":      100,
		"pier_query_credit_grants_total":      5,
		"pier_query_credit_stalls_total":      1,
		"pier_transport_frames_sent_total":    40,
		"pier_transport_batches_sent_total":   30,
		"pier_transport_bytes_sent_total":     9000,
		"pier_transport_frames_recv_total":    38,
		"pier_transport_bytes_recv_total":     8800,
		"pier_transport_drops_total":          2,
	}
	for series, want := range wantSeries {
		got, ok := m[series]
		if !ok {
			t.Errorf("scrape missing %s", series)
		} else if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// Label values must be escaped per the exposition format.
	if !strings.Contains(body, `pier_softstate_items{namespace="we\"ird\\ns"}`) {
		t.Errorf("label escaping broken; scrape:\n%s", body)
	}
	// Counters must be TYPEd counter, gauges gauge.
	for _, want := range []string{
		"# TYPE pier_query_result_batches_total counter",
		"# TYPE pier_transport_frames_sent_total counter",
		"# TYPE pier_softstate_items gauge",
		"# TYPE pier_queries_active_executors gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsHistograms: histogram families must satisfy the
// exposition-format invariants — cumulative le buckets, +Inf equal to
// _count, one TYPE header per family even when stage-labeled entries
// share a name.
func TestMetricsHistograms(t *testing.T) {
	f := newFakeBackend()
	f.snap.Histograms = []HistogramData{
		{Name: "pier_query_duration_seconds", Help: "End-to-end query duration.",
			HistogramSnapshot: trace.HistogramSnapshot{Bounds: []float64{0.01, 0.1, 1}, Counts: []uint64{2, 1, 0, 1}, Sum: 3.52, Count: 4}},
		{Name: "pier_trace_span_duration_seconds", Help: "Span durations by stage.", Stage: "multicast",
			HistogramSnapshot: trace.HistogramSnapshot{Bounds: []float64{0.01}, Counts: []uint64{3, 0}, Sum: 0.003, Count: 3}},
		{Name: "pier_trace_span_duration_seconds", Stage: "executor",
			HistogramSnapshot: trace.HistogramSnapshot{Bounds: []float64{0.01}, Counts: []uint64{1, 1}, Sum: 1.001, Count: 2}},
	}
	var buf bytes.Buffer
	WriteMetrics(&buf, f.Snapshot())
	body := buf.String()
	m := parseMetrics(t, body)

	checks := map[string]float64{
		`pier_query_duration_seconds_bucket{le="0.01"}`:                        2,
		`pier_query_duration_seconds_bucket{le="0.1"}`:                         3,
		`pier_query_duration_seconds_bucket{le="1"}`:                           3,
		`pier_query_duration_seconds_bucket{le="+Inf"}`:                        4,
		"pier_query_duration_seconds_sum":                                      3.52,
		"pier_query_duration_seconds_count":                                    4,
		`pier_trace_span_duration_seconds_bucket{stage="multicast",le="0.01"}`: 3,
		`pier_trace_span_duration_seconds_bucket{stage="multicast",le="+Inf"}`: 3,
		`pier_trace_span_duration_seconds_bucket{stage="executor",le="0.01"}`:  1,
		`pier_trace_span_duration_seconds_bucket{stage="executor",le="+Inf"}`:  2,
		`pier_trace_span_duration_seconds_count{stage="executor"}`:             2,
	}
	for series, want := range checks {
		got, ok := m[series]
		if !ok {
			t.Errorf("scrape missing %s", series)
		} else if got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := strings.Count(body, "# TYPE pier_trace_span_duration_seconds histogram"); got != 1 {
		t.Errorf("stage-labeled family emitted %d TYPE headers, want 1:\n%s", got, body)
	}
	if !strings.Contains(body, "# TYPE pier_query_duration_seconds histogram") {
		t.Error("query duration family not TYPEd histogram")
	}
}

// TestMetricsMonotonicity: counters must not regress between scrapes as
// the node makes progress.
func TestMetricsMonotonicity(t *testing.T) {
	f := newFakeBackend()
	srv := newTestServer(t, f)

	scrape := func() map[string]float64 {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return parseMetrics(t, string(raw))
	}

	first := scrape()
	f.mu.Lock()
	f.snap.Query.ResultBatches += 3
	f.snap.Query.ResultTuples += 30
	f.snap.Query.CreditGrants += 2
	f.snap.Transport.FramesSent += 12
	f.snap.Transport.BytesSent += 4096
	f.snap.IndexScans++
	f.mu.Unlock()
	second := scrape()

	for name := range first {
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		if second[name] < first[name] {
			t.Errorf("counter %s regressed: %v -> %v", name, first[name], second[name])
		}
	}
	if second["pier_query_result_batches_total"] != first["pier_query_result_batches_total"]+3 {
		t.Errorf("result batches did not advance: %v -> %v",
			first["pier_query_result_batches_total"], second["pier_query_result_batches_total"])
	}
}

// TestMetricsOmitsTransportWithoutLinks: simulated nodes have no link
// counters; the scrape must omit the family rather than export zeros.
func TestMetricsOmitsTransportWithoutLinks(t *testing.T) {
	f := newFakeBackend()
	f.snap.Transport = nil
	var buf bytes.Buffer
	WriteMetrics(&buf, f.Snapshot())
	if strings.Contains(buf.String(), "pier_transport_") {
		t.Fatalf("transport family exported without real links:\n%s", buf.String())
	}
}

// TestMethodRouting: wrong-method hits answer 405 through the ServeMux
// method patterns.
func TestMethodRouting(t *testing.T) {
	srv := newTestServer(t, newFakeBackend())
	resp, err := http.Post(srv.URL+"/api/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/status = %d, want 405", resp.StatusCode)
	}
}

// TestCounterCensus walks every exported field of the node's counter
// families — core.QueryStats, provider.StorageStats (its embedded store
// counters flattened) and env.LinkStats — and marks one at a time. Each
// must have a JSON tag, carry the mark in its family's object of GET
// /api/status, and move a pier_* sample of /metrics. A counter added to
// one of these structs reaches /api/status with no further edit; this
// test is what demands its /metrics line.
func TestCounterCensus(t *testing.T) {
	families := []struct {
		typ reflect.Type
		key string // the family's object in GET /api/status
		of  func(*Snapshot) reflect.Value
	}{
		{reflect.TypeFor[core.QueryStats](), "query_channel", func(s *Snapshot) reflect.Value { return reflect.ValueOf(&s.Query).Elem() }},
		{reflect.TypeFor[provider.StorageStats](), "storage", func(s *Snapshot) reflect.Value { return reflect.ValueOf(&s.Storage).Elem() }},
		{reflect.TypeFor[env.LinkStats](), "transport", func(s *Snapshot) reflect.Value { return reflect.ValueOf(s.Transport).Elem() }},
	}
	const mark = 424242
	f := newFakeBackend()
	srv := newTestServer(t, f)
	for _, fam := range families {
		typ := fam.typ
		if served := fam.of(&Snapshot{Transport: &env.LinkStats{}}).Type(); served != typ {
			t.Fatalf("GET /api/status %q serves a %s, not the product's %s", fam.key, served, typ)
		}
		for _, sf := range reflect.VisibleFields(typ) {
			if sf.Anonymous || !sf.IsExported() {
				continue
			}
			field := typ.String() + "." + sf.Name
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if key == "" || key == "-" {
				t.Errorf("%s has no JSON tag: a counter's REST name is written at its source", field)
				continue
			}

			f.mu.Lock()
			f.snap = Snapshot{Transport: &env.LinkStats{}}
			v := fam.of(&f.snap).FieldByIndex(sf.Index)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(mark)
			case reflect.Uint32, reflect.Uint64:
				v.SetUint(mark)
			case reflect.Map: // per-namespace counters
				m := reflect.MakeMap(v.Type())
				m.SetMapIndex(reflect.ValueOf("census"), reflect.ValueOf(mark).Convert(v.Type().Elem()))
				v.Set(m)
			default:
				f.mu.Unlock()
				t.Fatalf("%s: the census cannot mark a %s", field, v.Kind())
			}
			want, _ := json.Marshal(v.Interface())
			f.mu.Unlock()

			var status map[string]json.RawMessage
			getJSON(t, srv.URL+"/api/status", &status)
			var family map[string]json.RawMessage
			if err := json.Unmarshal(status[fam.key], &family); err != nil {
				t.Fatalf("GET /api/status %q: %v", fam.key, err)
			}
			if got, ok := family[key]; !ok || !bytes.Equal(got, want) {
				t.Errorf("%s: GET /api/status %s.%s = %s, want %s", field, fam.key, key, got, want)
			}

			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			found := false
			for series, val := range parseMetrics(t, string(raw)) {
				found = found || (strings.HasPrefix(series, "pier_") && val == mark)
			}
			if !found {
				t.Errorf("%s has no pier_* sample in /metrics: a new counter needs a /metrics line in WriteMetrics", field)
			}
		}
	}
}
