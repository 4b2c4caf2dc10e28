package pier

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pier/internal/dht/storage"
)

// TestAdminHandlerOverRealNode drives the full admin plane against a
// live TCP cluster: schema registration, publish, and a SQL query all
// over HTTP, then a /metrics scrape asserting the counter families the
// deployment must export.
func TestAdminHandlerOverRealNode(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a TCP cluster")
	}
	nodes := startCluster(t, 3)
	srv := httptest.NewServer(AdminHandler(nodes[0]))
	defer srv.Close()

	post := func(path, body string) (*http.Response, error) {
		return http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	}

	resp, err := post("/api/tables", `{"name":"fish","key":"name","cols":["name","size"]}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register table = %d", resp.StatusCode)
	}

	// Publish retries until the schema's catalog entry lands (the
	// registration put is async). It returns when the successful
	// attempt was sent and when it was answered.
	publish := func(body string) (sent, answered time.Time) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			sent = time.Now()
			resp, err := post("/api/publish", body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sent, time.Now()
			}
			if time.Now().After(deadline) {
				t.Fatalf("publish never succeeded: last status %d", resp.StatusCode)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	// expiresOf reads a fish row's expiry from whichever node's store
	// holds it, polling until the async put lands.
	expiresOf := func(rid string) time.Time {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			var items []*storage.Item
			for _, nd := range nodes {
				nd.Do(func() { items = append(items, nd.Provider().Store().Retrieve("fish", rid)...) })
			}
			if len(items) == 1 {
				return items[0].Expires
			}
			if time.Now().After(deadline) {
				t.Fatalf("fish/%s is stored %d times", rid, len(items))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// A publish's lifetime starts while its HTTP request is in flight.
	checkLifetime := func(rid string, sent, answered time.Time, lifetime time.Duration) {
		t.Helper()
		exp := expiresOf(rid)
		if exp.Before(sent.Add(lifetime)) || exp.After(answered.Add(lifetime)) {
			t.Errorf("fish/%s expires at %v, want %v after its publish at %v", rid, exp, lifetime, sent)
		}
	}
	sent, answered := publish(`{"table":"fish","values":["salmon",7]}`)
	publish(`{"table":"fish","values":["tuna",140]}`)
	publish(`{"table":"fish","values":["cod",9]}`)
	// No lifetime_ms: the admin plane's default, not an immortal row.
	checkLifetime("salmon", sent, answered, 10*time.Minute)

	// Query over HTTP until all three rows come back (puts are async).
	type result struct {
		rows    int
		dropped int
	}
	runQuery := func() result {
		t.Helper()
		resp, err := post("/api/queries", `{"sql":"SELECT name, size FROM fish","wait_ms":3000}`)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query = %d", resp.StatusCode)
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if len(lines) < 2 {
			t.Fatalf("stream too short: %v", lines)
		}
		var meta struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil || meta.ID == "" {
			t.Fatalf("bad stream meta %q", lines[0])
		}
		var trailer struct {
			Rows    int `json:"rows"`
			Dropped int `json:"dropped"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
			t.Fatalf("bad stream trailer %q", lines[len(lines)-1])
		}
		return result{rows: trailer.Rows, dropped: trailer.Dropped}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		r := runQuery()
		if r.rows >= 3 {
			if r.dropped != 0 {
				t.Fatalf("stream dropped %d rows with a tiny result", r.dropped)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query over HTTP returned %d/3 rows", r.rows)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// An explicit lifetime_ms is the row's lifetime.
	sent, answered = publish(`{"table":"fish","values":["eel",3],"lifetime_ms":2000}`)
	checkLifetime("eel", sent, answered, 2*time.Second)

	// After the streams closed their queries, none should linger.
	var queries struct {
		Queries []any `json:"queries"`
	}
	qresp, err := http.Get(srv.URL + "/api/queries")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(qresp.Body).Decode(&queries); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	for _, q := range queries.Queries {
		t.Logf("lingering query: %v", q)
	}

	// The scrape must carry the deployment's counter families with real
	// traffic behind them.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var scrape strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		scrape.WriteString(sc.Text())
		scrape.WriteString("\n")
	}
	body := scrape.String()
	for _, family := range []string{
		"pier_transport_frames_sent_total",
		"pier_transport_bytes_sent_total",
		"pier_query_result_batches_total",
		"pier_query_credit_grants_total",
		"pier_catalog_cached_tables",
		"pier_softstate_stored_items",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing %s:\n%s", family, body)
		}
	}
	// A real node moved frames during the cluster join alone.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "pier_transport_frames_sent_total ") {
			if strings.TrimPrefix(line, "pier_transport_frames_sent_total ") == "0" {
				t.Errorf("no transport traffic counted: %q", line)
			}
		}
	}
}
