package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is an io.Writer the daemon logs into from its goroutines
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestUsageErrors: a flag the daemon does not have exits 2, including
// the ones earlier releases had; flag values it cannot use exit 1,
// before any node starts.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-config", "node.json"}, 2, "-config"},
		{[]string{"-interactive"}, 2, "-interactive"},
		{[]string{"-wait", "5s"}, 2, "-wait"},
		{[]string{"-lifetime", "10m"}, 2, "-lifetime"},
		{[]string{"-spill-dir", t.TempDir()}, 1, "needs -quota"},
		{[]string{"-log-format", "xml"}, 1, `"xml"`},
	} {
		var stderr syncBuffer
		if code := run(c.args, &stderr, nil); code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("%v: stderr %q does not mention %q", c.args, stderr.String(), c.msg)
		}
	}
}

// TestHelpListsTheFlags: -h exits 0 and lists exactly the daemon's
// flags.
func TestHelpListsTheFlags(t *testing.T) {
	var stderr syncBuffer
	if code := run([]string{"-h"}, &stderr, nil); code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	got := regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(stderr.String(), -1)
	var names []string
	for _, m := range got {
		names = append(names, m[1])
	}
	want := "admin debug drain-timeout join join-timeout listen log-format quota spill-dir stats"
	if strings.Join(names, " ") != want {
		t.Errorf("-h lists %v, want %s", names, want)
	}
}

// TestLifecycle runs the daemon in process on loopback: the admin plane
// reports ready, takes a schema, a row and a SELECT over HTTP, and a
// SIGTERM drains it to exit 0. On the way, an index over 65 rows gets
// its first maintenance tick although -stats 0 turns the catalog loop
// off (a cold catalog keeps the index the planner attached), so a range
// SELECT walks below the trie's root.
func TestLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a TCP node")
	}
	var stderr syncBuffer
	sigs := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-stats", "0", "-drain-timeout", "2s"}, &stderr, sigs)
	}()

	urlRE := regexp.MustCompile(`msg="admin plane listening" url=(\S+)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; {
		if m := urlRE.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("admin plane never came up:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// until polls an HTTP exchange until ok accepts its status and body.
	until := func(what string, do func() (*http.Response, error), ok func(int, string) bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := do()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if ok(resp.StatusCode, string(body)) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: last answer %d %s", what, resp.StatusCode, body)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	post := func(path, body string) func() (*http.Response, error) {
		return func() (*http.Response, error) {
			return http.Post(base+path, "application/json", strings.NewReader(body))
		}
	}
	status200 := func(code int, _ string) bool { return code == http.StatusOK }

	until("status", func() (*http.Response, error) { return http.Get(base + "/api/status") },
		func(code int, body string) bool {
			return code == http.StatusOK && strings.Contains(body, `"ready":true`)
		})
	until("register", post("/api/tables", `{"name":"fish","key":"name","cols":["name","size"]}`), status200)
	until("publish", post("/api/publish", `{"table":"fish","values":["salmon",7]}`), status200)
	until("select", post("/api/queries", `{"sql":"SELECT name, size FROM fish","wait_ms":300}`),
		func(code int, body string) bool { return code == http.StatusOK && strings.Contains(body, `"salmon"`) })

	until("create index", post("/api/queries", `{"sql":"CREATE INDEX fish_size ON fish (size)"}`), status200)
	for i := 0; i < 64; i++ {
		until("publish", post("/api/publish", fmt.Sprintf(`{"table":"fish","values":["f%d",%d]}`, i, 100+i)), status200)
	}
	// Each try runs the range SELECT, then reads the walk counters.
	walk := func() (*http.Response, error) {
		resp, err := post("/api/queries", `{"sql":"SELECT name, size FROM fish WHERE size < 104","wait_ms":300}`)()
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return http.Get(base + "/api/status")
	}
	until("range walk below the root", walk, func(code int, body string) bool {
		var st struct {
			Scans  int64 `json:"index_scans"`
			Visits int64 `json:"index_visits"`
		}
		return code == http.StatusOK && json.Unmarshal([]byte(body), &st) == nil && st.Scans > 0 && st.Visits > st.Scans
	})

	sigs <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM:\n%s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("no exit 15 s after SIGTERM:\n%s", stderr.String())
	}
	for _, want := range []string{"drained", "shutdown complete"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
