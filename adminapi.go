package pier

import (
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"pier/internal/admin"
	"pier/internal/core"
	"pier/internal/sql"
)

// AdminHandler builds the node's HTTP admin plane over any Session: a
// REST API (status, routing, soft state, indexes, live queries with
// run/cancel, schema registration, publish, graceful leave) plus a
// Prometheus-text /metrics endpoint exporting every counter family the
// node collects. Mount it on any mux, an httptest server, or serve it
// directly:
//
//	srv := &http.Server{Addr: "127.0.0.1:7080", Handler: pier.AdminHandler(node)}
//	go srv.ListenAndServe()
//
// The handler is safe for concurrent requests when the Session is (a
// *RealNode); mounting it over a simulated *Node is only sensible for
// single-threaded inspection.
func AdminHandler(s Session) http.Handler {
	b := &adminBackend{s: s}
	b.iid.Store(time.Now().UnixNano())
	return admin.New(b)
}

// catalogWait bounds how long the admin adapter waits for DHT catalog
// lookups before reporting the deployment unavailable.
const catalogWait = 10 * time.Second

// adminBackend adapts a Session to the admin plane's Backend interface.
// All methods run on HTTP handler goroutines and never call Session
// methods from inside event-loop callbacks (which would deadlock a
// RealNode); callback payloads cross back over channels instead.
type adminBackend struct {
	s   Session
	iid atomic.Int64
}

func (b *adminBackend) Snapshot() admin.Snapshot { return b.s.Snapshot() }

func (b *adminBackend) Queries() []QueryInfo { return b.s.LiveQueries() }

func (b *adminBackend) Cancel(id uint64) bool { return b.s.Cancel(id) }

func (b *adminBackend) Leave() { b.s.Leave() }

// lookupTable resolves one schema from the DHT catalog, waiting at
// most catalogWait.
func (b *adminBackend) lookupTable(name string) (*SQLTable, error) {
	ch := make(chan *SQLTable, 1)
	b.s.LookupTable(name, func(t *SQLTable) { ch <- t })
	select {
	case t := <-ch:
		if t == nil {
			return nil, fmt.Errorf("table %q not in the DHT catalog", name)
		}
		return t, nil
	case <-time.After(catalogWait):
		return nil, fmt.Errorf("catalog lookup for %q timed out: %w", name, admin.ErrUnavailable)
	}
}

func (b *adminBackend) RunSQL(src string, each func(admin.Row)) (uint64, admin.SQLKind, error) {
	st, err := sql.ParseStatement(src)
	if err != nil {
		return 0, admin.SQLDDL, err
	}
	var sel *sql.Stmt
	kind := admin.SQLQuery
	switch s := st.(type) {
	case *sql.CreateIndexStmt:
		t, err := b.lookupTable(s.Table)
		if err != nil {
			return 0, admin.SQLDDL, err
		}
		return 0, admin.SQLDDL, b.s.Exec(src, Catalog{s.Table: *t})
	case *sql.ExplainStmt:
		// QuerySQL re-plans the full src; sql.Plan forces Trace on for
		// the EXPLAIN TRACE form, so the query runs traced.
		sel, kind = s.Select, admin.SQLExplain
	case *sql.Stmt:
		sel = s
	default:
		return 0, admin.SQLDDL, fmt.Errorf("unsupported statement")
	}
	var tables []string
	for _, ti := range sel.From {
		tables = append(tables, ti.Name)
	}
	type outcome struct {
		id  uint64
		err error
	}
	done := make(chan outcome, 1)
	fn := func(t *Tuple, window int) {
		each(admin.Row{Window: window, Values: append([]any(nil), t.Vals...)})
	}
	b.s.QuerySQL(src, tables, fn, func(id uint64, err error) {
		select {
		case done <- outcome{id, err}:
		default:
		}
	})
	select {
	case o := <-done:
		return o.id, kind, o.err
	case <-time.After(catalogWait):
		return 0, kind, fmt.Errorf("query planning timed out: %w", admin.ErrUnavailable)
	}
}

func (b *adminBackend) Trace(id uint64) (*QueryTrace, bool) { return b.s.Trace(id) }

func (b *adminBackend) RegisterTable(name, key string, cols []string) error {
	t := SQLTable{Name: name, Cols: cols, Key: key}
	if t.Col(key) < 0 {
		return fmt.Errorf("key column %q is not one of the table's columns", key)
	}
	b.s.RegisterTable(t, 0)
	return nil
}

func (b *adminBackend) Publish(table string, values []any, lifetime time.Duration) (string, error) {
	t, err := b.lookupTable(table)
	if err != nil {
		return "", err
	}
	if len(values) != len(t.Cols) {
		return "", fmt.Errorf("table %s takes %d columns, got %d", table, len(t.Cols), len(values))
	}
	vals := make([]Value, len(values))
	for i, v := range values {
		vals[i] = normalizeValue(v)
	}
	rid := core.ValueString(vals[t.Col(t.Key)])
	b.s.Publish(table, rid, b.iid.Add(1), &Tuple{Rel: table, Vals: vals}, lifetime)
	return rid, nil
}

// normalizeValue maps a decoded JSON value onto the engine's Value
// vocabulary: integral floats become int64 (JSON has no integer type,
// but joins and predicates compare int64s), everything else passes
// through.
func normalizeValue(v any) Value {
	if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return int64(f)
	}
	return v
}
