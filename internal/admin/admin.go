package admin

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pier/internal/core"
	"pier/internal/dht/provider"
	"pier/internal/index"
	"pier/internal/trace"
)

// Backend is the node surface the admin plane serves. The public pier
// package adapts its Session implementations (simulated and real
// nodes) onto it; handlers call nothing else.
//
// Errors returned by RunSQL, RegisterTable, and Publish are classified
// by wrapping: ErrUnavailable maps to 503, everything else to 400 (the
// inputs arrived over HTTP, so a failure to apply them is the client's
// problem unless the deployment itself is unreachable). Handlers never
// answer 5xx for malformed input.
type Backend interface {
	// Snapshot captures the node's observable state.
	Snapshot() Snapshot

	// Queries lists the queries currently alive on the node.
	Queries() []core.QueryInfo

	// RunSQL runs one SQL statement against the deployment's DHT
	// catalog. DDL (CREATE INDEX) completes before returning, with
	// kind SQLDDL. For SELECT, kind is SQLQuery, id is the live query
	// id, and result rows stream into each — called on the node's
	// event loop, so it must never block — until Cancel(id). EXPLAIN
	// TRACE runs the inner SELECT with tracing forced on and reports
	// SQLExplain; the handler collects rows, cancels, then fetches the
	// assembled trace via Trace.
	RunSQL(src string, each func(Row)) (id uint64, kind SQLKind, err error)

	// Cancel stops a query initiated on this node, reporting whether
	// it was found.
	Cancel(id uint64) bool

	// Trace returns the distributed trace of a query initiated on this
	// node: live (partial) while the query runs, retained for a while
	// after it closes. ok is false when the query is unknown, untraced,
	// or evicted.
	Trace(id uint64) (tr *trace.Trace, ok bool)

	// RegisterTable publishes a table schema into the DHT catalog.
	RegisterTable(name, key string, cols []string) error

	// Publish stores one row under the table's key column, returning
	// the resourceID it landed on.
	Publish(table string, values []any, lifetime time.Duration) (rid string, err error)

	// Leave departs the overlay gracefully (soft state hands off to a
	// peer).
	Leave()
}

// SQLKind classifies what RunSQL did with a statement.
type SQLKind int

// Statement kinds.
const (
	// SQLDDL is a synchronous definition statement (CREATE INDEX).
	SQLDDL SQLKind = iota
	// SQLQuery is a live SELECT streaming rows until cancelled.
	SQLQuery
	// SQLExplain is an EXPLAIN TRACE: a live SELECT with tracing
	// forced on, answered with the assembled trace instead of rows.
	SQLExplain
)

// ErrUnavailable marks a Backend error caused by the deployment being
// unreachable (a catalog lookup that timed out, a node mid-shutdown)
// rather than by the request; handlers answer it with 503.
var ErrUnavailable = errors.New("admin: deployment unavailable")

// Bounds on what one HTTP request may ask of the node, and what it gets
// when it names nothing.
const (
	// maxWait caps how long POST /api/queries collects results;
	// defaultWait applies when the request names none.
	maxWait     = 60 * time.Second
	defaultWait = 5 * time.Second
	// maxBodyBytes caps request bodies.
	maxBodyBytes = 1 << 20
	// rowBuffer is the per-stream result buffer between the node's
	// event loop and the HTTP writer; rows beyond it are dropped and
	// counted in the stream trailer.
	rowBuffer = 4096
	// defaultLifetime is the soft-state lifetime of a row published
	// without lifetime_ms: soft state that nobody renews must die.
	defaultLifetime = 10 * time.Minute
	// maxLifetimeMS is the largest lifetime_ms a time.Duration holds.
	maxLifetimeMS = math.MaxInt64 / int64(time.Millisecond)
)

// Server is the embeddable admin-plane handler. It is a plain
// http.Handler: mount it on any mux or serve it directly.
type Server struct {
	b   Backend
	mux *http.ServeMux
}

// New builds the admin handler over a backend.
func New(b Backend) *Server {
	s := &Server{b: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("GET /api/routing", s.handleRouting)
	s.mux.HandleFunc("GET /api/softstate", s.handleSoftState)
	s.mux.HandleFunc("GET /api/indexes", s.handleIndexes)
	s.mux.HandleFunc("GET /api/queries", s.handleQueries)
	s.mux.HandleFunc("POST /api/queries", s.handleRunQuery)
	s.mux.HandleFunc("DELETE /api/queries/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /api/queries/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("POST /api/tables", s.handleRegisterTable)
	s.mux.HandleFunc("POST /api/publish", s.handlePublish)
	s.mux.HandleFunc("POST /api/leave", s.handleLeave)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON serves v with the proper content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errorBody is the JSON error envelope every non-2xx answer carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// backendStatus maps a Backend error to its HTTP status.
func backendStatus(err error) int {
	if errors.Is(err, ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// decodeBody parses a bounded JSON request body into v, rejecting
// trailing garbage.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data")
		return false
	}
	return true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.Snapshot())
}

// routingView is the GET /api/routing projection of the snapshot.
type routingView struct {
	Addr         string   `json:"addr"`
	Ready        bool     `json:"ready"`
	Neighbors    []string `json:"neighbors"`
	OverlayNodes int      `json:"overlay_nodes"`
	LookupHops   float64  `json:"lookup_hops"`
	HopLatencyMS float64  `json:"hop_latency_ms"`
}

func (s *Server) handleRouting(w http.ResponseWriter, r *http.Request) {
	snap := s.b.Snapshot()
	writeJSON(w, http.StatusOK, routingView{
		Addr:         snap.Addr,
		Ready:        snap.Ready,
		Neighbors:    snap.Neighbors,
		OverlayNodes: snap.OverlayNodes,
		LookupHops:   snap.LookupHops,
		HopLatencyMS: snap.HopLatencyMS,
	})
}

// softStateView is the GET /api/softstate projection of the snapshot.
type softStateView struct {
	StoredItems int                   `json:"stored_items"`
	StoredBytes int64                 `json:"stored_bytes"`
	Namespaces  []NamespaceCount      `json:"namespaces"`
	Storage     provider.StorageStats `json:"storage"`
}

func (s *Server) handleSoftState(w http.ResponseWriter, r *http.Request) {
	snap := s.b.Snapshot()
	writeJSON(w, http.StatusOK, softStateView{
		StoredItems: snap.StoredItems,
		StoredBytes: snap.StoredBytes,
		Namespaces:  snap.SoftState,
		Storage:     snap.Storage,
	})
}

// indexesView is the GET /api/indexes projection of the snapshot.
type indexesView struct {
	Indexes []index.Def `json:"indexes"`
	Scans   int64       `json:"scans"`
	Visits  int64       `json:"visits"`
	Ahead   int64       `json:"visits_ahead"`
	Wasted  int64       `json:"visits_wasted"`
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	snap := s.b.Snapshot()
	writeJSON(w, http.StatusOK, indexesView{Indexes: snap.Indexes, Scans: snap.IndexScans,
		Visits: snap.IndexVisits, Ahead: snap.IndexVisitsAhead, Wasted: snap.IndexVisitsWasted})
}

// queriesView wraps the live-query listing.
type queriesView struct {
	Queries []core.QueryInfo `json:"queries"`
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, queriesView{Queries: s.b.Queries()})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query id must be a decimal uint64: %q", r.PathValue("id"))
		return
	}
	if !s.b.Cancel(id) {
		writeError(w, http.StatusNotFound, "no live query %d initiated on this node", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"cancelled": strconv.FormatUint(id, 10)})
}

// handleTrace serves the assembled distributed trace of a query
// initiated on this node (live or recently closed).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "query id must be a decimal uint64: %q", r.PathValue("id"))
		return
	}
	tr, ok := s.b.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace for query %d on this node (untraced, unknown, or evicted)", id)
		return
	}
	writeJSON(w, http.StatusOK, traceView{tr, tr.RenderString()})
}

// traceView is the REST form of an assembled trace: the trace itself
// plus its rendered tree (the EXPLAIN TRACE text), so curl users need
// no client-side formatter.
type traceView struct {
	*trace.Trace
	Rendered string `json:"rendered"`
}

// runQueryRequest is the POST /api/queries body.
type runQueryRequest struct {
	// SQL is the statement: a SELECT (results stream back as NDJSON)
	// or CREATE INDEX (completes synchronously).
	SQL string `json:"sql"`
	// WaitMS bounds how long the stream collects results; 0 uses the
	// server default, values above the server cap are clamped.
	WaitMS int `json:"wait_ms"`
	// Limit stops the stream after this many rows (0 = no limit).
	Limit int `json:"limit"`
}

// streamMeta is the first NDJSON line of a query stream.
type streamMeta struct {
	ID string `json:"id"`
}

// streamTrailer is the last NDJSON line of a query stream.
type streamTrailer struct {
	Rows    int `json:"rows"`
	Dropped int `json:"dropped"`
}

// handleRunQuery runs SQL and streams results as NDJSON: one meta line
// carrying the query id, one line per result row, and a trailer with
// the row count and how many rows overflowed the stream buffer. DDL
// answers a plain JSON object instead of a stream.
func (s *Server) handleRunQuery(w http.ResponseWriter, r *http.Request) {
	var req runQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	wait := defaultWait
	if req.WaitMS > 0 {
		// Clamp in milliseconds: a huge wait_ms would overflow the
		// Duration multiply and end the stream at once.
		wait = time.Duration(min(req.WaitMS, int(maxWait/time.Millisecond))) * time.Millisecond
	}
	if req.Limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be non-negative")
		return
	}

	// The row channel decouples the node's event loop from the HTTP
	// writer: each never blocks, overflow is dropped and counted.
	rows := make(chan Row, rowBuffer)
	var dropped atomic.Int64
	each := func(row Row) {
		select {
		case rows <- row:
		default:
			dropped.Add(1)
		}
	}
	id, kind, err := s.b.RunSQL(req.SQL, each)
	if err != nil {
		writeError(w, backendStatus(err), "%v", err)
		return
	}
	if kind == SQLDDL {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "ddl": true})
		return
	}
	if kind == SQLExplain {
		s.answerExplain(w, r, id, wait, rows, &dropped)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(streamMeta{ID: strconv.FormatUint(id, 10)})
	flush()

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	n := 0
stream:
	for {
		select {
		case row := <-rows:
			if err := enc.Encode(row); err != nil {
				break stream // client gone
			}
			flush()
			n++
			if req.Limit > 0 && n >= req.Limit {
				break stream
			}
		case <-deadline.C:
			break stream
		case <-r.Context().Done():
			break stream
		}
	}
	// Cancel before counting, so that no row arrives after the trailer;
	// rows still buffered count as dropped: the stream is over.
	s.b.Cancel(id)
	dropped.Add(int64(len(rows)))
	_ = enc.Encode(streamTrailer{Rows: n, Dropped: int(dropped.Load())})
	flush()
}

// answerExplain finishes an EXPLAIN TRACE request: let the traced
// query run for the wait window (counting but not streaming its rows,
// overflowed ones included), cancel it — which closes the collector
// and retains the complete trace — then answer with the assembled
// trace as one JSON document.
func (s *Server) answerExplain(w http.ResponseWriter, r *http.Request, id uint64, wait time.Duration, rows chan Row, dropped *atomic.Int64) {
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	n := 0
collect:
	for {
		select {
		case <-rows:
			n++
		case <-deadline.C:
			break collect
		case <-r.Context().Done():
			s.b.Cancel(id)
			return
		}
	}
	s.b.Cancel(id)
	n += len(rows) + int(dropped.Load())
	tr, ok := s.b.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "query %d left no trace", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": n, "trace": traceView{tr, tr.RenderString()}})
}

// registerTableRequest is the POST /api/tables body.
type registerTableRequest struct {
	// Name and Cols describe the relation; Key names the column used
	// as the base resourceID.
	Name string   `json:"name"`
	Key  string   `json:"key"`
	Cols []string `json:"cols"`
}

func (s *Server) handleRegisterTable(w http.ResponseWriter, r *http.Request) {
	var req registerTableRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Key == "" || len(req.Cols) == 0 {
		writeError(w, http.StatusBadRequest, "name, key, and cols are all required")
		return
	}
	if err := s.b.RegisterTable(req.Name, req.Key, req.Cols); err != nil {
		writeError(w, backendStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"registered": req.Name})
}

// publishRequest is the POST /api/publish body.
type publishRequest struct {
	// Table names a registered relation; Values is one row in column
	// order (numbers, strings, bools).
	Table  string `json:"table"`
	Values []any  `json:"values"`
	// LifetimeMS bounds the soft-state lifetime (0 or absent uses
	// defaultLifetime, 10 minutes).
	LifetimeMS int `json:"lifetime_ms"`
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Table == "" || len(req.Values) == 0 {
		writeError(w, http.StatusBadRequest, "table and values are required")
		return
	}
	// Past maxLifetimeMS the Duration multiply wraps negative, which
	// storage would read as "never expires".
	if req.LifetimeMS < 0 || int64(req.LifetimeMS) > maxLifetimeMS {
		writeError(w, http.StatusBadRequest, "lifetime_ms must be between 0 and %d", maxLifetimeMS)
		return
	}
	lifetime := defaultLifetime
	if req.LifetimeMS > 0 {
		lifetime = time.Duration(req.LifetimeMS) * time.Millisecond
	}
	rid, err := s.b.Publish(req.Table, req.Values, lifetime)
	if err != nil {
		writeError(w, backendStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": req.Table, "rid": rid})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	s.b.Leave()
	writeJSON(w, http.StatusOK, map[string]any{"left": true})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.b.Snapshot())
}
