// Package admin is the operational plane of a PIER node: an embeddable
// HTTP server (stdlib only) exposing a REST API over one node's state —
// status, routing table, soft state, indexes, live queries (list, run,
// cancel), publish, graceful leave — plus a Prometheus-text /metrics
// endpoint exporting every counter family the node already collects.
//
// The package is deliberately below the public pier package: it defines
// the Snapshot that gathers one node's state and a small Backend
// interface, and the root package adapts its Session implementations
// (simulated and real nodes) onto Backend. The counter families inside
// a Snapshot are the product's own structs (core.QueryStats,
// provider.StorageStats, env.LinkStats), as are live queries, traces and
// index definitions: their JSON tags, at the source, are the REST
// contract. Handlers never touch node internals — every read goes
// through one Snapshot() call, so the REST views and the /metrics
// exporter all serve the same struct.
package admin

import (
	"time"

	"pier/internal/core"
	"pier/internal/dht/provider"
	"pier/internal/env"
	"pier/internal/index"
	"pier/internal/trace"
)

// Snapshot aggregates one node's observable state at a point in time.
// It is the single serializable struct behind GET /api/status, the
// other GET views and the /metrics exporter; field names (via the JSON
// tags) are the REST contract.
type Snapshot struct {
	// Addr is the node's transport address.
	Addr string `json:"addr"`
	// StartedAt is when the node stack was assembled; UptimeSeconds is
	// derived from it at snapshot time. Simulated nodes report virtual
	// time.
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	// Ready reports whether the node has joined the overlay and owns a
	// portion of the key space.
	Ready bool `json:"ready"`

	// Neighbors lists the overlay neighbor addresses (the routing
	// table's links, GET /api/routing).
	Neighbors []string `json:"neighbors"`
	// OverlayNodes is the statistics catalog's deployment-size
	// estimate; LookupHops and HopLatency are read from the lookups
	// this node's puts and gets made (zero before the first).
	OverlayNodes int     `json:"overlay_nodes"`
	HopLatencyMS float64 `json:"hop_latency_ms"`
	LookupHops   float64 `json:"lookup_hops"`

	// SoftState summarizes the stored soft state per namespace;
	// StoredItems and StoredBytes are the totals across namespaces
	// (bytes charged at the wire-size model, memory tier only).
	SoftState   []NamespaceCount `json:"soft_state"`
	StoredItems int              `json:"stored_items"`
	StoredBytes int64            `json:"stored_bytes"`

	// Storage is the soft-state pressure counter family: evictions,
	// disk spill, and put-path throttling.
	Storage provider.StorageStats `json:"storage"`

	// Indexes lists the PHT index definitions this node's agent knows;
	// the rest are the reader's traversal counters (index.Manager.Stats).
	Indexes           []index.Def `json:"indexes"`
	IndexScans        int64       `json:"index_scans"`
	IndexVisits       int64       `json:"index_visits"`
	IndexVisitsAhead  int64       `json:"index_visits_ahead"`
	IndexVisitsWasted int64       `json:"index_visits_wasted"`

	// CachedStatsTables counts tables with fresh summaries in the
	// statistics catalog's reader cache.
	CachedStatsTables int `json:"cached_stats_tables"`

	// ActiveExecs and OpenCollectors are the engine's live-query
	// gauges (executors with work left here; queries initiated here).
	ActiveExecs    int `json:"active_execs"`
	OpenCollectors int `json:"open_collectors"`

	// Query is the engine's monotone result-channel counter family.
	Query core.QueryStats `json:"query_channel"`

	// Histograms are the node's latency distributions (query duration,
	// result-flush latency, per-stage span durations), exported on
	// /metrics as Prometheus histogram families. Entries sharing a Name
	// must be adjacent: they render as one family distinguished by the
	// Stage label.
	Histograms []HistogramData `json:"histograms,omitempty"`

	// Transport is the TCP link counter family; nil on environments
	// without real links (the simulator).
	Transport *env.LinkStats `json:"transport,omitempty"`
}

// HistogramData is one latency histogram with its Prometheus identity:
// per-bucket (non-cumulative) counts over upper bounds in seconds, plus
// the overflow bucket. The /metrics exporter derives the cumulative le
// series, _sum, and _count from it.
type HistogramData struct {
	// Name and Help are the Prometheus family name and description.
	Name string `json:"name"`
	Help string `json:"help"`
	// Stage is the optional stage label value ("" renders unlabeled).
	Stage string `json:"stage,omitempty"`
	trace.HistogramSnapshot
}

// NamespaceCount is one namespace's soft-state summary.
type NamespaceCount struct {
	// Namespace is the DHT namespace (a table, or an internal family
	// like pier.catalog / pier.index).
	Namespace string `json:"namespace"`
	// Items counts live stored items in it on this node.
	Items int `json:"items"`
	// Bytes is the namespace's in-memory occupancy under the wire-size
	// charging model (spilled items excluded).
	Bytes int64 `json:"bytes"`
}

// Row is one result tuple as streamed by POST /api/queries (NDJSON).
type Row struct {
	// Window is 0 for one-shot queries, the window index otherwise.
	Window int `json:"window"`
	// Values are the emitted column values.
	Values []any `json:"values"`
}
