// Package admin is the operational plane of a PIER node: an embeddable
// HTTP server (stdlib only) exposing a REST API over one node's state —
// status, routing table, soft state, indexes, live queries (list, run,
// cancel), publish, graceful leave — plus a Prometheus-text /metrics
// endpoint exporting every counter family the node already collects.
//
// The package is deliberately below the public pier package: it defines
// the serializable Snapshot contract and a small Backend interface, and
// the root package adapts its Session implementations (simulated and
// real nodes) onto Backend. Handlers never touch node internals — every
// read goes through one Snapshot() call, so the REST views and the
// /metrics exporter all serve the same struct.
package admin

import (
	"time"

	"pier/internal/env"
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
	// estimate; HopLatency and LookupHops are its probe results.
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
	Storage StorageStats `json:"storage"`

	// Indexes lists the PHT index definitions this node's agent knows;
	// IndexScans/IndexVisits are the reader's traversal counters.
	Indexes     []IndexInfo `json:"indexes"`
	IndexScans  int64       `json:"index_scans"`
	IndexVisits int64       `json:"index_visits"`

	// CachedStatsTables counts tables with fresh summaries in the
	// statistics catalog's reader cache.
	CachedStatsTables int `json:"cached_stats_tables"`

	// ActiveExecs and OpenCollectors are the engine's live-query
	// gauges (executors running here; queries initiated here).
	ActiveExecs    int `json:"active_execs"`
	OpenCollectors int `json:"open_collectors"`

	// Query is the engine's monotone result-channel counter family.
	Query QueryChannelStats `json:"query_channel"`

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

// HistogramData is one latency histogram in snapshot form: per-bucket
// (non-cumulative) counts over the upper Bounds, plus an implicit
// overflow bucket. The /metrics exporter derives the cumulative le
// series, _sum, and _count from it.
type HistogramData struct {
	// Name and Help are the Prometheus family name and description.
	Name string `json:"name"`
	Help string `json:"help"`
	// Stage is the optional stage label value ("" renders unlabeled).
	Stage string `json:"stage,omitempty"`
	// Bounds are the inclusive bucket upper bounds in seconds; Counts
	// has len(Bounds)+1 entries, the last counting observations above
	// every bound.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	// Sum and Count aggregate all observations.
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// TraceSpan is the REST form of one recorded span event.
type TraceSpan struct {
	// Stage names the instrumented pipeline stage (multicast, executor,
	// result_flush, ...).
	Stage string `json:"stage"`
	// Node is the address of the node that recorded the span.
	Node string `json:"node"`
	// Start is the span's start in UnixNano of the deployment clock
	// (virtual time on simulated nodes); DurNS is its length.
	Start int64 `json:"start_unix_nano"`
	DurNS int64 `json:"duration_ns"`
	// Note is a short human-readable annotation.
	Note string `json:"note,omitempty"`
	// Seq orders spans recorded by the same node at the same instant.
	Seq uint32 `json:"seq"`
}

// QueryTrace is the REST form of an assembled distributed query trace,
// served by GET /api/queries/{id}/trace and the EXPLAIN TRACE answer.
type QueryTrace struct {
	// ID serializes as a decimal string like QueryInfo.ID.
	ID uint64 `json:"id,string"`
	// Root is the initiator's address.
	Root string `json:"root"`
	// Started/Finished bound the query in UnixNano of the deployment
	// clock; Finished is 0 while the query is still live.
	Started  int64 `json:"started_unix_nano"`
	Finished int64 `json:"finished_unix_nano"`
	// Spans are the collected span events in causal order.
	Spans []TraceSpan `json:"spans"`
	// Drops counts spans lost to bounded buffers.
	Drops uint64 `json:"dropped_spans"`
	// Rendered is the human-readable trace tree (the EXPLAIN TRACE
	// text), so curl users need no client-side formatter.
	Rendered string `json:"rendered"`
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

// StorageStats is the soft-state pressure counter family: what a
// quota-bounded node has evicted, spilled to disk, or throttled at the
// put path. All-zero on unbounded nodes.
type StorageStats struct {
	// ItemsEvicted and BytesEvicted count quota evictions (lifetime
	// expiry is not an eviction).
	ItemsEvicted int64 `json:"items_evicted"`
	BytesEvicted int64 `json:"bytes_evicted"`
	// ItemsSpilled and BytesSpilled count evictions diverted to the
	// disk tier; SpilledLiveItems is the current on-disk gauge.
	ItemsSpilled     int64 `json:"items_spilled"`
	BytesSpilled     int64 `json:"bytes_spilled"`
	SpilledLiveItems int   `json:"spilled_live_items"`
	// PutsThrottled counts puts this node bounced with a throttle
	// message; PutsDelayed counts puts it deferred after being
	// throttled (or self-throttled); PutsDropped counts stores whose
	// incoming item was its own eviction victim.
	PutsThrottled int64 `json:"puts_throttled"`
	PutsDelayed   int64 `json:"puts_delayed"`
	PutsDropped   int64 `json:"puts_dropped"`
}

// IndexInfo describes one PHT index definition.
type IndexInfo struct {
	// Name is the deployment-unique index name.
	Name string `json:"name"`
	// Table and Col identify what the index covers.
	Table string `json:"table"`
	Col   string `json:"col"`
}

// QueryChannelStats mirrors core.QueryStats with JSON names: the
// monotone counters of the batched, credit-based result channel.
type QueryChannelStats struct {
	// ResultBatches and ResultTuples count result frames shipped to
	// initiators and the tuples they carried.
	ResultBatches uint64 `json:"result_batches"`
	ResultTuples  uint64 `json:"result_tuples"`
	// CreditGrants and CreditStalls count collector-side grants and
	// executor-side stall episodes of the flow-control window.
	CreditGrants uint64 `json:"credit_grants"`
	CreditStalls uint64 `json:"credit_stalls"`
	// BloomFallbacks counts Bloom-join combines degraded by mismatched
	// peer filter geometry.
	BloomFallbacks uint64 `json:"bloom_fallbacks"`
}

// QueryInfo is the REST form of one live query (GET /api/queries).
type QueryInfo struct {
	// ID is the query id, the handle DELETE /api/queries/{id} takes.
	// It serializes as a decimal string: ids are full uint64s, beyond
	// what JSON consumers can hold in a float64.
	ID uint64 `json:"id,string"`
	// Initiator and Executor report this node's roles in the query.
	Initiator bool `json:"initiator"`
	Executor  bool `json:"executor"`
	// Tables names the plan's input relations.
	Tables []string `json:"tables"`
	// Continuous marks a windowed continuous query.
	Continuous bool `json:"continuous"`
	// Started is when this node first saw the query.
	Started time.Time `json:"started"`
}

// Row is one result tuple as streamed by POST /api/queries (NDJSON).
type Row struct {
	// Window is 0 for one-shot queries, the window index otherwise.
	Window int `json:"window"`
	// Values are the emitted column values.
	Values []any `json:"values"`
}
