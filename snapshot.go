package pier

import (
	"pier/internal/admin"
	"pier/internal/core"
)

// Re-exported operational-state types. Snapshot is the one serializable
// struct behind the admin plane's GET views and its /metrics exporter;
// QueryInfo describes one live query. The counter families inside a
// Snapshot are the node's own QueryStats, StorageStats and LinkStats.
type (
	// Snapshot aggregates one node's observable state (see
	// Node.Snapshot).
	Snapshot = admin.Snapshot
	// NamespaceCount is one namespace's soft-state summary inside a
	// Snapshot.
	NamespaceCount = admin.NamespaceCount
	// QueryInfo describes one query alive on a node (see
	// Node.LiveQueries).
	QueryInfo = core.QueryInfo
	// HistogramData is one latency histogram inside a Snapshot,
	// exported on /metrics as a Prometheus histogram family.
	HistogramData = admin.HistogramData
)

// Snapshot aggregates this node's observable state into one
// serializable struct: identity and uptime, routing (readiness,
// neighbors, the statistics catalog's overlay estimates), soft state
// per namespace, index definitions and reader counters, live-query
// gauges, and the engine and transport counter families. It replaces
// ad-hoc walks over Router()/Provider()/Stats()/QueryStats()/
// TransportStats() with a single consistent read; every admin-plane
// view and /metrics serve exactly this struct.
func (n *Node) Snapshot() Snapshot {
	now := n.env.Now()
	snap := Snapshot{
		Addr:          string(n.env.Addr()),
		StartedAt:     n.started,
		UptimeSeconds: now.Sub(n.started).Seconds(),
		Ready:         n.router.Ready(),
	}
	for _, a := range n.router.Neighbors() {
		snap.Neighbors = append(snap.Neighbors, string(a))
	}
	net := n.stats.NetStats()
	snap.OverlayNodes = net.Nodes
	snap.HopLatencyMS = float64(net.HopLatency.Microseconds()) / 1e3
	snap.LookupHops = net.LookupHops
	store := n.provider.Store()
	usage := store.Usage()
	for _, ns := range store.Namespaces() {
		snap.SoftState = append(snap.SoftState, NamespaceCount{
			Namespace: ns,
			Items:     store.Len(ns),
			Bytes:     usage.ByNamespace[ns],
		})
	}
	snap.StoredItems = store.TotalLen()
	snap.StoredBytes = usage.Bytes
	snap.Storage = n.StorageStats()
	snap.Indexes = n.indexes.AllDefs()
	snap.IndexScans, snap.IndexVisits, snap.IndexVisitsAhead, snap.IndexVisitsWasted = n.indexes.Stats()
	snap.CachedStatsTables = len(n.stats.CachedTables())
	snap.ActiveExecs = n.engine.ActiveExecs()
	snap.OpenCollectors = n.engine.OpenCollectors()
	snap.Query = n.engine.QueryStats()
	snap.Histograms = histogramData(n.engine)
	if ls, ok := n.TransportStats(); ok {
		snap.Transport = &ls
	}
	return snap
}

// histogramData names the engine's latency distributions for /metrics:
// end-to-end query duration, result-flush latency, and span durations
// per trace stage (every stage is emitted, observed or not, so the
// /metrics families are stable across scrapes).
func histogramData(eng *core.Engine) []HistogramData {
	out := []HistogramData{
		{Name: "pier_query_duration_seconds", Help: "End-to-end duration of queries initiated on this node.",
			HistogramSnapshot: eng.QueryDurations()},
		{Name: "pier_result_flush_latency_seconds", Help: "Executor latency from first buffered tuple to its result frame.",
			HistogramSnapshot: eng.FlushLatencies()},
	}
	for _, ns := range eng.SpanDurations() {
		out = append(out, HistogramData{Name: "pier_trace_span_duration_seconds",
			Help: "Durations of trace spans recorded on this node, by pipeline stage.", Stage: ns.Name,
			HistogramSnapshot: ns.Hist})
	}
	return out
}

// LiveQueries lists the queries currently alive on this node — one
// entry per id, merging this node's collector (initiator) and executor
// roles — sorted by id.
func (n *Node) LiveQueries() []QueryInfo { return n.engine.LiveQueries() }
