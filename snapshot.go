package pier

import (
	"pier/internal/admin"
	"pier/internal/core"
	"pier/internal/trace"
)

// Re-exported operational-state types. Snapshot is the one serializable
// struct behind the admin plane's GET views and its /metrics exporter;
// QueryInfo describes one live query.
type (
	// Snapshot aggregates one node's observable state (see
	// Node.Snapshot).
	Snapshot = admin.Snapshot
	// NamespaceCount is one namespace's soft-state summary inside a
	// Snapshot.
	NamespaceCount = admin.NamespaceCount
	// IndexInfo describes one PHT index definition inside a Snapshot.
	IndexInfo = admin.IndexInfo
	// QueryChannelStats is the Snapshot form of the engine's
	// result-channel counters (QueryStats with JSON names).
	QueryChannelStats = admin.QueryChannelStats
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
	ss := n.StorageStats()
	snap.Storage = admin.StorageStats{
		ItemsEvicted:     ss.ItemsEvicted,
		BytesEvicted:     ss.BytesEvicted,
		ItemsSpilled:     ss.ItemsSpilled,
		BytesSpilled:     ss.BytesSpilled,
		SpilledLiveItems: ss.SpilledLive,
		PutsThrottled:    ss.PutsThrottled,
		PutsDelayed:      ss.PutsDelayed,
		PutsDropped:      ss.PutsDropped,
	}
	for _, d := range n.indexes.AllDefs() {
		snap.Indexes = append(snap.Indexes, IndexInfo{Name: d.Name, Table: d.Table, Col: d.Col})
	}
	snap.IndexScans, snap.IndexVisits = n.indexes.Stats()
	snap.CachedStatsTables = len(n.stats.CachedTables())
	snap.ActiveExecs = n.engine.ActiveExecs()
	snap.OpenCollectors = n.engine.OpenCollectors()
	qs := n.engine.QueryStats()
	snap.Query = QueryChannelStats{
		ResultBatches:  qs.ResultBatches,
		ResultTuples:   qs.ResultTuples,
		CreditGrants:   qs.CreditGrants,
		CreditStalls:   qs.CreditStalls,
		BloomFallbacks: qs.BloomFallbacks,
	}
	snap.Histograms = histogramData(n.engine)
	if ls, ok := n.TransportStats(); ok {
		snap.Transport = &ls
	}
	return snap
}

// histogramData snapshots the engine's latency distributions into the
// admin plane's histogram DTOs: end-to-end query duration, result-flush
// latency, and span durations per trace stage (every stage is emitted,
// observed or not, so the /metrics families are stable across scrapes).
func histogramData(eng *core.Engine) []HistogramData {
	hist := func(name, help, stage string, s trace.HistogramSnapshot) HistogramData {
		return HistogramData{Name: name, Help: help, Stage: stage,
			Bounds: s.Bounds, Counts: s.Counts, Sum: s.Sum, Count: s.Count}
	}
	out := []HistogramData{
		hist("pier_query_duration_seconds",
			"End-to-end duration of queries initiated on this node.", "", eng.QueryDurations()),
		hist("pier_result_flush_latency_seconds",
			"Executor latency from first buffered tuple to its result frame.", "", eng.FlushLatencies()),
	}
	for _, ns := range eng.SpanDurations() {
		out = append(out, hist("pier_trace_span_duration_seconds",
			"Durations of trace spans recorded on this node, by pipeline stage.", ns.Name, ns.Hist))
	}
	return out
}

// LiveQueries lists the queries currently alive on this node — one
// entry per id, merging this node's collector (initiator) and executor
// roles — sorted by id.
func (n *Node) LiveQueries() []QueryInfo { return n.engine.LiveQueries() }
