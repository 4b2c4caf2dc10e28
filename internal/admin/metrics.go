package admin

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pier/internal/env"
)

// WriteMetrics renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4): every counter family the node collects —
// transport link counters, the query result channel and its tracing,
// storage pressure, index traversal — plus the operational gauges (soft
// state per namespace, overlay estimates, live-query counts). Families
// appear in a fixed order so scrapes diff cleanly.
func WriteMetrics(w io.Writer, s Snapshot) {
	m := &metricsWriter{w: w}

	m.gauge("pier_up", "Whether the node process is serving.", 1)
	m.gauge("pier_ready", "Whether the node has joined the overlay and owns key space.", b2f(s.Ready))
	m.gauge("pier_uptime_seconds", "Seconds since the node stack was assembled.", s.UptimeSeconds)

	m.gauge("pier_overlay_nodes", "Statistics catalog's deployment-size estimate.", float64(s.OverlayNodes))
	m.gauge("pier_overlay_neighbors", "Overlay routing-table neighbor count.", float64(len(s.Neighbors)))
	m.gauge("pier_overlay_lookup_hops", "Average path length of the DHT lookups this node initiated.", s.LookupHops)
	m.gauge("pier_overlay_hop_latency_seconds", "One-way overlay hop latency, from the timed lookups of this node's puts and gets.", s.HopLatencyMS/1e3)

	m.typ("pier_softstate_items", "Live soft-state items stored on this node, per namespace.", "gauge")
	for _, ns := range s.SoftState {
		m.sample(fmt.Sprintf(`pier_softstate_items{namespace="%s"}`, escapeLabel(ns.Namespace)), float64(ns.Items))
	}
	m.typ("pier_softstate_bytes", "In-memory soft-state bytes on this node under the wire-size model, per namespace.", "gauge")
	for _, ns := range s.SoftState {
		m.sample(fmt.Sprintf(`pier_softstate_bytes{namespace="%s"}`, escapeLabel(ns.Namespace)), float64(ns.Bytes))
	}
	m.gauge("pier_softstate_stored_items", "Live soft-state items stored on this node, all namespaces.", float64(s.StoredItems))
	m.gauge("pier_softstate_stored_bytes", "In-memory soft-state bytes on this node, all namespaces.", float64(s.StoredBytes))

	m.counter("pier_storage_evictions_total", "Items evicted to hold storage quotas (expiry is not an eviction).", float64(s.Storage.ItemsEvicted))
	m.counter("pier_storage_evicted_bytes_total", "Bytes evicted to hold storage quotas.", float64(s.Storage.BytesEvicted))
	m.counter("pier_storage_spilled_items_total", "Evicted items diverted to the disk-spill tier.", float64(s.Storage.ItemsSpilled))
	m.counter("pier_storage_spilled_bytes_total", "Bytes diverted to the disk-spill tier.", float64(s.Storage.BytesSpilled))
	m.gauge("pier_storage_spilled_live_items", "Live items currently resident in the disk-spill tier.", float64(s.Storage.SpilledLive))
	m.counter("pier_storage_puts_throttled_total", "Puts this node bounced with a throttle message (over-quota namespace).", float64(s.Storage.PutsThrottled))
	m.counter("pier_storage_puts_delayed_total", "Puts this node deferred after a throttle (including self-throttles).", float64(s.Storage.PutsDelayed))
	m.counter("pier_storage_puts_dropped_total", "Stores whose incoming item was its own eviction victim.", float64(s.Storage.PutsDropped))
	m.typ("pier_storage_evictions_by_namespace_total", "Items evicted to hold storage quotas, per namespace.", "counter")
	for _, ns := range env.SortedKeys(s.Storage.EvictedByNS) {
		m.sample(fmt.Sprintf(`pier_storage_evictions_by_namespace_total{namespace="%s"}`, escapeLabel(ns)), float64(s.Storage.EvictedByNS[ns]))
	}

	m.gauge("pier_catalog_cached_tables", "Tables with fresh summaries in the statistics catalog's reader cache.", float64(s.CachedStatsTables))

	m.gauge("pier_index_defs", "PHT index definitions known to this node's agent.", float64(len(s.Indexes)))
	m.counter("pier_index_scans_total", "PHT range scans started by this node's reader.", float64(s.IndexScans))
	m.counter("pier_index_visits_total", "Trie nodes visited by this node's PHT reader.", float64(s.IndexVisits))
	m.counter("pier_index_visits_ahead_total", "Trie-node visits the PHT reader issued from its marker cache before the parent answered.", float64(s.IndexVisitsAhead))
	m.counter("pier_index_visits_wasted_total", "Ahead visits whose parent answered without an interior marker.", float64(s.IndexVisitsWasted))

	m.gauge("pier_queries_active_executors", "Query executors with work left on this node.", float64(s.ActiveExecs))
	m.gauge("pier_queries_open_collectors", "Queries initiated on this node with live collectors.", float64(s.OpenCollectors))

	m.counter("pier_query_result_batches_total", "Result frames shipped toward query initiators.", float64(s.Query.ResultBatches))
	m.counter("pier_query_result_tuples_total", "Result tuples shipped toward query initiators.", float64(s.Query.ResultTuples))
	m.counter("pier_query_credit_grants_total", "Flow-control credit grants issued by collectors on this node.", float64(s.Query.CreditGrants))
	m.counter("pier_query_credit_stalls_total", "Executor flushes stalled on an exhausted credit window.", float64(s.Query.CreditStalls))
	m.counter("pier_query_bloom_fallbacks_total", "Bloom-join combines degraded by mismatched filter geometry.", float64(s.Query.BloomFallbacks))
	m.counter("pier_query_bloom_complete_total", "Bloom collector emissions made when the contributors' key-space shares covered the whole space.", float64(s.Query.BloomComplete))
	m.counter("pier_query_bloom_late_filters_total", "Bloom contributions merged only by a collector's second emission.", float64(s.Query.BloomLateFilters))
	m.counter("pier_query_bloom_overcovered_total", "Bloom collectors whose contributors' shares summed past the whole key space.", float64(s.Query.BloomOvercovered))
	m.counter("pier_query_trace_spans_total", "Trace spans absorbed by collectors on this node.", float64(s.Query.TraceSpans))
	m.counter("pier_query_trace_span_drops_total", "Trace spans reported lost to full span buffers.", float64(s.Query.TraceSpanDrops))

	m.histograms(s.Histograms)

	if s.Transport != nil {
		t := s.Transport
		m.counter("pier_transport_frames_sent_total", "Messages handed to the socket layer.", float64(t.FramesSent))
		m.counter("pier_transport_batches_sent_total", "Socket writes issued (frames/batches is the coalescing factor).", float64(t.BatchesSent))
		m.counter("pier_transport_bytes_sent_total", "Bytes written, framing included.", float64(t.BytesSent))
		m.counter("pier_transport_frames_recv_total", "Frames received and decoded.", float64(t.FramesRecv))
		m.counter("pier_transport_bytes_recv_total", "Bytes received.", float64(t.BytesRecv))
		m.counter("pier_transport_drops_total", "Messages discarded: full queues, encode failures, dead connections.", float64(t.Drops))
	}
}

// metricsWriter accumulates exposition-format lines.
type metricsWriter struct {
	w io.Writer
}

func (m *metricsWriter) typ(name, help, kind string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (m *metricsWriter) sample(series string, v float64) {
	fmt.Fprintf(m.w, "%s %s\n", series, formatValue(v))
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	m.typ(name, help, "gauge")
	m.sample(name, v)
}

func (m *metricsWriter) counter(name, help string, v float64) {
	m.typ(name, help, "counter")
	m.sample(name, v)
}

// histograms renders HistogramData entries as Prometheus histogram
// families: cumulative le buckets, a +Inf bucket equal to _count, and
// _sum/_count series. Adjacent entries sharing a Name become one
// family whose series differ by the stage label.
func (m *metricsWriter) histograms(hs []HistogramData) {
	for i := 0; i < len(hs); {
		j := i + 1
		for j < len(hs) && hs[j].Name == hs[i].Name {
			j++
		}
		m.typ(hs[i].Name, hs[i].Help, "histogram")
		for _, h := range hs[i:j] {
			stage := ""
			if h.Stage != "" {
				stage = fmt.Sprintf(`stage="%s",`, escapeLabel(h.Stage))
			}
			var cum uint64
			for k, bound := range h.Bounds {
				if k < len(h.Counts) {
					cum += h.Counts[k]
				}
				m.sample(fmt.Sprintf(`%s_bucket{%sle="%s"}`, h.Name, stage, formatBound(bound)), float64(cum))
			}
			// The +Inf bucket is the total by definition; using Count
			// (not cum + overflow) keeps the scrape consistent even if
			// a snapshot arrives with mismatched bucket slices.
			m.sample(fmt.Sprintf(`%s_bucket{%sle="+Inf"}`, h.Name, stage), float64(h.Count))
			suffix := ""
			if h.Stage != "" {
				suffix = fmt.Sprintf(`{stage="%s"}`, escapeLabel(h.Stage))
			}
			m.sample(h.Name+"_sum"+suffix, h.Sum)
			m.sample(h.Name+"_count"+suffix, float64(h.Count))
		}
		i = j
	}
}

// formatBound prints a bucket bound the way Prometheus clients expect
// (shortest float form, no stray exponent for typical bounds).
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatValue prints integral values without an exponent so scrapes
// stay human-readable; everything else falls back to %g.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// b2f renders a boolean as a 0/1 gauge value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
