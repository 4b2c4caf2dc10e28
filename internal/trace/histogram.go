package trace

// Histogram is a small fixed-bucket latency histogram in the
// Prometheus mold: cumulative bucket rendering is left to the
// exposition layer; this type just counts observations per bound.
// Like the engine that owns it, it is confined to one node's event
// loop.
type Histogram struct {
	bounds []float64 // sorted upper bounds; counts has one extra +Inf slot
	counts []uint64
	sum    float64
	count  uint64
}

// DefaultLatencyBounds spans query latencies from sub-millisecond
// simulator hops to multi-minute TTL-bounded continuous queries.
var DefaultLatencyBounds = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// NewHistogram returns a histogram over the given sorted upper bounds
// (seconds); nil picks DefaultLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value (seconds).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count }

// HistogramSnapshot is an immutable copy of a histogram's state, in
// per-bucket (not cumulative) counts. Counts has len(Bounds)+1
// entries; the last is the overflow (+Inf) bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// NamedSnapshot pairs a label value (a stage name) with a histogram
// snapshot, for labeled metric families.
type NamedSnapshot struct {
	Name string
	Hist HistogramSnapshot
}
