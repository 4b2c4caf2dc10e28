package trace

import "sync"

// Histogram is a small fixed-bucket latency histogram in the
// Prometheus mold: cumulative bucket rendering is left to the
// exposition layer; this type just counts observations per bound.
// Observations and snapshots are goroutine-safe: the engine's
// dispatch shards observe flush and span latencies off the event
// loop, so the histogram serializes internally.
type Histogram struct {
	mu     sync.Mutex
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
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

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
	h.mu.Lock()
	defer h.mu.Unlock()
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
