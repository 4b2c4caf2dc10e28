package chaos

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"pier/internal/core"
	"pier/internal/simnet"
)

// Invariant is one checked property of a chaos run.
type Invariant struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the outcome of one chaos scenario: the invariant verdicts,
// the recall against the fault-free oracle, and the deterministic
// trace fingerprint used to assert seed replayability.
type Report struct {
	Cfg        Config
	Invariants []Invariant
	// Recall is total matched results over total oracle results across
	// the recallable queries; PerQueryRecall has one entry per query
	// (NaN-free: queries with an empty oracle result count as 1).
	Recall         float64
	PerQueryRecall []float64
	// Stats is the faulted run's final simulator counters; re-running
	// the same seed must reproduce them exactly.
	Stats simnet.Stats
	// TraceHash fingerprints the faulted run: simulator counters plus
	// every query's sorted result keys. Identical seeds must produce
	// identical hashes.
	TraceHash uint64
	// Channel sums the result-channel counters (frames, tuples,
	// grants, stalls, Bloom fallbacks) across the nodes alive at the
	// end of the faulted run — informational: non-zero stalls show the
	// loss/partition schedule actually exercised credit refresh.
	Channel core.QueryStats
	// Flood summarizes the flood-pressure leg; nil unless the scenario
	// set Config.PublishFlood.
	Flood *FloodReport
}

// FloodReport summarizes a PublishFlood scenario: how much the
// quota-bounded faulted run forgot versus the unbounded oracle, and
// what the eviction and backpressure machinery did to hold the budget.
type FloodReport struct {
	// Published is the configured flood size. OracleLive is how many
	// flood results the unbounded oracle's final scan returned; Matched
	// of them also surfaced in the bounded run's scan.
	Published  int
	OracleLive int
	Matched    int
	// Evicted and Dropped count the flood namespace's quota evictions
	// and incoming-item drops summed across live nodes; Throttled and
	// Delayed count the backpressure protocol's bounces and honored
	// deferrals.
	Evicted   int64
	Dropped   int64
	Throttled int64
	Delayed   int64
	// PeakBytes is the highest per-node flood-namespace occupancy any
	// budget probe observed; Quota is the configured per-node bound.
	PeakBytes int64
	Quota     int64
}

// AllPass reports whether every invariant held.
func (r *Report) AllPass() bool {
	for _, iv := range r.Invariants {
		if !iv.Pass {
			return false
		}
	}
	return true
}

// Failed returns the invariants that did not hold.
func (r *Report) Failed() []Invariant {
	var out []Invariant
	for _, iv := range r.Invariants {
		if !iv.Pass {
			out = append(out, iv)
		}
	}
	return out
}

// Print renders the report for humans: one line per invariant, then the
// recall and the replay fingerprint.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "chaos seed=%d nodes=%d churn=%.1f/min partitions=%d loss=%.2f%%\n",
		r.Cfg.Seed, r.Cfg.Nodes, r.Cfg.CrashesPerMin, len(r.Cfg.Partitions), 100*r.Cfg.BaseLoss)
	for _, iv := range r.Invariants {
		mark := "PASS"
		if !iv.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-24s %s\n", mark, iv.Name, iv.Detail)
	}
	fmt.Fprintf(w, "  recall %.1f%% (floor %.1f%%)   trace %016x   msgs=%d lost=%d+%d dropped=%d\n",
		100*r.Recall, 100*r.Cfg.RecallFloor, r.TraceHash,
		r.Stats.Messages, r.Stats.LostLoss, r.Stats.LostPartition, r.Stats.Dropped)
	fmt.Fprintf(w, "  result channel: frames=%d tuples=%d grants=%d stalls=%d\n",
		r.Channel.ResultBatches, r.Channel.ResultTuples, r.Channel.CreditGrants, r.Channel.CreditStalls)
	fmt.Fprintf(w, "  bloom collectors: complete=%d late-filters=%d overcovered=%d fallbacks=%d\n",
		r.Channel.BloomComplete, r.Channel.BloomLateFilters, r.Channel.BloomOvercovered, r.Channel.BloomFallbacks)
	if f := r.Flood; f != nil {
		fmt.Fprintf(w, "  flood: %d published, kept %d of %d oracle results; evicted=%d dropped=%d throttled=%d delayed=%d peak=%d/%dB\n",
			f.Published, f.Matched, f.OracleLive, f.Evicted, f.Dropped, f.Throttled, f.Delayed, f.PeakBytes, f.Quota)
	}
}

// traceHash fingerprints a run from its simulator counters and query
// outcomes. Everything folded in is deterministic for a seed; anything
// nondeterministic anywhere in the stack shows up as a changed hash.
func traceHash(stats simnet.Stats, queries []queryOutcome) uint64 {
	h := fnv.New64a()
	add := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	add(stats.Messages, stats.Bytes, stats.Dropped, stats.LostLoss, stats.LostPartition, stats.DeliveredToDead)
	add(stats.InboundByNode...)
	for _, q := range queries {
		keys := make([]string, 0, len(q.keys))
		for k := range q.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
