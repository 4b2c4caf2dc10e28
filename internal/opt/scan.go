package opt

import (
	"fmt"
	"math"
	"time"
)

// Access-path choice for single-table range queries: a plan whose
// sargable predicate matched a Prefix Hash Tree index can either
// traverse the index (contacting O(matching leaves) nodes from the
// initiator) or fall back to the classic full scan (multicasting the
// plan to all n nodes). Which is cheaper is a pure selectivity
// question, priced here with the same DHT-aware terms as the join
// models in this package.

// ScanEstimate is the predicted cost of one access path.
type ScanEstimate struct {
	// Index is true for the index-traversal path.
	Index bool
	// Messages is the number of DHT messages the path sends before any
	// result delivery (result bytes are identical across paths) — the
	// "nodes contacted" metric of the RangeSelectivity experiment.
	Messages float64
	// TrafficBytes prices those messages at the deployment's overhead.
	TrafficBytes float64
	// Latency approximates time to the last result under propagation
	// delay only.
	Latency time.Duration
}

// String renders an estimate for logs and tools.
func (e ScanEstimate) String() string {
	path := "full scan"
	if e.Index {
		path = "index scan"
	}
	return fmt.Sprintf("%-10s %8.0f msgs  %6.2fs", path, e.Messages, e.Latency.Seconds())
}

// ChooseScan decides index scan vs full scan for a single-table plan.
// t carries the table's cardinality and the predicate's selectivity
// (t.Selectivity, as sampled by the statistics catalog); leafCapacity
// is the index's split threshold. It returns the winner by messages
// sent, plus both estimates.
//
// The shapes: a full scan costs one multicast copy per node — flat in
// selectivity, linear in n. An index scan costs one get (lookup hops +
// request + reply) per visited trie node, and the visited set grows
// linearly with the matching fraction: ~matching/leafCapacity leaves,
// doubled for the interior skeleton above them. At low selectivity the
// index wins by orders of magnitude; past a crossover (roughly where
// matching tuples ≈ n·leafCapacity/hops) the full scan's flat cost is
// cheaper — so "index everything" is not free, which is why the
// catalog and not the plan author makes this call.
func ChooseScan(t TableStats, net NetStats, leafCapacity int) (useIndex bool, index, full ScanEstimate) {
	t = t.norm()
	net = net.norm()

	matching := t.Tuples * t.Selectivity
	leaves := math.Ceil(matching / float64(leafCapacity))
	if leaves < 1 {
		leaves = 1
	}
	// Interior skeleton: ~1 interior per leaf in a balanced binary
	// trie, plus the root chain down to where keys diverge.
	visited := 2*leaves + math.Log2(float64(leafCapacity)+1)
	perGet := net.LookupHops + 2 // route the lookup, then request+reply

	index = ScanEstimate{
		Index:        true,
		Messages:     visited * perGet,
		TrafficBytes: visited * perGet * net.MsgOverheadBytes,
		// Traversal fans out level by level; depth ~ log2(leaves) gets
		// deep, each a lookup round trip.
		Latency: time.Duration((math.Log2(leaves+1) + 1) * (net.LookupHops + 1) * float64(net.HopLatency)),
	}
	full = ScanEstimate{
		Messages:     float64(net.Nodes),
		TrafficBytes: float64(net.Nodes) * net.MsgOverheadBytes,
		// Flooding multicast depth, then one result hop.
		Latency: time.Duration(1.5*math.Pow(float64(net.Nodes), 0.25)*float64(net.HopLatency)) + net.HopLatency,
	}
	return index.Messages < full.Messages, index, full
}
