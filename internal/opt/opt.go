// Package opt is a naive cost-based optimizer for PIER's join
// strategies — the starting point §7 sketches for the paper's future
// query-optimization work: take the classic distributed-database cost
// models (semi-joins, Bloom joins, R*-style transfer costs) and "simply
// enhance their cost models to reflect the properties of DHTs".
//
// The model prices each §4 strategy in bytes moved and in expected time
// to the last result, using DHT properties (network size, overlay hop
// latency, lookup path length, per-message overheads) plus catalog
// statistics (cardinalities, tuple widths, selectivities). It picks a
// strategy by minimizing the requested objective; tests cross-validate
// the predicted orderings against measured simulation runs.
package opt

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pier/internal/core"
)

// TableStats summarizes one input relation for costing.
type TableStats struct {
	// Tuples is the relation's cardinality.
	Tuples float64
	// TupleBytes is the average stored tuple size (including any pad).
	TupleBytes float64
	// Selectivity is the fraction passing the local predicate.
	Selectivity float64
	// HashedOnJoinAttr is true when the relation's resourceID is the
	// join attribute, the precondition for Fetch Matches (§4.1).
	HashedOnJoinAttr bool
	// DistinctJoinKeys is the number of distinct join-attribute values
	// (defaults to Tuples when zero); it sizes Bloom filters.
	DistinctJoinKeys float64
}

func (t TableStats) norm() TableStats {
	if t.Selectivity <= 0 || t.Selectivity > 1 {
		t.Selectivity = 1
	}
	if t.DistinctJoinKeys <= 0 {
		t.DistinctJoinKeys = t.Tuples
	}
	if t.TupleBytes <= 0 {
		t.TupleBytes = 64
	}
	return t
}

// NetStats summarizes the deployment for costing.
type NetStats struct {
	// Nodes is the overlay size n.
	Nodes int
	// HopLatency is the one-way delay of an overlay hop.
	HopLatency time.Duration
	// LookupHops is the average lookup path length; zero derives the
	// CAN d=4 model n^(1/4) (§5.5.1).
	LookupHops float64
	// MsgOverheadBytes is charged per DHT message (headers, keys).
	MsgOverheadBytes float64
	// BloomBits is the per-table Bloom filter size used by the Bloom
	// rewrite; zero uses 2^16 (the paper-scale default).
	BloomBits float64
}

func (n NetStats) norm() NetStats {
	if n.Nodes <= 0 {
		n.Nodes = 1024
	}
	if n.HopLatency <= 0 {
		n.HopLatency = 100 * time.Millisecond
	}
	if n.LookupHops <= 0 {
		n.LookupHops = math.Pow(float64(n.Nodes), 0.25)
	}
	if n.MsgOverheadBytes <= 0 {
		n.MsgOverheadBytes = 80
	}
	if n.BloomBits <= 0 {
		n.BloomBits = 1 << 16
	}
	return n
}

// JoinStats couples the two inputs with the join's match rate.
type JoinStats struct {
	Left, Right TableStats
	// MatchFraction is the fraction of filtered left tuples with at
	// least one join partner (the workload's 90%, §5.1).
	MatchFraction float64
	// AvgMatches is the average number of right matches per matching
	// left tuple (1 for a key join).
	AvgMatches float64
}

func (j JoinStats) norm() JoinStats {
	j.Left = j.Left.norm()
	j.Right = j.Right.norm()
	if j.MatchFraction <= 0 || j.MatchFraction > 1 {
		j.MatchFraction = 1
	}
	if j.AvgMatches <= 0 {
		j.AvgMatches = 1
	}
	return j
}

// Estimate is the predicted cost of one strategy.
type Estimate struct {
	Strategy core.Strategy
	// TrafficBytes is the strategy's own bandwidth (result delivery
	// excluded — identical across strategies, the Figure 4 metric).
	TrafficBytes float64
	// Latency approximates the time to the last result under pure
	// propagation delay (the Table 4 metric).
	Latency time.Duration
	// Feasible is false when the strategy's precondition fails (Fetch
	// Matches without the inner table hashed on the join attribute).
	Feasible bool
}

// Objective selects what Choose minimizes.
type Objective int

// Objectives.
const (
	// MinTraffic minimizes bytes moved — the paper's primary concern
	// for wide-area queries ("bandwidth-reducing rewrite schemes", §4).
	MinTraffic Objective = iota
	// MinLatency minimizes the propagation-delay estimate.
	MinLatency
)

// Estimates prices all four strategies.
func Estimates(j JoinStats, net NetStats) []Estimate {
	j = j.norm()
	net = net.norm()

	lookupT := time.Duration(net.LookupHops * float64(net.HopLatency))
	lookupB := net.LookupHops * net.MsgOverheadBytes
	hop := net.HopLatency
	// Flooding multicast: ~1 copy per node, depth ~1.5 n^(1/4).
	mcastB := float64(net.Nodes) * net.MsgOverheadBytes
	mcastT := time.Duration(1.5 * math.Pow(float64(net.Nodes), 0.25) * float64(hop))

	filteredL := j.Left.Tuples * j.Left.Selectivity
	filteredR := j.Right.Tuples * j.Right.Selectivity
	pairs := filteredL * j.MatchFraction * j.AvgMatches * j.Right.Selectivity

	put := func(bytes float64) float64 { return lookupB + net.MsgOverheadBytes + bytes }
	get := func(bytes float64) float64 { return lookupB + 2*net.MsgOverheadBytes + bytes }

	var out []Estimate

	// Symmetric hash (§4.1): rehash both filtered inputs.
	out = append(out, Estimate{
		Strategy:     core.SymmetricHash,
		TrafficBytes: mcastB + filteredL*put(j.Left.TupleBytes) + filteredR*put(j.Right.TupleBytes),
		Latency:      mcastT + lookupT + 2*hop,
		Feasible:     true,
	})

	// Fetch Matches (§4.1): one get per filtered left tuple; the right
	// predicate cannot be pushed, so full right tuples come back for
	// every probe that finds data.
	out = append(out, Estimate{
		Strategy: core.FetchMatches,
		TrafficBytes: mcastB +
			filteredL*(lookupB+2*net.MsgOverheadBytes) +
			filteredL*j.MatchFraction*j.AvgMatches*j.Right.TupleBytes,
		Latency:  mcastT + lookupT + 3*hop,
		Feasible: j.Right.HashedOnJoinAttr,
	})

	// Symmetric semi-join (§4.2): rehash (rid, key) minis, then fetch
	// both base tuples per matching pair (memoized per probing site).
	miniBytes := 24.0
	out = append(out, Estimate{
		Strategy: core.SymmetricSemiJoin,
		TrafficBytes: mcastB +
			(filteredL+filteredR)*put(miniBytes) +
			pairs*get(j.Left.TupleBytes) +
			math.Min(pairs, filteredR)*get(j.Right.TupleBytes),
		Latency:  mcastT + 2*lookupT + 4*hop,
		Feasible: true,
	})

	// Bloom rewrite (§4.2): every node puts its filter of each table
	// to the table's collector, the OR-ed filters are multicast back,
	// and each prunes the rehash of the opposite table. A collector
	// emits once the last node's filter lands, one put after the last
	// node heard the query.
	keysL := j.Left.DistinctJoinKeys * j.Left.Selectivity
	keysR := j.Right.DistinctJoinKeys * j.Right.Selectivity
	n := float64(net.Nodes)
	fpL := bloomFP(net.BloomBits, keysR)
	passL := j.MatchFraction*j.Right.Selectivity + (1-j.MatchFraction*j.Right.Selectivity)*fpL
	fpR := bloomFP(net.BloomBits, keysL)
	passR := math.Min(1, j.MatchFraction+(1-j.MatchFraction)*fpR)
	out = append(out, Estimate{
		Strategy: core.BloomJoin,
		TrafficBytes: mcastB +
			n*(put(filterBytes(net.BloomBits, keysL/n))+put(filterBytes(net.BloomBits, keysR/n))) + // per-node filters
			2*mcastB + n*(filterBytes(net.BloomBits, keysL)+filterBytes(net.BloomBits, keysR)) + // OR-ed filters multicast
			filteredL*passL*put(j.Left.TupleBytes) +
			filteredR*passR*put(j.Right.TupleBytes),
		Latency:  mcastT + lookupT + hop + mcastT + lookupT + 2*hop,
		Feasible: true,
	})
	return out
}

// filterBytes is a filter of keys keys on the wire: the smaller of its
// dense words and its sparse form, about one varint gap per set bit.
func filterBytes(bits, keys float64) float64 {
	set := math.Min(bits, bloomK*keys)
	sparse := set * math.Ceil(math.Log2(bits/math.Max(set, 1)+1)/7)
	return math.Min(bits/8, sparse)
}

// bloomK is the plans' default hash count (Plan.BloomHashes).
const bloomK = 4

// bloomFP is the standard false-positive estimate for bloomK hashes.
func bloomFP(bits, keys float64) float64 {
	if keys <= 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-bloomK*keys/bits), bloomK)
}

// Choose returns the best feasible strategy under the objective and the
// full ranked estimate list.
func Choose(j JoinStats, net NetStats, obj Objective) (core.Strategy, []Estimate) {
	ests := Estimates(j, net)
	sort.SliceStable(ests, func(a, b int) bool {
		ea, eb := ests[a], ests[b]
		if ea.Feasible != eb.Feasible {
			return ea.Feasible
		}
		if obj == MinLatency {
			return ea.Latency < eb.Latency
		}
		return ea.TrafficBytes < eb.TrafficBytes
	})
	return ests[0].Strategy, ests
}

// String renders an estimate for logs and tools.
func (e Estimate) String() string {
	feas := ""
	if !e.Feasible {
		feas = " (infeasible)"
	}
	return fmt.Sprintf("%-20s %8.2f MB  %6.2fs%s",
		e.Strategy, e.TrafficBytes/1e6, e.Latency.Seconds(), feas)
}
