package core

import (
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// Strategy selects one of the paper's four distributed equi-join
// implementations (§4).
type Strategy int

// Join strategies.
const (
	// SymmetricHash rehashes both tables into a temporary namespace and
	// probes on newData — the paper's most general algorithm (§4.1).
	SymmetricHash Strategy = iota
	// FetchMatches scans the outer table and issues a DHT get per tuple
	// against the inner table, which must already be hashed on the join
	// attribute (§4.1).
	FetchMatches
	// SymmetricSemiJoin symmetric-hash-joins (resourceID, join key)
	// projections of both tables, then fetches the matching base tuples
	// in parallel (§4.2).
	SymmetricSemiJoin
	// BloomJoin publishes per-node Bloom filters of each table to
	// per-table collectors, ORs them, multicasts the combined filters,
	// and rehashes only matching tuples (§4.2).
	BloomJoin
)

func (s Strategy) String() string {
	switch s {
	case SymmetricHash:
		return "symmetric hash"
	case FetchMatches:
		return "fetch matches"
	case SymmetricSemiJoin:
		return "symmetric semi-join"
	case BloomJoin:
		return "bloom filter"
	default:
		return "unknown"
	}
}

// TableRef names one input relation and its per-table operators.
type TableRef struct {
	// NS is the namespace (relation) in the DHT.
	NS string
	// Filter is the local selection predicate over the base row; nil
	// accepts everything.
	Filter Expr
	// Project lists the base columns kept when the tuple is rehashed
	// ("copied with only the relevant columns remaining", §4.1). nil
	// keeps all columns. Join and output column indices refer to the
	// projected row.
	Project []int
	// JoinCols are the equi-join key columns, as indices into the
	// projected row.
	JoinCols []int
	// RIDCol is the projected column holding the tuple's base
	// resourceID (its primary key), needed by the semi-join rewrite to
	// fetch base tuples back. -1 when unused.
	RIDCol int
	// IndexScan, when set on a single-table plan, names a Prefix Hash
	// Tree index covering a sargable prefix of Filter: the initiator
	// traverses the index over the encoded range instead of
	// multicasting a full scan. Filter stays intact as the exact
	// residual predicate.
	IndexScan *IndexRangeScan
}

// AggKind is an aggregate function.
type AggKind int

// Aggregate kinds.
const (
	Count AggKind = iota
	Sum
	Avg
	Min
	Max
)

func (k AggKind) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[k]
}

// Aggregate is one aggregate over the pre-aggregation row.
type Aggregate struct {
	Kind AggKind
	// Col indexes the pre-aggregation row; -1 means COUNT(*).
	Col int
}

// Plan is a serializable query plan — the "query instructions" that the
// multicast distributes to all nodes (§5.5.1). Plans use column indices
// throughout; the SQL front end (internal/sql) resolves names.
type Plan struct {
	// Tables has one entry for a scan/aggregation query, two for a join.
	Tables []TableRef
	// Strategy picks the join algorithm when len(Tables) == 2.
	Strategy Strategy
	// PostFilter runs over the concatenated projected row — predicates
	// referencing both tables, like the workload's
	// f(R.num3, S.num3) > constant3, "must [be] evaluate[d] after the
	// equi-join" (§5.1).
	PostFilter Expr
	// GroupBy lists grouping columns (pre-aggregation row indices). With
	// no Aggs the plan is a plain select/join.
	GroupBy []int
	// Aggs are the aggregates computed per group.
	Aggs []Aggregate
	// Having filters groups; it sees groupCols ++ aggResults.
	Having Expr
	// Output computes the emitted row. For non-aggregate plans it sees
	// the concatenated projected row; for aggregates, groupCols ++
	// aggResults. nil emits the row unchanged.
	Output []Expr

	// TTL bounds the lifetime of the query's temporary DHT state.
	TTL time.Duration
	// BloomWait is the Bloom collectors' fallback: a collector
	// multicasts the OR of its filters as soon as every owner of the
	// key space has reported, or at BloomWait if that comes first (and
	// once more on coverage, if filters arrived in between).
	BloomWait time.Duration
	// AggWait is how long group collectors gather partial aggregates
	// before emitting results.
	AggWait time.Duration
	// BloomBits and BloomHashes fix the Bloom filter geometry for the
	// BloomJoin strategy; all nodes must agree so filters can be OR-ed.
	BloomBits   int
	BloomHashes int

	// ComputeNodes constrains the join namespace NQ to (about) this many
	// computation nodes by bucketing rehash keys, reproducing §5.4's
	// "when the number of computation nodes is kept small by
	// constraining the join namespace". Zero uses the full network (one
	// bucket per join key).
	ComputeNodes int

	// AggFanout superimposes a two-level aggregation hierarchy on the
	// DHT (§7 "Hierarchical aggregation and DHTs"): per-node partials
	// first combine at AggFanout intermediate sites per group, which
	// forward one combined partial to the group's root. Zero keeps the
	// flat parallel-database scheme. The hierarchy cuts the root's
	// inbound load from O(n) partials to O(AggFanout).
	AggFanout int

	// Continuous turns the plan into a windowed continuous query over
	// arriving data (§7 "Continuous queries over streams"): sources
	// aggregate arrivals into tumbling windows of length Every, and
	// collectors emit one result set per window.
	Continuous bool
	// Every is the window length for continuous queries.
	Every time.Duration
	// Windows stops a continuous query after that many windows
	// (0 = run until the query's TTL).
	Windows int

	// AutoStrategy marks a join plan whose Strategy was defaulted, not
	// requested (SQL without a USING STRATEGY clause). The initiating
	// node's statistics catalog may then replace Strategy with the
	// cost-based choice before the query is disseminated; without a
	// warmed catalog the default stands.
	AutoStrategy bool

	// AutoAccess marks a plan whose IndexScan was attached by the SQL
	// planner rather than forced by the caller. The initiating node's
	// statistics catalog may then drop the index in favor of a full
	// scan when the estimated selectivity is too high for the index to
	// pay off; a cold catalog keeps the index (the user created it for
	// a reason).
	AutoAccess bool

	// Trace requests distributed tracing for this query: the flag
	// propagates in the query multicast and every executor records
	// span events (see internal/trace). EXPLAIN TRACE and the admin
	// plane's trace flag set it.
	Trace bool
}

// Validate performs basic sanity checks and fills defaults.
func (p *Plan) Validate() error {
	if len(p.Tables) < 1 || len(p.Tables) > 2 {
		return errPlan("plan must reference one or two tables")
	}
	if len(p.Tables) == 2 {
		if len(p.Tables[0].JoinCols) == 0 || len(p.Tables[0].JoinCols) != len(p.Tables[1].JoinCols) {
			return errPlan("join requires equal, non-empty JoinCols on both tables")
		}
		if p.Strategy == SymmetricSemiJoin && (p.Tables[0].RIDCol < 0 || p.Tables[1].RIDCol < 0) {
			return errPlan("semi-join rewrite requires RIDCol on both tables")
		}
	}
	if len(p.Aggs) == 0 && (p.Having != nil || len(p.GroupBy) > 0) {
		return errPlan("GroupBy/Having require aggregates")
	}
	if p.TTL <= 0 {
		p.TTL = 10 * time.Minute
	}
	if p.BloomWait <= 0 {
		p.BloomWait = 5 * time.Second
	}
	if p.AggWait <= 0 {
		p.AggWait = 10 * time.Second
	}
	if p.BloomBits <= 0 {
		p.BloomBits = 1 << 16
	}
	if p.BloomHashes <= 0 {
		p.BloomHashes = 4
	}
	// The wire codec rejects filters with more hashes (no honest filter
	// needs them); clamp here so a legal plan can never produce frames
	// its receivers drop.
	if p.BloomHashes > 64 {
		p.BloomHashes = 64
	}
	if p.Continuous {
		if p.Every <= 0 {
			return errPlan("continuous query requires Every > 0")
		}
		if len(p.Tables) != 1 {
			return errPlan("continuous queries support a single table")
		}
	}
	return nil
}

type errPlan string

func (e errPlan) Error() string { return "pier: invalid plan: " + string(e) }

// WireSize implements env.Message.
func (p *Plan) WireSize() int { return wire.Size(p) }

// --- the row pipeline -------------------------------------------------------
//
// Every access path runs a plan's rows through the same helpers: the
// executors' scans, fetches and join probes, and the initiator's index
// walk. A path supplies only where rows come from and where results go.

// baseRow is the check every read of a stored base tuple makes: the
// payload is a tuple, it passes the table's Filter, and it is
// projected. It returns nil for a payload that fails. It stays small
// enough to inline into scan callbacks; filterProject does the work.
func (tbl *TableRef) baseRow(payload env.Message) *Tuple {
	if t, ok := payload.(*Tuple); ok {
		return tbl.filterProject(t)
	}
	return nil
}

// filterProject is baseRow past the type check.
func (tbl *TableRef) filterProject(t *Tuple) *Tuple {
	if tbl.Filter != nil && !Truthy(tbl.Filter.Eval(t.Vals)) {
		return nil
	}
	return t.Project(tbl.Project)
}

// pipe takes one produced row the rest of the way: PostFilter, then
// the group it feeds in gs for window w (aggregate plans, see feed) or
// the result row Output makes of it, which pipe returns. It returns nil
// for a row PostFilter drops or a group absorbs.
func (p *Plan) pipe(gs *groupSet, w int, row *Tuple) *Tuple {
	if !pass(p.PostFilter, row.Vals) {
		return nil
	}
	if len(p.Aggs) > 0 {
		p.feed(gs, w, row)
		return nil
	}
	if len(p.Output) == 0 {
		return row
	}
	return &Tuple{Rel: "result", Vals: evalAll(p.Output, row.Vals), Pad: row.Pad}
}

// pass reports whether row satisfies e; a nil predicate accepts all.
func pass(e Expr, row []Value) bool { return e == nil || Truthy(e.Eval(row)) }

// evalAll evaluates each expression over row.
func evalAll(es []Expr, row []Value) []Value {
	vals := make([]Value, len(es))
	for i, e := range es {
		vals[i] = e.Eval(row)
	}
	return vals
}
