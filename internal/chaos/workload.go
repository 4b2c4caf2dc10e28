package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pier/internal/core"
	"pier/internal/sql"
	"pier/internal/workload"
)

// RangeIndexName is the PHT index a RangeQueries scenario creates over
// S.num2.
const RangeIndexName = "s_num2"

// FloodNS is the hot namespace a PublishFlood scenario floods.
const FloodNS = "F"

// floodHotKeys is how many distinct resource keys the flood rotates
// through — few enough that a handful of owner nodes absorb the whole
// flood and their quotas come under real pressure.
const floodHotKeys = 8

// QueryKind classifies one generated workload query.
type QueryKind int

// Generated query kinds.
const (
	// QSelect scans one table with a selection predicate.
	QSelect QueryKind = iota
	// QJoin runs the §5.1 two-table equi-join under a random strategy.
	QJoin
	// QAggregate computes grouped aggregates over one table.
	QAggregate
	// QContinuous runs a windowed continuous aggregate over arrivals
	// (renewals keep feeding it). Excluded from recall comparison —
	// per-window arrival counts legitimately differ under loss — but it
	// must still terminate cleanly.
	QContinuous
	// QRange scans one table through the Prefix Hash Tree index
	// (initiator-side trie traversal instead of a query multicast),
	// exercising index lookups, entry renewal, and split/merge healing
	// under the same faults as everything else. Requires the scenario
	// to have created the index (Config.RangeQueries).
	QRange
	// QFlood is the flood scenario's final select-all scan over the
	// flood namespace. Excluded from the recall floor — a quota-bounded
	// run legitimately forgets flood items — the flood-recall-vs-evicted
	// invariant bounds the forgetting by the eviction counters instead.
	QFlood
)

func (k QueryKind) String() string {
	return [...]string{"select", "join", "aggregate", "continuous", "range", "flood"}[k]
}

// QuerySpec is one deterministic generated query.
type QuerySpec struct {
	Kind     QueryKind
	Strategy core.Strategy
	// SelR/SelS/SelF are the predicate selectivities (join) or the scan
	// selectivity (select, SelS).
	SelR, SelS, SelF float64
	// CancelEarly cancels the query halfway through its window instead
	// of letting the TTL tear it down, exercising the cancel-multicast
	// path under faults.
	CancelEarly bool
}

// Recallable reports whether the query participates in the recall
// comparison against the oracle run.
func (q QuerySpec) Recallable() bool {
	return q.Kind == QSelect || q.Kind == QJoin || q.Kind == QAggregate || q.Kind == QRange
}

// paperJoin is the query of the paper's evaluation (§5.1): the R ⋈ S
// join under the symmetric hash strategy at selectivities 0.5 / 0.5 /
// 0.5, left to its TTL.
var paperJoin = QuerySpec{Kind: QJoin, Strategy: core.SymmetricHash, SelR: 0.5, SelS: 0.5, SelF: 0.5}

// GenerateQueriesMix derives n query specs from a seed: a deterministic
// mix of scans, joins across all four strategies, grouped aggregates,
// and continuous queries. When withRange is true, every other scan slot
// becomes an index-backed range query (the scenario must have created
// the index); the other slots are the same specs either way, so
// pinned-seed scenarios that predate the index keep their exact traces.
func GenerateQueriesMix(n int, seed int64, withRange bool) []QuerySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x9127c3a5))
	sels := []float64{0.3, 0.5, 0.7}
	specs := make([]QuerySpec, n)
	joins := 0
	for i := range specs {
		q := QuerySpec{
			SelR:        sels[rng.Intn(len(sels))],
			SelS:        sels[rng.Intn(len(sels))],
			SelF:        sels[rng.Intn(len(sels))],
			CancelEarly: rng.Float64() < 0.3,
		}
		switch i % 4 {
		case 0, 2:
			q.Kind = QJoin
			// Cycle the strategies so every seed covers all four once
			// enough joins are generated; the selectivities stay random.
			q.Strategy = core.Strategy(joins % 4)
			joins++
		case 1:
			if withRange && i%8 == 1 {
				q.Kind = QRange
			} else {
				q.Kind = QSelect
			}
		default:
			if i%8 == 3 {
				q.Kind = QContinuous
			} else {
				q.Kind = QAggregate
			}
		}
		specs[i] = q
	}
	return specs
}

// catalog describes the scans' tables to the planner: the workload's
// S, and the flood namespace, one integer column. Joins plan through
// workload.JoinPlan.
var catalog = sql.Catalog{
	"S":     workload.Catalog["S"],
	FloodNS: {Name: FloodNS, Cols: []string{"seq"}, Key: "seq"},
}

// rangeCatalog adds the S.num2 index of a RangeQueries scenario. Only
// QRange plans against it, so every other scan stays a full scan.
var rangeCatalog = sql.Catalog{"S": {Name: "S", Cols: workload.Catalog["S"].Cols, Key: "pkey",
	Indexes: []sql.Index{{Name: RangeIndexName, Col: "num2"}}}}

// Plan lowers the spec to an executable plan over the workload tables
// (the flood namespace for QFlood). window is the per-query
// result-collection window (the plan's TTL).
func (q QuerySpec) Plan(window time.Duration) *core.Plan {
	c1, c2, c3 := workload.Constants(q.SelR, q.SelS, q.SelF)
	scan := fmt.Sprintf("SELECT pkey, num2 FROM S WHERE num2 > %d", c2)
	var p *core.Plan
	switch q.Kind {
	case QJoin:
		p = workload.JoinPlan(q.Strategy, c1, c2, c3)
		p.BloomBits = 1 << 14
	case QSelect:
		p = sql.MustPlan(scan, catalog)
	case QAggregate:
		p = sql.MustPlan(fmt.Sprintf("SELECT num3, count(*), sum(num2) FROM S WHERE num2 > %d GROUP BY num3 WAIT '8s'", c2), catalog)
	case QContinuous:
		p = sql.MustPlan("SELECT count(*) FROM S EVERY '10s' WAIT '5s'", catalog)
	case QRange:
		// The QSelect scan, served through the PHT instead of a
		// multicast full scan: the planner attaches the index over
		// num2 > c2 (Filter stays the exact residual), and the scenario
		// forces that access path.
		p = sql.MustPlan(scan, rangeCatalog)
		p.AutoAccess = false
	case QFlood:
		p = sql.MustPlan("SELECT seq FROM "+FloodNS, catalog)
	}
	p.TTL = window
	return p
}

// Key derives the recall-comparison key of one result tuple. Select and
// join results are identified by their full output row; aggregate
// results by their group keys only (aggregate values legitimately
// differ when tuples are lost, but a surviving group should still
// report).
func (q QuerySpec) Key(t *core.Tuple, window int) string {
	vals := t.Vals
	if q.Kind == QAggregate {
		vals = vals[:1] // the single group column
	}
	parts := make([]string, 0, len(vals)+1)
	for _, v := range vals {
		parts = append(parts, core.ValueString(v))
	}
	if window > 0 {
		parts = append(parts, fmt.Sprintf("w%d", window))
	}
	return strings.Join(parts, "\x1f")
}
