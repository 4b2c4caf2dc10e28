package main

// The reference evaluator: a single-process, obviously-correct answer
// to every query, get and range the workloads issue, computed over the
// harness's own typed copy of the generated tables. It shares no code
// with the engine it checks — no core.Expr, no storage, no DHT — so a
// bug in join, aggregate, residual-predicate or value-compare logic
// cannot hide on both sides.

import "sync/atomic"

// numRange is the domain of the uniform num2/num3 attributes.
const numRange = 100

// rRow and sRow are the paper's 5.1 relations: R(pkey, num1, num2,
// num3, pad) and S(pkey, num2, num3). R.num1 is the join column
// against S.pkey.
type rRow struct{ pkey, num1, num2, num3 int64 }
type sRow struct{ pkey, num2, num3 int64 }

// benchF is the workload's two-table function f(R.num3, S.num3).
func benchF(x, y int64) int64 { return (x + y) % numRange }

// joinConsts are the three predicate constants of the 5.1 query:
// R.num2 > c1 AND S.num2 > c2 AND f(R.num3, S.num3) > c3.
type joinConsts struct{ c1, c2, c3 int64 }

// refJoin evaluates the 5.1 query by nested loops and returns, indexed
// by R.pkey, the S.pkey each R tuple joins with, or -1 when the tuple
// is not in the answer. pkeys are dense (0..len-1), and an R tuple
// matches at most one S tuple, so the slice is the whole answer.
func refJoin(R []rRow, S []sRow, k joinConsts) (match []int64, count int) {
	match = make([]int64, len(R))
	for i := range R {
		match[i] = -1
		r := &R[i]
		if r.num2 <= k.c1 {
			continue
		}
		for j := range S {
			s := &S[j]
			if r.num1 == s.pkey && s.num2 > k.c2 && benchF(r.num3, s.num3) > k.c3 {
				match[i] = s.pkey
				count++
			}
		}
	}
	return match, count
}

// tRow is the scan/mixed relation T(pkey, num, grp): num is the
// range-indexed attribute, grp the grouping attribute.
type tRow struct{ pkey, num, grp int64 }

// refRange counts the rows with lo <= num < hi; which rows they are is
// checked tuple by tuple against T as results arrive.
func refRange(T []tRow, lo, hi int64) (count int) {
	for i := range T {
		if T[i].num >= lo && T[i].num < hi {
			count++
		}
	}
	return count
}

// groupAgg is one group's COUNT(*) and SUM(num).
type groupAgg struct{ count, sum int64 }

// refGroupBy evaluates SELECT grp, count(*), sum(num) FROM T WHERE
// pkey >= lo GROUP BY grp with a hash table.
func refGroupBy(T []tRow, lo int64) map[int64]groupAgg {
	out := map[int64]groupAgg{}
	for i := range T {
		if T[i].pkey < lo {
			continue
		}
		g := out[T[i].grp]
		g.count++
		g.sum += T[i].num
		out[T[i].grp] = g
	}
	return out
}

// dedup tracks which pkeys the current query has already delivered, so
// a duplicate result tuple is caught in O(1): seen[pkey] holds the id
// of the last query that delivered it. Result callbacks of a real node
// run on its dispatch goroutines, hence the atomics.
type dedup struct{ seen []atomic.Int32 }

func newDedup(n int) *dedup { return &dedup{seen: make([]atomic.Int32, n)} }

// first reports whether pkey is new for query q (q >= 1).
func (d *dedup) first(pkey int64, q int32) bool {
	return pkey >= 0 && pkey < int64(len(d.seen)) && d.seen[pkey].Swap(q) != q
}
