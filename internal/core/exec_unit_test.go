package core

import (
	"strings"
	"testing"
)

func execForPlan(p *Plan) *exec {
	_ = p.Validate()
	return &exec{plan: p}
}

func TestRehashRIDIdentityWithoutBucketing(t *testing.T) {
	ex := execForPlan(&Plan{Tables: []TableRef{{NS: "a"}}})
	if ex.rehashRID("somekey") != "somekey" {
		t.Fatal("without ComputeNodes the join key is the resourceID")
	}
}

func TestRehashRIDBucketsBounded(t *testing.T) {
	ex := execForPlan(&Plan{Tables: []TableRef{{NS: "a"}}, ComputeNodes: 7})
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		rid := ex.rehashRID(strings.Repeat("k", i%11) + "x")
		if !strings.HasPrefix(rid, "bkt") {
			t.Fatalf("bucketed rid %q", rid)
		}
		seen[rid] = true
	}
	if len(seen) > 7 {
		t.Fatalf("%d buckets for ComputeNodes=7", len(seen))
	}
	if len(seen) < 2 {
		t.Fatalf("bucketing degenerate: %d buckets", len(seen))
	}
	// Determinism.
	if ex.rehashRID("abc") != ex.rehashRID("abc") {
		t.Fatal("bucketing must be deterministic")
	}
}

func TestSameJoinKeyOnlyCheckedWhenBucketed(t *testing.T) {
	plain := execForPlan(&Plan{Tables: []TableRef{
		{NS: "a", JoinCols: []int{0}},
		{NS: "b", JoinCols: []int{0}},
	}})
	a := &sideTuple{Side: 0, T: &Tuple{Vals: []Value{int64(1)}}}
	b := &sideTuple{Side: 1, T: &Tuple{Vals: []Value{int64(2)}}}
	if !plain.sameJoinKey(a, b) {
		t.Fatal("without bucketing the rid already guarantees key equality")
	}
	bucketed := execForPlan(&Plan{Tables: []TableRef{
		{NS: "a", JoinCols: []int{0}},
		{NS: "b", JoinCols: []int{0}},
	}, ComputeNodes: 2})
	if bucketed.sameJoinKey(a, b) {
		t.Fatal("bucketed probe must reject differing keys")
	}
	b2 := &sideTuple{Side: 1, T: &Tuple{Vals: []Value{int64(1)}}}
	if !bucketed.sameJoinKey(a, b2) {
		t.Fatal("bucketed probe must accept equal keys")
	}
}

func TestRidIIDStable(t *testing.T) {
	if StableIID("x") != StableIID("x") {
		t.Fatal("StableIID not deterministic")
	}
	if StableIID("x") == StableIID("y") {
		t.Fatal("StableIID collides on trivial inputs")
	}
	if StableIID("x") < 0 {
		t.Fatal("StableIID must be non-negative (storage convention)")
	}
}

func TestQueryNSConstant(t *testing.T) {
	if QueryNS == "" {
		t.Fatal("query namespace must be non-empty")
	}
}

func TestWireSizesPositive(t *testing.T) {
	msgs := []interface{ WireSize() int }{
		&queryMsg{Plan: &Plan{Tables: []TableRef{{NS: "a"}}}},
		&resultMsg{Tuples: []*Tuple{{Rel: "r", Vals: []Value{int64(1)}}}},
		&sideTuple{T: &Tuple{Rel: "r"}},
		&miniTuple{RID: "1", Key: "2"},
		&partialAgg{Group: []Value{"g"}, States: []*AggState{{}}},
	}
	for _, m := range msgs {
		if m.WireSize() <= 0 {
			t.Fatalf("%T has non-positive wire size", m)
		}
	}
}
