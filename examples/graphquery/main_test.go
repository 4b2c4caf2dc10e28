package main

import (
	"reflect"
	"testing"

	"pier"
	"pier/internal/core"
)

// TestReachPlan holds the example's query to the plan it was written
// as by hand before it became SQL text.
func TestReachPlan(t *testing.T) {
	want := &pier.Plan{
		Tables: []pier.TableRef{
			{NS: "frontier2", JoinCols: []int{0}, RIDCol: 0},
			{NS: "links", JoinCols: []int{0}, RIDCol: 0},
		},
		Strategy: pier.FetchMatches,
		Output:   []core.Expr{&core.Col{Idx: 2}},
	}
	got := reachPlan("frontier2")
	for _, p := range []*pier.Plan{got, want} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reach plan\n got %+v\nwant %+v", got, want)
	}
}
