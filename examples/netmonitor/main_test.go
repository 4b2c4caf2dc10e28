package main

import (
	"reflect"
	"testing"
	"time"

	"pier"
)

// TestMonitorPlan holds the example's query to the plan it was written
// as by hand before it became SQL text.
func TestMonitorPlan(t *testing.T) {
	want := &pier.Plan{
		Tables:     []pier.TableRef{{NS: "packets"}},
		GroupBy:    []int{0},
		Aggs:       []pier.Aggregate{{Kind: pier.Count, Col: -1}, {Kind: pier.Sum, Col: 2}},
		Continuous: true,
		Every:      10 * time.Second,
		Windows:    3,
		AggWait:    4 * time.Second,
		TTL:        2 * time.Minute,
	}
	got := monitorPlan()
	for _, p := range []*pier.Plan{got, want} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("monitor plan\n got %+v\nwant %+v", got, want)
	}
}
