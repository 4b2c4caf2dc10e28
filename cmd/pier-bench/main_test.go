package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownOnlyKeyIsRejected: a mistyped -only key must fail with the
// valid keys listed, not run nothing and exit 0 (which is how a CI gate
// passes vacuously).
func TestUnknownOnlyKeyIsRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "fig3,tuplepth"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("a scenario ran before the key check:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "tuplepth") {
		t.Errorf("error does not name the unknown key: %q", msg)
	}
	for _, s := range scenarios {
		if !strings.Contains(msg, s.key) {
			t.Errorf("error does not list valid key %q: %q", s.key, msg)
		}
	}
}

// TestScenarioTable pins the table's shape: keys are unique, every row
// is runnable, and the named-only set is exactly the chaos gates and
// the 100k-node scale scenarios.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range scenarios {
		if seen[s.key] {
			t.Errorf("duplicate key %q", s.key)
		}
		seen[s.key] = true
		if s.key == "" || s.label == "" || s.run == nil {
			t.Errorf("incomplete row %+v", s)
		}
	}
	if got, want := keys(true), "chaos,rangechaos,flood,churn,simscale,fig3xl,churnxl"; got != want {
		t.Errorf("named-only keys %q, want %q", got, want)
	}
}

// TestPickSelection: no -only selects the default scenarios and none of
// the named-only ones; naming keys selects exactly those, in table
// order, once each.
func TestPickSelection(t *testing.T) {
	sel, err := pick("")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sel {
		if s.namedOnly {
			t.Errorf("default selection includes named-only %q", s.key)
		}
	}
	if want := strings.Count(keys(false), ",") + 1; len(sel) != want {
		t.Errorf("default selection has %d scenarios, want %d", len(sel), want)
	}

	sel, err = pick(" table4 ,flood,table4")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].key != "flood" || sel[1].key != "table4" {
		t.Errorf("picked %+v, want flood then table4", sel)
	}
}

// TestTraceWithoutOnlyRunsOnlyTheDemo: -trace alone prints the span
// tree and starts no scenario (CI's trace smoke relies on this instead
// of the old `-only none`).
func TestTraceWithoutOnlyRunsOnlyTheDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced 64-node simulated join")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "\n### "); n != 1 {
		t.Errorf("-trace alone printed %d sections, want only the trace demo:\n%s", n, stdout.String())
	}
}
