package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesRegistry holds BENCHMARK.json and the binary
// to the same names: the file must be exactly what the registry renders.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the registry; regenerate it with `go run . -benchmark-json > ../BENCHMARK.json`")
	}
}

// TestRegistryWithinContract checks the limits the driver refuses a
// BENCHMARK.json over.
func TestRegistryWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v is larger than setup_s's", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// TestSmoke runs every workload small, untraced and traced, and checks
// that every named metric comes out once with its unit, that every op's
// answer matched the reference, and that no per-layer value is set
// under a name the registry does not know.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, _, err := runWorkload(w.Name, 1, 1, true, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: %s = %v %q (present: %v)", w.Name, d.Name, m.Value, m.Unit, ok)
			}
		}
		if res.Metrics["ok_ops_share"].Value != 1 || res.Metrics["recall"].Value != 1 {
			t.Errorf("%s: ok_ops_share %v, recall %v", w.Name, res.Metrics["ok_ops_share"].Value, res.Metrics["recall"].Value)
		}

		known := map[string]bool{}
		for _, d := range perLayer {
			known[d.Name] = true
		}
		c := newRunCtx(1, 1, true, true)
		if o := w.run(c); o.failed != 0 {
			t.Errorf("%s traced: %d ops failed: %s", w.Name, o.failed, o.firstError)
		}
		for n := range c.layer {
			if !known[n] {
				t.Errorf("%s: per-layer value set under unregistered name %q", w.Name, n)
			}
		}
		if cov := c.layer["client.span_coverage_share"]; cov < 0.9 || cov > 1.01 {
			t.Errorf("%s: client spans cover %.3f of the timed phase", w.Name, cov)
		}
	}
}

// TestSimJoinRepeatsExactly runs sim-join twice with one seed: the
// simulated-clock metrics and the event counts must be identical.
func TestSimJoinRepeatsExactly(t *testing.T) {
	run := func() (map[string]float64, []segment) {
		c := newRunCtx(5, 1, true, false)
		o := runSimJoin(c)
		return o.endToEndValues(c), o.segs
	}
	a, segA := run()
	b, segB := run()
	for _, n := range simExact {
		if a[n] != b[n] {
			t.Errorf("%s: %v then %v", n, a[n], b[n])
		}
	}
	for i := range segA {
		if segA[i].events != segB[i].events || segA[i].tuples != segB[i].tuples {
			t.Errorf("segment %d: %d events, %d tuples then %d events, %d tuples",
				i, segA[i].events, segA[i].tuples, segB[i].events, segB[i].tuples)
		}
	}
}
