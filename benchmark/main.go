// Command benchmark is PIER's one committed benchmark: four closed-loop,
// fixed-work workloads, eleven end-to-end metrics per workload, and a
// traced run that attributes them to layers. README.md in this
// directory defines every name; BENCHMARK.json at the repository root
// is the contract the driver runs it by.
//
//	go run . -workload tcp-scan -seed 3            end-to-end metrics
//	go run . -workload tcp-scan -seed 3 -trace 1   per-layer metrics
//	go run . -seed 3                               all workloads, each in a child process
//	go run . -selfcheck                            two sets of runs, compared within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: sim-join, sim-scale, tcp-scan, tcp-mixed (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", runSeconds, "how much timed work to do, in seconds on the reference machine")
		trace     = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
		scale     = flag.String("scale", "full", "full or smoke (small deployments, for the test)")
		jsonOut   = flag.String("json", "", "also write the result object to this file")
		spansOut  = flag.String("spans", "", "traced run: write the client spans to this file at exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload as two sets of -runs runs and compare the sets within the bounds")
		runs      = flag.Int("runs", 3, "-selfcheck: runs per set (the driver makes ten)")
		printSpec = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the registry defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("-scale must be full or smoke, not %q", *scale))
	}
	switch {
	case *printSpec:
		os.Stdout.Write(benchmarkJSON())
	case *selfcheck:
		if !runSelfcheck(*seed, *seconds, *scale, *runs) {
			os.Exit(1)
		}
	case *workload == "":
		runAll(*seed, *seconds, *scale, *trace)
	default:
		runtime.GOMAXPROCS(procs())
		res, spans, err := runWorkload(*workload, *seed, *seconds, *scale == "smoke", *trace == 1, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, _ := json.Marshal(res)
		if *jsonOut != "" {
			if err := os.WriteFile(*jsonOut, append(line, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if *spansOut != "" && spans != nil {
			b, _ := json.Marshal(spans)
			if err := os.WriteFile(*spansOut, b, 0o644); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(2)
		}
	}
}

// procs caps the scheduler at min(nproc, 4), so a bigger host does not
// change how the fleet's goroutines interleave more than it must.
func procs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// runWorkload runs one workload in this process and returns its result
// object: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one.
func runWorkload(name string, seed int64, seconds float64, smoke, traced bool, human *os.File) (*result, []span, error) {
	var wd *workloadDef
	for i := range workloads {
		if workloads[i].Name == name {
			wd = &workloads[i]
		}
	}
	if wd == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	c := newRunCtx(seed, seconds, smoke, traced)
	o := wd.run(c)
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, o.endToEndValues(c)
	if traced {
		c.set("setup.publish_tuples_per_s", float64(o.published)/o.load.Seconds())
		defs, values = perLayer, c.layer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	if human != nil {
		fmt.Fprintf(human, "# %s seed=%d seconds=%g trace=%v: %d ops in %d segments, timed phase %.2fs, %d failed\n",
			name, seed, seconds, traced, o.attempted, len(o.segs), o.wall.Seconds(), o.failed)
		if o.firstError != "" {
			fmt.Fprintf(human, "# first failure: %s\n", o.firstError)
		}
		fmt.Fprintf(human, "# set-up: %.3fs, of which %d tuples published in %.3fs\n", o.setup.Seconds(), o.published, o.load.Seconds())
		for i, s := range o.segs {
			fmt.Fprintf(human, "# segment %d: %.3fs wall, %.3fs cpu, %d ops, %d result tuples, %d events\n", i, s.wall.Seconds(), s.cpu.Seconds(), s.ops, s.tuples, s.events)
		}
		for _, d := range defs {
			n := ""
			if k, ok := c.samples[d.Name]; ok {
				n = fmt.Sprintf("  n=%d", k)
			}
			fmt.Fprintf(human, "%-36s %16.6g %-6s%s\n", d.Name, values[d.Name], d.Unit, n)
		}
	}
	return res, c.spans, nil
}

// child re-executes this binary for one workload run and parses the
// result object off its last line of output. Each run gets a process of
// its own so heap, GC state and goroutines never leak between runs.
func child(workload string, seed int64, seconds float64, scale string, trace int) (*result, error) {
	cmd := exec.Command(os.Args[0], "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", scale, "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	last := out
	for i := len(out) - 2; i >= 0; i-- {
		if out[i] == '\n' {
			last = out[i+1:]
			break
		}
	}
	res := &result{}
	if err := json.Unmarshal(last, res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

// runAll runs every workload once, each in a child process, and prints
// every metric by name with its unit.
func runAll(seed int64, seconds float64, scale string, trace int) {
	ok := true
	for _, w := range workloads {
		res, err := child(w.Name, seed, seconds, scale, trace)
		if err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("# %s seed=%d: attempted=%d failed=%d correct=%v\n", w.Name, seed, res.Attempted, res.Failed, res.Correct)
		for _, n := range names {
			fmt.Printf("%-10s %-36s %16.6g %s\n", w.Name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	if !ok {
		os.Exit(2)
	}
}

// benchmarkJSON renders BENCHMARK.json from the registry.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(spec, "", "  ")
	return append(b, '\n')
}
