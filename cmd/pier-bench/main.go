// pier-bench regenerates every table and figure of the paper's
// evaluation (§5), plus this repo's own experiments and ablations, and
// prints them as text tables. By default it runs the scaled-down
// configurations (minutes); -full restores paper scale (n = 1024 ..
// 10,000 — hours). It is the only runner of internal/experiments and
// -full is the only scale knob; performance claims are judged by the
// benchmark in benchmark/ (BENCHMARK.json), not here.
//
// The scenarios are one table (see scenarios): -only selects a subset
// by key, and an unknown key is an error (exit 2), never a silent
// no-op. The chaos scenarios (chaos, rangechaos, flood) run the
// pinned-seed fault-injection harness and simscale checks the
// simulator's heap-per-node budget; each exits non-zero when its gate
// fails, so CI can gate on it. -seed replays a different fault
// schedule. -trace runs one traced join and prints its EXPLAIN TRACE
// span tree; given without -only it runs nothing else.
//
// Usage:
//
//	pier-bench [-full] [-only adaptive,chaos,fig3,table4,...] [-trace] [-seed N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"pier/internal/chaos"
	"pier/internal/experiments"
)

// params is what a scenario gets from the command line.
type params struct {
	full bool
	seed int64
	out  io.Writer
}

// scenario is one row of the table that the -only help text, key
// validation and dispatch are all derived from.
type scenario struct {
	key, label string
	// namedOnly scenarios run only when -only names them: the chaos
	// gates have an exit-1 path and the scale scenarios build 100k+
	// node simulations (gigabyte-class heaps, minutes of wall clock),
	// so neither belongs in the no-flag / -full figure sweeps.
	namedOnly bool
	// run prints the scenario's tables to p.out; a non-nil error is a
	// failed gate and makes pier-bench exit 1 once every selected
	// scenario has run.
	run func(p params) error
}

// print renders a scenario's tables; it returns nil so a scenario with
// no gate can end on it.
func (p params) print(tbls ...*experiments.Table) error {
	for _, t := range tbls {
		t.Print(p.out)
	}
	return nil
}

// chaosGate adapts a pinned-seed chaos scenario: print the report, fail
// on any violated invariant.
func chaosGate(f func(seed int64, full bool) *chaos.Report) func(params) error {
	return func(p params) error {
		rep := f(p.seed, p.full)
		rep.Print(p.out)
		if !rep.AllPass() {
			return errors.New("chaos invariants failed")
		}
		return nil
	}
}

// scenarios lists every experiment in execution order.
var scenarios = []scenario{
	{"chaos", "Chaos harness — pinned-seed fault-injection scenario", true,
		chaosGate(experiments.ChaosScenario)},
	{"rangechaos", "Chaos harness — pinned-seed scenario with PHT range queries", true,
		chaosGate(experiments.RangeChaosScenario)},
	{"flood", "Chaos harness — publish flood against quota-bounded storage", true,
		chaosGate(experiments.FloodScenario)},
	{"churn", "Chaos churn matrix — recall vs churn with rejoin", true, func(p params) error {
		return p.print(experiments.ChurnMatrix(experiments.DefaultChurnMatrix(p.full)))
	}},
	{"simscale", "Simulation core at scale — heap per node and event throughput", true, func(p params) error {
		tbl, err := experiments.SimScale(experiments.DefaultSimScale(p.full))
		p.print(tbl)
		return err
	}},
	{"fig3xl", "Figure 3 at n=100k — scalability beyond paper scale", true, func(p params) error {
		return p.print(experiments.Scalability(experiments.XLScalability()))
	}},
	{"churnxl", "Churn matrix point at n=100k", true, func(p params) error {
		return p.print(experiments.ChurnMatrix(experiments.XLChurnMatrix(p.seed)))
	}},
	{"adaptive", "Adaptive planner vs fixed join strategies", false, func(p params) error {
		_, tbl := experiments.Adaptive(experiments.DefaultAdaptive(p.full))
		return p.print(tbl)
	}},
	{"incast", "Initiator incast — per-tuple vs batched+credit result delivery", false, func(p params) error {
		_, tbl := experiments.Incast(experiments.DefaultIncast(p.full))
		return p.print(tbl)
	}},
	{"range", "Range selectivity — PHT index scan vs multicast full scan", false, func(p params) error {
		_, tbl := experiments.RangeSelectivity(experiments.DefaultRangeSel(p.full))
		return p.print(tbl)
	}},
	{"s53", "Section 5.3 — centralized vs distributed", false, func(p params) error {
		return p.print(experiments.CentralizedVsDistributed(experiments.DefaultCentralized(p.full)))
	}},
	{"fig3", "Figure 3 — scalability, fully connected topology", false, func(p params) error {
		return p.print(experiments.Scalability(experiments.DefaultScalability(p.full)))
	}},
	{"table4", "Table 4 — join strategies, infinite bandwidth", false, func(p params) error {
		return p.print(experiments.Table4(experiments.DefaultTable4(p.full)))
	}},
	{"fig45", "Figures 4 & 5 — traffic and latency vs selectivity", false, func(p params) error {
		fig4, fig5 := experiments.Selectivity(experiments.DefaultSelectivity(p.full))
		return p.print(fig4, fig5)
	}},
	{"fig6", "Figure 6 — recall under churn", false, func(p params) error {
		return p.print(experiments.Recall(experiments.DefaultRecall(p.full)))
	}},
	{"fig7", "Figure 7 — scalability, transit-stub topology", false, func(p params) error {
		cfg := experiments.DefaultScalability(p.full)
		cfg.TransitStub = true
		cfg.ComputeSeries = []int{1, 0} // the paper plots 1 and N
		return p.print(experiments.Scalability(cfg))
	}},
	{"fig8", "Figure 8 — real deployment over loopback TCP", false, func(p params) error {
		return p.print(experiments.Cluster(experiments.DefaultCluster(p.full)))
	}},
	{"candims", "Ablation — CAN dimensionality", false, func(p params) error {
		n := 256
		if p.full {
			n = 1024
		}
		return p.print(experiments.CANDims(n, []int{2, 3, 4, 6}, 300, 9))
	}},
	{"chord", "Ablation — CAN vs Chord", false, func(p params) error {
		n, s := 128, 256
		if p.full {
			n, s = 1024, 1024
		}
		return p.print(experiments.ChordVsCAN(n, s, 17))
	}},
	{"hieragg", "Ablation — flat vs hierarchical aggregation (§7)", false, func(p params) error {
		n, rows := 128, 1280
		if p.full {
			n, rows = 1024, 10240
		}
		return p.print(experiments.HierarchicalAgg(n, rows, []int{0, 4, 16}, 29))
	}},
	{"joinmodel", "Join strategies at one operating point (§5.5.1)", false, func(p params) error {
		return p.print(experiments.StrategyTraffic(64, 200, 23))
	}},
}

// keys returns the comma-joined keys of the named-only or the default
// scenarios, in table order.
func keys(namedOnly bool) string {
	var ks []string
	for _, s := range scenarios {
		if s.namedOnly == namedOnly {
			ks = append(ks, s.key)
		}
	}
	return strings.Join(ks, ",")
}

// pick resolves an -only value against the table: no keys selects
// every scenario that is not namedOnly; a key the table does not hold
// is an error.
func pick(only string) ([]scenario, error) {
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}
	all := len(want) == 0
	var sel []scenario
	for _, s := range scenarios {
		if want[s.key] || (all && !s.namedOnly) {
			sel = append(sel, s)
		}
		delete(want, s.key)
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for k := range want {
			unknown = append(unknown, k)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown -only key(s) %s; valid keys: %s,%s",
			strings.Join(unknown, ","), keys(false), keys(true))
	}
	return sel, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns
// the exit code: 0, 1 when a gate failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pier-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "paper-scale runs (slow)")
	only := fs.String("only", "", "comma-separated subset: "+keys(false)+"; "+keys(true)+" run only when named here")
	seed := fs.Int64("seed", 1, "seed for the chaos scenarios (replays the exact fault schedule)")
	traceDemo := fs.Bool("trace", false,
		"run one traced simulated join and print its EXPLAIN TRACE span tree; without -only, nothing else runs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, err := pick(*only)
	if err != nil {
		fmt.Fprintf(stderr, "pier-bench: %v\n", err)
		return 2
	}
	p := params{full: *full, seed: *seed, out: stdout}

	if *traceDemo {
		if *only == "" {
			selected = nil
		}
		fmt.Fprintln(stdout, "\n### Distributed query trace — EXPLAIN TRACE over a simulated join")
		out, err := experiments.TraceDemo(p.seed, p.full)
		if err != nil {
			fmt.Fprintf(stderr, "pier-bench: trace demo: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, out)
	}

	code := 0
	for _, s := range selected {
		start := time.Now()
		fmt.Fprintf(stdout, "\n### %s (%s)\n", s.label, s.key)
		if err := s.run(p); err != nil {
			fmt.Fprintf(stderr, "pier-bench: %s: %v\n", s.key, err)
			code = 1
		}
		fmt.Fprintf(stdout, "    [%s took %v]\n", s.key, time.Since(start).Round(time.Millisecond))
	}
	return code
}
