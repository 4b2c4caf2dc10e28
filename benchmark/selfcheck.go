package main

import (
	"fmt"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the driver's measure).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// runSelfcheck rehearses the driver's acceptance test on this binary:
// every workload as two sets of runs, each run of a set with another
// seed and both sets over the same seeds, and per workload and
// end-to-end metric the two medians, their quartile spreads and the
// bound. It fails when
//
//   - the second median is worse than the first by more than the bound,
//   - a spread is wider than the bound (setup_s excepted, as the driver
//     excepts it), or
//   - on a sim-* workload a metric that depends only on the protocol
//     differs at all between the two runs of one seed,
//
// and marks as "noisy" a spread over half the bound: such a metric
// needs a larger sample, not a wider bound.
func runSelfcheck(seed int64, seconds float64, scale string, runs int) bool {
	ok := true
	fmt.Printf("%-10s %-22s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := child(w.Name, seed+int64(i), seconds, scale, 0)
				if err != nil {
					fatal(err)
				}
				if !res.Correct {
					fmt.Printf("%-10s seed %d: %d of %d ops failed\n", w.Name, seed+int64(i), res.Failed, res.Attempted)
					ok = false
				}
				for n, v := range res.Metrics {
					sets[s][n] = append(sets[s][n], v.Value)
				}
			}
		}
		exact := map[string]bool{}
		if w.sim {
			for _, n := range simExact {
				exact[n] = true
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			wide := sa
			if sb > wide {
				wide = sb
			}
			bound := fmt.Sprintf("%.1f%%", d.Bound*100)
			verdict := "ok"
			switch {
			case exact[d.Name] && fmt.Sprint(a) != fmt.Sprint(b):
				verdict = "FAIL: same-seed simulated metric differs"
			case worse > d.Bound:
				verdict = fmt.Sprintf("FAIL: second median %.1f%% worse", worse*100)
			case d.Name != "setup_s" && wide > d.Bound:
				verdict = fmt.Sprintf("FAIL: spread %.1f%% over the bound", wide*100)
			case d.Name != "setup_s" && wide > d.Bound/2:
				verdict = "ok, noisy"
			}
			if exact[d.Name] {
				bound = "exact"
			}
			if verdict[:2] != "ok" {
				ok = false
			}
			fmt.Printf("%-10s %-22s %14.6g %14.6g %8.2f%% %8.2f%% %7s  %s\n",
				w.Name, d.Name, ma, mb, sa*100, sb*100, bound, verdict)
		}
	}
	return ok
}
