package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pier"
)

// runSeconds is BENCHMARK.json's run_seconds, and -seconds' default.
const runSeconds = 20

// roundSeconds is what one round of any workload's op mix takes on the
// reference machine: a fifth of the default timed phase, so the default
// run has the five segments the wall-clock rates are the median of.
const roundSeconds = 4

// simSeed fixes the simulated deployments (CAN zones, node RNGs): the
// deployment is configuration, only the inputs follow -seed.
const simSeed = 1

// operatingOptions are the defaults plus event-driven expiry. Without
// it a node only filters expired items on access and never frees them,
// so every query's temporary state would stay on the heap for the rest
// of the run; a deployment that runs for long has to turn it on.
func operatingOptions() pier.Options {
	opts := pier.DefaultOptions()
	opts.ProviderConfig.ActiveExpiry = true
	return opts
}

// runCtx is what one workload run is given: its inputs' seed, how much
// work to time, and where the traced run's numbers go.
type runCtx struct {
	seed    int64
	seconds float64
	smoke   bool
	trace   bool
	tr      *tracer
	// layer collects per-layer metric values by name (traced runs
	// only); samples notes how many samples stand behind a median.
	layer   map[string]float64
	samples map[string]int
	// spans is every client span of a traced run, for -spans.
	spans []span
}

func (c *runCtx) set(name string, v float64) { c.layer[name] = v }

// rounds turns the requested measuring time into a fixed amount of
// work: whole rounds of the workload's op mix. Work is fixed by the
// flags alone, so two runs with the same flags do the same ops and a
// slower build takes longer.
func (c *runCtx) rounds() int {
	if c.smoke {
		return 2
	}
	r := int(math.Round(c.seconds / roundSeconds))
	if r < 3 {
		r = 3
	}
	return r
}

// newRunCtx makes the context of one run; a traced run gets the tracer
// its set-up spans go to.
func newRunCtx(seed int64, seconds float64, smoke, traced bool) *runCtx {
	c := &runCtx{seed: seed, seconds: seconds, smoke: smoke, trace: traced,
		layer: map[string]float64{}, samples: map[string]int{}}
	if traced {
		c.tr = newTracer(-1, time.Now())
	}
	return c
}

// reps scales a driver's repetition count down for the smoke test.
func (c *runCtx) reps(n int) int {
	if c.smoke {
		n /= 20
	}
	if n < 1 {
		n = 1
	}
	return n
}

// segment is one round of the timed phase: its wall and CPU time and
// what was completed in it. The wall-clock rates and the CPU cost per op
// are the median segment's, so one burst from a noisy neighbour cannot
// move them.
type segment struct {
	wall   time.Duration
	cpu    time.Duration // user+sys
	ops    int64
	tuples int64
	events int64
}

// outcome is everything the end-to-end metrics are computed from.
type outcome struct {
	nodes int
	// simClock marks ttft/ttlt as simulated time. Simulated latencies
	// are free of noise but quantised by the 100 ms hop latency, so
	// their median is the same number whatever the inputs; the mean
	// over the queries is reported in its place.
	simClock bool
	// setup runs from before the deployment is built until the tables
	// are confirmed stored, the index is built and the warm-up ops are
	// done; load is the bulk load inside it, of published tuples.
	setup, load time.Duration
	published   int
	// heapBefore is live heap before the deployment was built,
	// heapAfter after the timed phase; both after two GCs.
	heapBefore, heapAfter uint64

	segs       []segment
	wall       time.Duration // whole timed phase
	bytes      int64         // network bytes over the timed phase
	ttft, ttlt []float64     // ms, one per query
	attempted  int
	failed     int
	expected   int64 // result tuples the reference expects
	received   int64 // distinct expected result tuples received
	firstError string
}

// fail records an op whose answer differed from the reference.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.firstError == "" {
		o.firstError = fmt.Sprintf(format, args...)
	}
}

// endToEndValues derives the end-to-end metrics.
func (o *outcome) endToEndValues(c *runCtx) map[string]float64 {
	ops := float64(o.attempted)
	var tupRate, opRate, evRate, cpuMs []float64
	for _, s := range o.segs {
		w := s.wall.Seconds()
		tupRate = append(tupRate, float64(s.tuples)/w)
		opRate = append(opRate, float64(s.ops)/w)
		evRate = append(evRate, float64(s.events)/w)
		cpuMs = append(cpuMs, ms(s.cpu)/float64(s.ops))
	}
	c.samples["ttft_ms"] = len(o.ttft)
	c.samples["ttlt_ms"] = len(o.ttlt)
	for _, n := range []string{"result_tuples_per_s", "ops_per_s", "events_per_wall_s", "cpu_ms_per_op"} {
		c.samples[n] = len(o.segs)
	}
	center := median
	if o.simClock {
		center = mean
	}
	return map[string]float64{
		"setup_s":             o.setup.Seconds(),
		"ok_ops_share":        (ops - float64(o.failed)) / ops,
		"recall":              float64(o.received) / float64(o.expected),
		"ttft_ms":             center(o.ttft),
		"ttlt_ms":             center(o.ttlt),
		"traffic_kb_per_op":   float64(o.bytes) / 1e3 / ops,
		"result_tuples_per_s": median(tupRate),
		"ops_per_s":           median(opRate),
		"events_per_wall_s":   median(evRate),
		"cpu_ms_per_op":       median(cpuMs),
		"heap_bytes_per_node": (float64(o.heapAfter) - float64(o.heapBefore)) / float64(o.nodes),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLive settles the collector and returns live heap bytes.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeDelta reports allocation and GC activity between two
// MemStats readings as the runtime.* per-layer metrics.
func runtimeDelta(c *runCtx, before, after *runtime.MemStats, ops int) {
	c.set("runtime.alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(ops))
	c.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops))
	c.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
	c.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// quantile returns the q-quantile (0..1) of xs by nearest rank on a
// sorted copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// span is one client-side interval recorded by the harness around its
// own call into the system: the outside-in view of a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same client's spans, -1 for a root
	Op     int    `json:"op"`
	Client int    `json:"client"`
}

// tracer keeps spans in memory until the run ends. One tracer serves
// one client goroutine; a nil tracer records nothing, so the untraced
// run pays one nil check per span.
type tracer struct {
	t0     time.Time
	client int
	spans  []span
}

func newTracer(client int, t0 time.Time) *tracer { return &tracer{t0: t0, client: client} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op, Client: t.client})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a span whose instants were taken elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: parent, Op: op, Client: t.client})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// reportSpans turns the clients' spans into the span.* metrics and the
// share of the timed phase (clients x wall) their self times cover.
func reportSpans(c *runCtx, clients []*tracer, timedWall time.Duration) []span {
	all := append([]span(nil), c.tr.spans...)
	for name, d := range selfTimes(c.tr.spans) {
		c.layer["span."+name+".self_ms"] += ms(d)
	}
	covered := time.Duration(0)
	for _, t := range clients {
		for name, d := range selfTimes(t.spans) {
			c.layer["span."+name+".self_ms"] += ms(d)
			covered += d
		}
		all = append(all, t.spans...)
	}
	clientTime := timedWall * time.Duration(len(clients))
	c.set("client.span_coverage_share", float64(covered)/float64(clientTime))
	// All four workloads are closed loops, so no generator runs to a
	// schedule; what can delay the next op is the harness's own work
	// between spans, reported as the lag.
	c.set("client.generator_lag_ms", ms(clientTime-covered))
	return all
}
