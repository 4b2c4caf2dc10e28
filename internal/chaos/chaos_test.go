package chaos

import (
	"os"
	"testing"
	"time"

	"pier"
)

// TestBuildScheduleDeterministic pins the schedule generator: the same
// config yields the identical event list.
func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := Default(42).Norm()
	a, b := BuildSchedule(cfg), BuildSchedule(cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Sorted by time.
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not time-sorted at %d", i)
		}
	}
	// The default scenario has churn, a partition window, and a burst.
	kinds := map[EventKind]int{}
	for _, ev := range a {
		kinds[ev.Kind]++
	}
	if kinds[EvCrash]+kinds[EvLeave] == 0 || kinds[EvPartitionStart] != 1 || kinds[EvLossStart] != 1 {
		t.Fatalf("unexpected event mix: %v", kinds)
	}
}

// TestScheduleWindowValidation pins the config guards: same-type
// windows must not overlap or extend past the active phase, and
// back-to-back windows must execute End before Start at the shared
// instant so they compose.
func TestScheduleWindowValidation(t *testing.T) {
	base := Config{Queries: 4, QueryEvery: time.Minute}.Norm() // 4 min active phase

	mustPanic := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid schedule accepted")
				}
			}()
			BuildSchedule(cfg)
		})
	}
	overlapping := base
	overlapping.Partitions = []PartitionWindow{
		{Start: 0, Duration: 2 * time.Minute, Frac: 0.2},
		{Start: time.Minute, Duration: 2 * time.Minute, Frac: 0.2},
	}
	mustPanic("overlapping partitions", overlapping)

	pastEnd := base
	pastEnd.LossBursts = []LossBurst{{Start: 3 * time.Minute, Duration: 2 * time.Minute, Prob: 0.1}}
	mustPanic("loss burst past active phase", pastEnd)

	adjacent := base
	adjacent.Partitions = []PartitionWindow{
		{Start: 0, Duration: time.Minute, Frac: 0.2},
		{Start: time.Minute, Duration: time.Minute, Frac: 0.3},
	}
	evs := BuildSchedule(adjacent)
	var atBoundary []EventKind
	for _, ev := range evs {
		if ev.At == time.Minute {
			atBoundary = append(atBoundary, ev.Kind)
		}
	}
	if len(atBoundary) != 2 || atBoundary[0] != EvPartitionEnd || atBoundary[1] != EvPartitionStart {
		t.Fatalf("adjacent windows must run End before Start at the boundary, got %v", atBoundary)
	}
}

func TestGenerateQueriesDeterministicAndMixed(t *testing.T) {
	a, b := GenerateQueriesMix(16, 7, false), GenerateQueriesMix(16, 7, false)
	kinds := map[QueryKind]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs across generations", i)
		}
		kinds[a[i].Kind]++
	}
	for _, k := range []QueryKind{QSelect, QJoin, QAggregate, QContinuous} {
		if kinds[k] == 0 {
			t.Errorf("no %v queries in a 16-query mix", k)
		}
	}
	if c := GenerateQueriesMix(16, 8, false); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] && c[3] == a[3] {
		t.Error("different seeds produced the same prefix")
	}
}

// pinned asserts a seed-1 scenario's trace fingerprint: the invariants
// say the run was acceptable, the fingerprint says it was this run. A
// protocol change re-pins it once, with the reason, and EXPERIMENTS.md
// keeps the history; a change that claims to move no message must leave
// it alone. The harness runs the engine at its own result-flush and
// credit-refresh constants, so the pins move with them.
func pinned(t *testing.T, rep *Report, want uint64) {
	t.Helper()
	if rep.TraceHash != want {
		t.Errorf("trace fingerprint %016x, want %016x: the seed-1 run changed", rep.TraceHash, want)
	}
}

// TestChaosPinnedSeed is the acceptance scenario: ≥64 nodes under
// churn, one partition window, and 1% link loss, running the full
// query mix. Every invariant must hold — including the replay
// determinism check, which re-runs the faulted scenario and compares
// trace fingerprints.
func TestChaosPinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos scenario is slow")
	}
	rep := Run(Default(1))
	rep.Print(os.Stderr)
	// Re-pinned when requests began reusing answered nonces: lookups
	// and gets past a node's 127th keep one-byte nonces, so the bytes
	// and arrival times of later messages changed.
	pinned(t, rep, 0xe6095db69b76d8a3)
	for _, iv := range rep.Failed() {
		t.Errorf("invariant %s failed: %s", iv.Name, iv.Detail)
	}
	if rep.Stats.Messages == 0 || rep.Stats.LostLoss == 0 || rep.Stats.LostPartition == 0 {
		t.Errorf("scenario exercised no faults: %+v", rep.Stats)
	}
	if len(rep.PerQueryRecall) != rep.Cfg.Queries {
		t.Errorf("recall recorded for %d/%d queries", len(rep.PerQueryRecall), rep.Cfg.Queries)
	}
}

// TestChaosTracedPinnedSeed runs a pinned-seed loss/churn scenario
// with distributed tracing forced on every query. All invariants must
// hold — including bit-for-bit replay determinism, proving the tracing
// path draws no extra randomness and shifts no schedules — plus the
// tracing invariant: every accepted query leaves a finished, non-empty
// retained trace on the driver.
func TestChaosTracedPinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos scenario is slow")
	}
	cfg := Config{
		Nodes:         48,
		Seed:          5,
		CrashesPerMin: 3,
		GracefulFrac:  0.3,
		LossBursts:    []LossBurst{{Start: 90 * time.Second, Duration: 30 * time.Second, Prob: 0.05}},
		BaseLoss:      0.01,
		STuples:       80,
		Queries:       6,
		QueryEvery:    45 * time.Second,
		RecallFloor:   0.4,
		TraceQueries:  true,
		VerifyReplay:  true,
	}
	rep := Run(cfg)
	rep.Print(os.Stderr)
	for _, iv := range rep.Failed() {
		t.Errorf("invariant %s failed: %s", iv.Name, iv.Detail)
	}
	found := false
	for _, iv := range rep.Invariants {
		if iv.Name == "traced-queries-leave-traces" {
			found = true
		}
	}
	if !found {
		t.Error("traced scenario reported no tracing invariant")
	}
}

// TestChaosFloodPinnedSeed is the flood-pressure acceptance scenario:
// a publish flood into a few hot keys against quota-bounded nodes,
// compared to an unbounded oracle of the same seed. The quota must
// hold at every probe, the backpressure protocol must engage, the
// bounded run may only be missing results it evicted or dropped, and
// the whole schedule — deterministic throttle backoffs included —
// must replay bit-for-bit.
func TestChaosFloodPinnedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run chaos scenario is slow")
	}
	rep := Run(DefaultFlood(1))
	rep.Print(os.Stderr)
	// Re-pinned with the base scenario when requests began reusing
	// answered nonces: the flood keeps the same 144 results.
	pinned(t, rep, 0xd5bc6ce87f7b0019)
	for _, iv := range rep.Failed() {
		t.Errorf("invariant %s failed: %s", iv.Name, iv.Detail)
	}
	names := map[string]bool{}
	for _, iv := range rep.Invariants {
		names[iv.Name] = true
	}
	for _, want := range []string{"storage-within-budget", "flood-backpressure-engaged",
		"flood-recall-vs-evicted", "replay-deterministic"} {
		if !names[want] {
			t.Errorf("flood scenario reported no %s invariant", want)
		}
	}
	f := rep.Flood
	if f == nil {
		t.Fatal("flood scenario left no flood report")
	}
	if f.Evicted == 0 || f.Throttled == 0 {
		t.Errorf("flood never pressured storage: %+v", f)
	}
	if f.OracleLive == 0 || f.Matched >= f.OracleLive {
		t.Errorf("quota did not reduce the flood result set: kept %d of %d", f.Matched, f.OracleLive)
	}
	// What the retired BENCH_0.json flood record gated for seed 1, at
	// its 25% budget. Both numbers replay exactly per seed: the bounded
	// run keeps 144 flood results (floor 108) and the faulted run moves
	// 6 719 118 simulated bytes (ceiling 8 500 000). Re-pinned twice: in
	// PR 20, when the simulator began charging what the codec writes
	// (128 kept and 60 810 444 bytes under the hand-kept size model
	// before it), and in PR 21, when keepalives stopped carrying the
	// neighbor table (37 246 224 bytes, ceiling 46 500 000, before it).
	// Until the catalog stopped probing the overlay the run moved
	// 6 811 127 bytes, 70 726 of them the probe's lookups, and until
	// requests reused answered nonces 6 740 401.
	t.Logf("flood kept %d of %d oracle results; faulted run moved %d bytes", f.Matched, f.OracleLive, rep.Stats.Bytes)
	if f.Matched < 108 {
		t.Errorf("bounded run kept %d flood results, want >= 108", f.Matched)
	}
	if rep.Stats.Bytes > 8_500_000 {
		t.Errorf("faulted run moved %d bytes, want <= 8500000", rep.Stats.Bytes)
	}
	if len(rep.PerQueryRecall) != rep.Cfg.Queries+1 {
		t.Errorf("recall recorded for %d queries, want %d (mix + flood scan)",
			len(rep.PerQueryRecall), rep.Cfg.Queries+1)
	}
}

// TestChaosChordSmoke runs a lighter scenario over the Chord overlay:
// the harness must drive both DHTs.
func TestChaosChordSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenario is slow")
	}
	cfg := Config{
		Nodes:         32,
		Seed:          3,
		DHT:           pier.Chord,
		CrashesPerMin: 2,
		GracefulFrac:  0.5,
		BaseLoss:      0.005,
		STuples:       60,
		Queries:       4,
		QueryEvery:    45 * time.Second,
		RecallFloor:   0.3,
	}
	rep := Run(cfg)
	for _, iv := range rep.Failed() {
		t.Errorf("invariant %s failed: %s", iv.Name, iv.Detail)
	}
}
