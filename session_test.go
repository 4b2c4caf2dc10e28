package pier

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/topology"
)

// runSessionConformance drives one workflow through the Session surface:
// publish, schema registration and catalog lookup, a plan query with
// results, live-query listing, cancel semantics, DDL, and snapshot
// invariants. settle(d, cond) makes progress for up to d (virtual time
// in the simulator, wall clock over TCP) and reports whether cond held.
func runSessionConformance(t *testing.T, s Session, settle func(time.Duration, func() bool) bool) {
	t.Helper()

	if s.Addr() == env.NilAddr {
		t.Fatal("session has no address")
	}
	first := s.Snapshot()
	if first.Addr != string(s.Addr()) {
		t.Fatalf("snapshot addr %q != session addr %q", first.Addr, s.Addr())
	}

	// Publish a small table, then register its schema in the DHT catalog.
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		s.Publish("conf", k, int64(i+1), &Tuple{Rel: "conf", Vals: []Value{k, int64(i)}}, 10*time.Minute)
	}
	s.RegisterTable(SQLTable{Name: "conf", Cols: []string{"k", "v"}, Key: "k"}, 0)

	// The catalog put is async; retry the lookup until the schema lands.
	var schema atomic.Pointer[SQLTable]
	deadline := time.Now().Add(15 * time.Second)
	for schema.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("registered schema never became resolvable")
		}
		s.LookupTable("conf", func(tp *SQLTable) {
			if tp != nil {
				schema.Store(tp)
			}
		})
		settle(500*time.Millisecond, func() bool { return schema.Load() != nil })
	}
	if got := schema.Load(); got.Key != "k" || len(got.Cols) != 2 {
		t.Fatalf("catalog returned wrong schema: %+v", got)
	}

	// Let the published tuples finish landing before the query snapshots
	// the table.
	settle(2*time.Second, func() bool { return false })

	// Query through an explicit plan.
	cat := Catalog{"conf": *schema.Load()}
	plan, err := ParseSQL("SELECT k, v FROM conf", cat)
	if err != nil {
		t.Fatal(err)
	}
	plan.TTL = 10 * time.Minute
	var rows atomic.Int64
	id, err := s.Query(plan, func(*core.Tuple, int) { rows.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if !settle(20*time.Second, func() bool { return rows.Load() >= 4 }) {
		t.Fatalf("plan query returned %d/4 rows", rows.Load())
	}

	// The query is live: listed, cancellable exactly once.
	live := s.LiveQueries()
	found := false
	for _, q := range live {
		if q.ID == id {
			found = true
			if !q.Initiator {
				t.Fatalf("query %d listed without the initiator role: %+v", id, q)
			}
		}
	}
	if !found {
		t.Fatalf("live query %d not in listing %+v", id, live)
	}
	if !s.Cancel(id) {
		t.Fatalf("cancel of live query %d reported not found", id)
	}
	if s.Cancel(id) {
		t.Fatalf("second cancel of query %d reported found", id)
	}

	// The same query through the catalog-planning path.
	var (
		sqlID   atomic.Uint64
		sqlErr  atomic.Pointer[error]
		sqlDone atomic.Bool
		sqlRows atomic.Int64
	)
	s.QuerySQL("SELECT k, v FROM conf", []string{"conf"},
		func(*core.Tuple, int) { sqlRows.Add(1) },
		func(id uint64, err error) {
			sqlID.Store(id)
			if err != nil {
				sqlErr.Store(&err)
			}
			sqlDone.Store(true)
		})
	if !settle(20*time.Second, func() bool { return sqlDone.Load() }) {
		t.Fatal("QuerySQL never planned")
	}
	if ep := sqlErr.Load(); ep != nil {
		t.Fatalf("QuerySQL: %v", *ep)
	}
	if !settle(20*time.Second, func() bool { return sqlRows.Load() >= 4 }) {
		t.Fatalf("QuerySQL returned %d/4 rows", sqlRows.Load())
	}
	s.Cancel(sqlID.Load())

	// DDL through Exec, visible in the snapshot's index section.
	if err := s.Exec("CREATE INDEX conf_v ON conf (v)", cat); err != nil {
		t.Fatal(err)
	}
	if !settle(10*time.Second, func() bool {
		for _, ix := range s.Snapshot().Indexes {
			if ix.Name == "conf_v" && ix.Table == "conf" && ix.Col == "v" {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("CREATE INDEX never appeared in the snapshot: %+v", s.Snapshot().Indexes)
	}

	// Snapshot invariants: uptime advanced, monotone counters never
	// regressed, and the query work above was counted.
	last := s.Snapshot()
	if last.UptimeSeconds < first.UptimeSeconds {
		t.Fatalf("uptime went backwards: %v -> %v", first.UptimeSeconds, last.UptimeSeconds)
	}
	if last.Query.ResultTuples < first.Query.ResultTuples {
		t.Fatalf("result-tuple counter regressed: %v -> %v", first.Query.ResultTuples, last.Query.ResultTuples)
	}
	if !last.Ready {
		t.Fatal("node not ready after serving queries")
	}
}

// TestSessionConformanceSim runs the conformance workflow against a
// simulated *Node: same application code as the TCP deployment, with
// settle pumping the discrete-event network.
func TestSessionConformanceSim(t *testing.T) {
	sn := NewSimNetwork(4, topology.NewFullMeshInfinite(), 11, DefaultOptions())
	var s Session = sn.Nodes[0]
	runSessionConformance(t, s, func(d time.Duration, cond func() bool) bool {
		return sn.RunUntil(d, cond)
	})
}

// TestSessionConformanceReal runs the identical workflow against a
// *RealNode over loopback TCP, with settle polling wall clock.
func TestSessionConformanceReal(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a TCP cluster")
	}
	t.Parallel()
	nodes := startCluster(t, 3)
	var s Session = nodes[0]
	runSessionConformance(t, s, func(d time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(20 * time.Millisecond)
		}
		return cond()
	})
}
