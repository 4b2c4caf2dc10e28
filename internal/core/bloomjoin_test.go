package core

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht"
	"pier/internal/dht/storage"
	"pier/internal/env"
)

// bloomRun runs a Bloom join of R and S on column 0 over a 32-node
// harness: every third key has rows on both sides, the rest on one.
// plant runs right after submission, before the network does. It
// returns the joined keys with their multiplicity, how many filter
// multicasts each node received per side, and the engines' summed
// collector counters.
func bloomRun(t *testing.T, wait time.Duration, plant func(h *harness, id uint64)) (rows map[string]int, dists [][2]int, qs QueryStats) {
	t.Helper()
	h := newHarness(32, 61, DefaultConfig())
	for i := 0; i < 90; i++ {
		if i%3 != 2 {
			h.load("R", fmt.Sprint(i), int64(i), &Tuple{Rel: "R", Vals: []Value{int64(i), "r"}})
		}
		if i%3 != 1 {
			h.load("S", fmt.Sprint(i), int64(i), &Tuple{Rel: "S", Vals: []Value{int64(i), "s"}})
		}
	}
	dists = make([][2]int, len(h.provs))
	for i, p := range h.provs {
		i := i
		p.OnMulticast(func(_ env.Addr, _ string, payload env.Message) {
			if m, ok := payload.(*bloomDist); ok {
				dists[i][m.Side]++
			}
		})
	}
	plan := &Plan{
		Tables: []TableRef{
			{NS: "R", JoinCols: []int{0}, RIDCol: 0},
			{NS: "S", JoinCols: []int{0}, RIDCol: 0},
		},
		Strategy:  BloomJoin,
		TTL:       time.Minute,
		BloomWait: wait,
	}
	rows = map[string]int{}
	id, err := h.engines[0].Run(plan, func(tu *Tuple, _ int) { rows[fmt.Sprint(tu.Vals[0])]++ })
	if err != nil {
		t.Fatal(err)
	}
	if plant != nil {
		plant(h, id)
	}
	h.net.RunFor(30 * time.Second)
	for _, eng := range h.engines {
		s := eng.QueryStats()
		qs.BloomComplete += s.BloomComplete
		qs.BloomLateFilters += s.BloomLateFilters
		qs.BloomOvercovered += s.BloomOvercovered
	}
	return rows, dists, qs
}

// wantRows fails the test unless rows holds each joining key once.
func wantRows(t *testing.T, rows map[string]int) {
	t.Helper()
	if len(rows) != 30 {
		t.Fatalf("join answered %d of 30 keys", len(rows))
	}
	for i := 0; i < 90; i += 3 {
		if n := rows[fmt.Sprint(i)]; n != 1 {
			t.Fatalf("key %d answered %d times", i, n)
		}
	}
}

// TestBloomCollectorEmitsAtMostTwice: a collector multicasts its
// combined filter once when the key space is covered before the wait.
// When the wait comes first it multicasts what it has then, and once
// more on coverage: never more than twice.
func TestBloomCollectorEmitsAtMostTwice(t *testing.T) {
	for _, c := range []struct {
		wait  time.Duration
		emits int
	}{{5 * time.Second, 1}, {300 * time.Millisecond, 2}, {time.Millisecond, 2}} {
		rows, dists, qs := bloomRun(t, c.wait, nil)
		wantRows(t, rows)
		for i, d := range dists {
			if d != [2]int{c.emits, c.emits} {
				t.Fatalf("wait %v: node %d received %v filter multicasts per side, want %d", c.wait, i, d, c.emits)
			}
		}
		if qs.BloomComplete != 2 || qs.BloomOvercovered != 0 {
			t.Fatalf("wait %v: collector counters %+v, want both sides complete", c.wait, qs)
		}
	}
}

// TestBloomForgedShareCannotLoseRows plants a whole-space share with no
// filter at both collectors before any real contribution. It completes
// coverage at once, so each collector multicasts an empty filter
// early; the real filters arrive after it, push the sum past the whole
// space, and go out at BloomWait. The answer is still the reference,
// each row once.
func TestBloomForgedShareCannotLoseRows(t *testing.T) {
	rows, dists, qs := bloomRun(t, 3*time.Second, func(h *harness, id uint64) {
		for side := 0; side < 2; side++ {
			ns := tempNamespaces(id)[nsBloom0+side]
			h.provs[h.sm.OwnerOf(ns, bloomRID)].StoreLocal(&storage.Item{
				Namespace: ns, ResourceID: bloomRID, InstanceID: -1,
				Payload: &bloomPut{Side: side, Share: dht.WholeSpace},
			})
		}
	})
	wantRows(t, rows)
	for i, d := range dists {
		if d != [2]int{2, 2} {
			t.Fatalf("node %d received %v filter multicasts, want the forged emission and BloomWait's", i, d)
		}
	}
	if qs.BloomComplete != 2 || qs.BloomOvercovered != 2 || qs.BloomLateFilters == 0 {
		t.Fatalf("collector counters %+v, want two early emissions, two overcovered collectors and late filters", qs)
	}
}
