package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"pier"
	"pier/internal/env"
)

type linkStats = env.LinkStats

// fleet is a deployment of RealNodes over loopback TCP inside the
// benchmark's process.
type fleet struct {
	nodes []*pier.RealNode
}

// fleetSeed fixes the nodes' identities (CAN join points, query ids):
// the deployment is configuration, only the inputs follow -seed.
const fleetSeed = 7001

// startFleet starts n nodes, each joining through the first, and waits
// until all are overlay members.
func startFleet(n int, opts pier.Options) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		landmark := env.NilAddr
		if i > 0 {
			landmark = f.nodes[0].Addr()
		}
		nd, err := pier.StartNode("127.0.0.1:0", landmark, fleetSeed+int64(i), opts)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, nd)
		if err := nd.WaitJoin(15 * time.Second); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, nd := range f.nodes {
		nd.Close()
	}
}

// stored sums the items held across the fleet.
func (f *fleet) stored() int {
	total := 0
	for _, nd := range f.nodes {
		nd := nd
		nd.Do(func() { total += nd.Provider().Store().TotalLen() })
	}
	return total
}

// link sums the transport counters across the fleet.
func (f *fleet) link() env.LinkStats {
	var t env.LinkStats
	for _, nd := range f.nodes {
		s, _ := nd.TransportStats()
		t.FramesSent += s.FramesSent
		t.BatchesSent += s.BatchesSent
		t.BytesSent += s.BytesSent
		t.FramesRecv += s.FramesRecv
		t.BytesRecv += s.BytesRecv
		t.Drops += s.Drops
	}
	return t
}

// queryStats sums the engines' result-channel counters.
func (f *fleet) queryStats() pier.QueryStats {
	out := make([]pier.QueryStats, len(f.nodes))
	for i, nd := range f.nodes {
		out[i] = nd.QueryStats()
	}
	return sumQueryStats(out)
}

func (f *fleet) storageStats() []pier.StorageStats {
	out := make([]pier.StorageStats, len(f.nodes))
	for i, nd := range f.nodes {
		out[i] = nd.StorageStats()
	}
	return out
}

// loadChunk is how many tuples are published before the loader waits
// for the stores to absorb them: puts are fire-and-forget and the
// transport drops frames beyond a peer's 1024-frame outbox, so a chunk
// spread over four publishers must stay well under it.
const loadChunk = 1024

// bulkLoad publishes rows through Session.Publish, round-robin over the
// nodes, chunk by chunk, each chunk confirmed stored before the next.
func (f *fleet) bulkLoad(table string, n int, row func(i int) *pier.Tuple, lifetime time.Duration) error {
	base := f.stored()
	deadline := time.Now().Add(60 * time.Second)
	for off := 0; off < n; off += loadChunk {
		end := off + loadChunk
		if end > n {
			end = n
		}
		for i := off; i < end; i++ {
			f.nodes[i%len(f.nodes)].Publish(table, strconv.Itoa(i), int64(i), row(i), lifetime)
		}
		for f.stored() < base+end {
			if time.Now().After(deadline) {
				return fmt.Errorf("bulk load of %s: %d of %d tuples stored after 60s", table, f.stored()-base, n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// scanResult is what one streamed query delivered, as seen by the
// client: counts kept with atomics because result callbacks run on the
// engine's dispatch goroutines.
type scanResult struct {
	start    time.Time
	firstNs  atomic.Int64 // since start
	lastNs   atomic.Int64
	distinct atomic.Int64 // expected tuples seen once
	wrong    atomic.Int64 // unexpected, malformed or duplicate tuples
	done     chan struct{}
	want     int64
}

func newScanResult(want int) *scanResult {
	return &scanResult{want: int64(want), done: make(chan struct{}, 1)}
}

// deliver accounts one result tuple; ok says whether the reference
// expects it and it is new.
func (r *scanResult) deliver(ok bool) {
	ns := int64(time.Since(r.start))
	r.firstNs.CompareAndSwap(0, ns)
	if !ok {
		r.wrong.Add(1)
		return
	}
	r.lastNs.Store(ns)
	if r.distinct.Add(1) == r.want {
		select {
		case r.done <- struct{}{}:
		default:
		}
	}
}

// wait blocks until the last expected tuple arrived or the timeout
// passed, reporting which.
func (r *scanResult) wait(timeout time.Duration) bool {
	if r.want == 0 {
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-r.done:
		return true
	case <-t.C:
		return false
	}
}

// queryTimeout fails an op whose last expected tuple has not arrived.
const queryTimeout = 30 * time.Second

// streamQuery runs one query from node to its last expected tuple,
// then cancels it. submit starts the query with the given result
// callback; check says whether the reference expects a tuple (and has
// not seen it yet). The client spans are written after the fact from
// the recorded instants, so tracing adds nothing to the measured path.
func streamQuery(node *pier.RealNode, tr *tracer, op, want int,
	submit func(fn pier.ResultFunc) (uint64, error), check func(*pier.Tuple) bool) (*scanResult, uint64, error) {
	res := newScanResult(want)
	res.start = time.Now()
	id, err := submit(func(t *pier.Tuple, _ int) { res.deliver(check(t)) })
	submitted := time.Now()
	if err != nil {
		return res, 0, err
	}
	complete := res.wait(queryTimeout)
	node.Cancel(id)
	end := time.Now()
	if !complete {
		err = fmt.Errorf("query %d: %d of %d expected tuples after %v", op, res.distinct.Load(), want, queryTimeout)
	}
	if tr != nil {
		first := res.start.Add(time.Duration(res.firstNs.Load()))
		if first.Before(submitted) {
			first = submitted
		}
		q := tr.add("client.query", res.start, end, -1, op)
		tr.add("client.query.submit", res.start, submitted, q, op)
		tr.add("client.query.first", submitted, first, q, op)
		tr.add("client.query.drain", first, end, q, op)
	}
	return res, id, err
}

// linkLayer reports the transport counters of the timed phase.
func linkLayer(c *runCtx, a, b linkStats) {
	frames := float64(b.FramesSent - a.FramesSent)
	c.set("realnet.frames_per_batch", frames/float64(b.BatchesSent-a.BatchesSent))
	c.set("realnet.bytes_per_frame", float64(b.BytesSent-a.BytesSent)/frames)
	c.set("realnet.drops", float64(b.Drops-a.Drops))
}
