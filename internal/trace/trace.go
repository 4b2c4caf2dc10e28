// Package trace is PIER's per-query distributed tracing layer.
//
// A traced query carries a trace flag in its dissemination multicast;
// every participating node then records span events — multicast
// arrival, executor start, scans, rehash puts, DHT gets, Bloom-join
// phases, result-batch flushes, credit stalls and grants — into a
// bounded per-executor Buffer. Buffers drain back to the query
// initiator piggybacked on the result channel's existing
// credit-windowed frames, so tracing can never cause its own incast:
// span delivery is throttled by exactly the flow control that throttles
// results. The initiator assembles the spans of all nodes into a Trace,
// ordered causally by timestamp (the deployment clock: virtual time
// under the simulator, wall time on a real deployment).
//
// Tracing is opt-in per query (EXPLAIN TRACE, the admin plane's
// trace flag, or a probabilistic sampling policy) and is deliberately
// deterministic: under the simulator a traced run records identical
// spans on every replay of the same seed, and enabling tracing does
// not perturb the RNG sequence of untraced queries.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// Stage classifies one span: which phase of distributed query
// execution the measured interval belongs to.
type Stage uint8

// Span stages, in rough causal order of a query's life.
const (
	// StageMulticast is the query-dissemination hop: the interval from
	// the initiator's multicast to the queryMsg's arrival at one node.
	StageMulticast Stage = iota
	// StageExecutor is one node's executor instantiation: operator
	// wiring and the initial scans of the chosen strategy.
	StageExecutor
	// StageScan is a single-table plan's local namespace scan.
	StageScan
	// StageRehash is a join executor's filtered rehash of one table
	// into the temporary namespace NQ.
	StageRehash
	// StageBloomCollect is the Bloom collector's OR-and-multicast of
	// one table's filters after BloomWait.
	StageBloomCollect
	// StageBloomDist is the arrival of a combined Bloom filter,
	// triggering the pruned rehash of the opposite table.
	StageBloomDist
	// StageDHTGet is one DHT lookup issued by an executor (Fetch
	// Matches probes, semi-join base-tuple fetches).
	StageDHTGet
	// StageIndexScan is a Prefix Hash Tree traversal run by the
	// initiator in place of a multicast full scan.
	StageIndexScan
	// StageResultFlush is one result-buffer flush: the interval from
	// the first tuple buffered to the frame handed to the transport.
	StageResultFlush
	// StageCreditStall is a flush stalled on an exhausted credit
	// window: the interval from the stall to the grant (or stall
	// self-refresh) that resumed it.
	StageCreditStall
	// StageCreditGrant is a flow-control grant issued by the
	// initiator's collector.
	StageCreditGrant
	// StageCollect is the initiator-side collector's whole life, from
	// query start to close; its Note totals the tuples received.
	StageCollect
	stageCount // sentinel, not a stage
)

var stageNames = [stageCount]string{
	"multicast",
	"executor",
	"scan",
	"rehash",
	"bloom_collect",
	"bloom_dist",
	"dht_get",
	"index_scan",
	"result_flush",
	"credit_stall",
	"credit_grant",
	"collect",
}

// NumStages is the number of defined span stages.
const NumStages = int(stageCount)

// Valid reports whether s is a defined stage. Spans arrive over the
// network; the wire codec rejects frames carrying invalid stages.
func (s Stage) Valid() bool { return s < stageCount }

func (s Stage) String() string {
	if !s.Valid() {
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
	return stageNames[s]
}

// MarshalText serializes a stage by name, so JSON carries "multicast"
// rather than a number.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// StageNames lists every stage name in stage order, for metrics
// enumeration.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Span is one recorded event of a traced query on one node.
//
// Start is the deployment clock's UnixNano at the beginning of the
// interval — an int64 rather than a time.Time so spans compare and
// encode exactly (the simulator's virtual clock round-trips
// bit-for-bit). Dur is zero for instantaneous events. The JSON names
// are the admin plane's trace contract.
type Span struct {
	// Stage classifies the event.
	Stage Stage `json:"stage"`
	// Node is the recording node's address.
	Node env.Addr `json:"node"`
	// Start is the interval's start on the deployment clock, in
	// nanoseconds since the epoch.
	Start int64 `json:"start_unix_nano"`
	// Dur is the interval's length (0 for point events).
	Dur time.Duration `json:"duration_ns"`
	// Note carries a short human-readable detail: tuple counts, the
	// namespace scanned, the key fetched.
	Note string `json:"note,omitempty"`
	// Seq orders spans recorded by the same node at the same instant
	// (common under the simulator's virtual clock).
	Seq uint32 `json:"seq"`
}

// WireSize implements env.Message.
func (s *Span) WireSize() int { return wire.Size(s) }

// Buffer is a bounded span accumulator, one per traced executor.
// When full, new spans are dropped and counted — a result flood can
// never grow the buffer past its bound; the drop count travels with
// the spans so the initiator knows the trace is partial. It is
// goroutine-safe: the executor records spans from the event loop
// while a dispatch shard may be draining them into a result frame.
type Buffer struct {
	mu    sync.Mutex
	cap   int
	seq   uint32
	spans []Span
	drops uint64
}

// NewBuffer returns a buffer bounded to capacity spans (minimum 1).
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{cap: capacity}
}

// Add records a span, assigning its sequence number; full buffers
// count a drop instead.
func (b *Buffer) Add(s Span) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Seq = b.seq
	b.seq++
	if len(b.spans) >= b.cap {
		b.drops++
		return
	}
	b.spans = append(b.spans, s)
}

// Len returns the number of buffered spans.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spans)
}

// Drops returns the number of spans dropped so far.
func (b *Buffer) Drops() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// Drain returns the buffered spans and the drop count accumulated
// since the last drain, and resets both. The returned slice is owned
// by the caller.
func (b *Buffer) Drain() ([]Span, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	spans, drops := b.spans, b.drops
	b.spans, b.drops = nil, 0
	return spans, drops
}

// Trace is the initiator-assembled view of one traced query: every
// span shipped home by participating executors plus the collector's
// own spans, in causal (timestamp) order. The admin plane serves it
// under these JSON names.
type Trace struct {
	// QueryID is the query the spans belong to; a decimal string in
	// JSON, like every query id.
	QueryID uint64 `json:"id,string"`
	// Root is the initiator's address.
	Root env.Addr `json:"root"`
	// Started and Finished bound the query on the deployment clock
	// (UnixNano); Finished is zero while the query is still live.
	Started  int64 `json:"started_unix_nano"`
	Finished int64 `json:"finished_unix_nano"`
	// Spans holds every recorded span, sorted by Sort.
	Spans []Span `json:"spans"`
	// Drops counts spans lost to full buffers network-wide: nonzero
	// means the trace is a bounded sample, not the complete event log.
	Drops uint64 `json:"dropped_spans"`
}

// Sort orders spans causally: by start time, then recording node,
// then per-node sequence — a total, deterministic order.
func (t *Trace) Sort() {
	sort.SliceStable(t.Spans, func(i, j int) bool {
		a, b := &t.Spans[i], &t.Spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
}

// Nodes returns the distinct recording nodes, sorted.
func (t *Trace) Nodes() []env.Addr {
	seen := map[env.Addr]bool{}
	for i := range t.Spans {
		seen[t.Spans[i].Node] = true
	}
	out := make([]env.Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stages returns the distinct stages present, in stage order.
func (t *Trace) Stages() []Stage {
	var seen [stageCount]bool
	for i := range t.Spans {
		if t.Spans[i].Stage.Valid() {
			seen[t.Spans[i].Stage] = true
		}
	}
	var out []Stage
	for s := Stage(0); s < stageCount; s++ {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// Render writes the trace as a text tree: a header, then one block
// per node (initiator first) with each span offset-aligned against
// the query start. The output is deterministic for a sorted trace.
func (t *Trace) Render(w io.Writer) {
	status := "live"
	if t.Finished != 0 {
		status = fmt.Sprintf("finished in %v", time.Duration(t.Finished-t.Started))
	}
	fmt.Fprintf(w, "trace query=%x root=%s spans=%d nodes=%d %s\n",
		t.QueryID, t.Root, len(t.Spans), len(t.Nodes()), status)
	if t.Drops > 0 {
		fmt.Fprintf(w, "  (%d spans dropped at full buffers; trace is partial)\n", t.Drops)
	}
	nodes := t.Nodes()
	// The initiator leads; the remaining nodes follow in address order.
	sort.SliceStable(nodes, func(i, j int) bool {
		if (nodes[i] == t.Root) != (nodes[j] == t.Root) {
			return nodes[i] == t.Root
		}
		return nodes[i] < nodes[j]
	})
	for _, node := range nodes {
		role := ""
		if node == t.Root {
			role = " (initiator)"
		}
		fmt.Fprintf(w, "└─ node %s%s\n", node, role)
		for i := range t.Spans {
			s := &t.Spans[i]
			if s.Node != node {
				continue
			}
			off := time.Duration(s.Start - t.Started)
			line := fmt.Sprintf("   ├─ +%-12v %-13s %v", off, s.Stage, s.Dur)
			if s.Note != "" {
				line += "  " + s.Note
			}
			fmt.Fprintln(w, line)
		}
	}
}

// RenderString is Render into a string.
func (t *Trace) RenderString() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}
