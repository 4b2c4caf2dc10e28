package core

import (
	"sync"

	"pier/internal/core/bloom"
	"pier/internal/env"
	"pier/internal/trace"
	"pier/internal/wire"
)

// queryMsg is the multicast payload that disseminates a query to every
// node (§3.2.3: "To run a query, PIER attempts to contact the nodes that
// hold data in a particular namespace" via multicast). Trace is the
// initiator's effective sampling decision: when set, every executor
// records trace spans for this query.
type queryMsg struct {
	ID        uint64
	Initiator env.Addr
	Trace     bool
	Plan      *Plan
}

// WireSize implements env.Message.
func (m *queryMsg) WireSize() int { return wire.Size(m) }

// resultMsg delivers output tuples directly to the query initiator.
// For traced queries the executor's drained span buffer (and the count
// of spans dropped at its bound) piggybacks on the frame, so span
// delivery rides the same credit-windowed channel as the results it
// describes.
type resultMsg struct {
	ID        uint64
	Window    int
	Tuples    []*Tuple
	Spans     []trace.Span
	SpanDrops uint64
}

// WireSize implements env.Message.
func (m *resultMsg) WireSize() int { return wire.Size(m) }

// ResultFrameOverhead is the WireSize of a result frame of query id
// before any tuple is added: what the result channel spends per frame.
// The experiments multiply it by the frames shipped to take result
// delivery out of a strategy's traffic (Figure 4).
func ResultFrameOverhead(id uint64) int { return (&resultMsg{ID: id}).WireSize() }

// resultMsgPool recycles result frames — the highest-volume message in
// the system. Executors take frames from it in flushResults and the
// binary codec decodes inbound frames into pooled shells; see Recycle
// for who returns them.
var resultMsgPool = sync.Pool{New: func() any { return new(resultMsg) }}

// getResultMsg returns an empty frame, reusing a recycled shell (and
// its Tuples capacity) when one is available.
func getResultMsg() *resultMsg { return resultMsgPool.Get().(*resultMsg) }

// Recycle implements env.Recycler: it clears the frame and returns it
// to the pool. On the outbound path realnet's writer recycles after
// encoding (the pointer goes no further); on the loopback and inbound
// paths the engine recycles after onResult consumed the frame. Only the
// frame shell and its []*Tuple slice are pooled — the tuples themselves
// may be retained by application callbacks or the DHT store and are
// left to the garbage collector.
func (m *resultMsg) Recycle() {
	for i := range m.Tuples {
		m.Tuples[i] = nil
	}
	tuples := m.Tuples[:0]
	if cap(tuples) > 4096 {
		tuples = nil // one giant frame must not pin its slice forever
	}
	*m = resultMsg{Tuples: tuples}
	resultMsgPool.Put(m)
}

// sideTuple is the rehash payload of the symmetric hash and Bloom joins:
// a filtered, projected tuple tagged with its source table ("all copies
// are tagged with their source table name", §4.1).
type sideTuple struct {
	Side int
	T    *Tuple
}

// WireSize implements env.Message.
func (m *sideTuple) WireSize() int { return wire.Size(m) }

// miniTuple is the semi-join rewrite's projection: just the base
// resourceID and the join key (§4.2).
type miniTuple struct {
	Side int
	RID  string
	Key  string
}

// WireSize implements env.Message.
func (m *miniTuple) WireSize() int { return wire.Size(m) }

// bloomPut is one node's contribution to a table's Bloom collector:
// its share of the key space (dht.Router.Share), by which the collector
// knows when every owner has reported, and its local filter, nil when
// the node holds no row of the table.
type bloomPut struct {
	Side  int
	Share uint64
	F     *bloom.Filter
}

// WireSize implements env.Message.
func (m *bloomPut) WireSize() int { return wire.Size(m) }

// bloomDist is the multicast payload redistributing the OR-ed filter of
// one table to the nodes holding the opposite table.
type bloomDist struct {
	ID   uint64
	Side int
	F    *bloom.Filter
}

// WireSize implements env.Message.
func (m *bloomDist) WireSize() int { return wire.Size(m) }

// cancelMsg is the multicast payload that tears a query down before its
// TTL: every node stops the query's executor — window timers, partial-
// aggregate flushers, and newData subscriptions — so a cancelled
// continuous query stops renewing its soft state immediately instead of
// lingering until the TTL ages it out.
type cancelMsg struct {
	ID uint64
}

// WireSize implements env.Message.
func (m *cancelMsg) WireSize() int { return wire.Size(m) }

// creditMsg is the result channel's flow-control grant, sent from the
// query initiator to one executor. Limit is absolute and cumulative —
// "you may have shipped up to Limit result tuples in total" — so a
// lost or reordered grant only leaves the sender with a stale (lower)
// limit, never with permanently destroyed credit; the next grant, or
// the sender's stall-refresh timer, restores progress.
type creditMsg struct {
	ID    uint64
	Limit int64
}

// WireSize implements env.Message.
func (m *creditMsg) WireSize() int { return wire.Size(m) }

// partialAgg is one node's partial aggregation state for one group (and
// window, for continuous queries), put into the aggregation namespace.
type partialAgg struct {
	Window int
	Group  []Value
	States []*AggState
}

// WireSize implements env.Message.
func (m *partialAgg) WireSize() int { return wire.Size(m) }
