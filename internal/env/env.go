// Package env defines the runtime environment shared by simulated and real
// PIER nodes. All node logic (DHT layers, query processor) is written
// against Env, so the exact same code runs inside the discrete-event
// simulator (internal/simnet) and over real TCP sockets (internal/realnet).
// This mirrors the paper's claim that "the simulator and the implementation
// use the same code base" (§5.2).
//
// Concurrency model: each node is a single-threaded event processor. The
// transport guarantees that message handlers, timer callbacks, and Post-ed
// functions for a given node never run concurrently, so node state needs no
// locks.
package env

import (
	"cmp"
	"math/rand"
	"slices"
	"time"
)

// Addr identifies a node. In the simulator it is "sim:<index>"; over a real
// network it is a dialable "host:port" string.
type Addr string

// NilAddr is the zero Addr, used where the paper's APIs accept NULL (e.g.
// join(NULL) creates a new overlay network).
const NilAddr Addr = ""

// Message is anything that can be sent between nodes. WireSize reports the
// number of bytes the message occupies on the wire: for a type registered
// with package wire, exactly what the codec writes plus the pad the
// message declares (wire.Size — the description that encodes the message
// also counts it); for a message with no wire tag, a literal. The
// simulator charges HeaderSize plus this size against the receiver's
// inbound link (§5.2: congestion is modeled at the last hop).
type Message interface {
	WireSize() int
}

// Recycler is implemented by messages whose backing storage may be
// returned to a pool once the holder is finished with them. The real
// transport calls Recycle after serializing an outbound message (the
// pointer is never delivered anywhere on that path); the engine calls
// it after consuming an inbound message it owns. The simulator, which
// delivers pointers, never recycles — the consumer does. A message must
// be recycled at most once, by whoever held the last reference.
type Recycler interface {
	Recycle()
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer. It is final on both transports: once Stop
	// has returned on the node's event loop the callback never runs,
	// even if the timer was already due. It is a no-op if the callback
	// already ran.
	Stop()
}

// Env is the per-node runtime environment.
type Env interface {
	// Addr returns this node's own address.
	Addr() Addr

	// Now returns the current time: virtual time in the simulator, wall
	// clock time on a real network.
	Now() time.Time

	// After schedules f to run on this node's event loop after d. The
	// returned Timer may be used to cancel it.
	After(d time.Duration, f func()) Timer

	// Post schedules f to run on this node's event loop as soon as
	// possible, after the work already due there. It is the only safe
	// way for outside goroutines (e.g. an application thread in real
	// deployment) to touch node state. Post never blocks, whoever calls
	// it — the loop itself included; on a real node only the readers of
	// inbound connections ever wait for room in the loop's queue.
	Post(f func())

	// Send delivers m to the node at addr asynchronously. Sends are
	// fire-and-forget: delivery is not acknowledged and messages to
	// failed nodes are silently dropped (§5.6).
	Send(to Addr, m Message)

	// Rand returns this node's deterministic random source. It must only
	// be used from the node's own event loop.
	Rand() *rand.Rand
}

// LinkStats is a snapshot of a transport's link counters. The real TCP
// transport fills every field; environments without a physical link (the
// simulator) report nothing. Operators read these through the
// node-level accessor instead of reaching into the transport. The JSON field names are part of the
// admin plane's REST contract (GET /api/status serves this struct
// verbatim inside the node snapshot).
type LinkStats struct {
	// FramesSent counts messages handed to the socket; BatchesSent
	// counts write calls (FramesSent/BatchesSent is the coalescing
	// factor of the per-peer write batching).
	FramesSent  uint64 `json:"frames_sent"`
	BatchesSent uint64 `json:"batches_sent"`
	// BytesSent counts bytes written, framing included.
	BytesSent uint64 `json:"bytes_sent"`
	// FramesRecv and BytesRecv count the inbound direction.
	FramesRecv uint64 `json:"frames_recv"`
	BytesRecv  uint64 `json:"bytes_recv"`
	// Drops counts messages discarded: full outbound queues, encoding
	// failures, and frames lost when a connection died mid-batch.
	Drops uint64 `json:"drops"`
}

// LinkStatsProvider is the optional Env refinement transports with real
// link counters implement.
type LinkStatsProvider interface {
	LinkStats() LinkStats
}

// Handler receives messages delivered to a node. A node registers exactly
// one handler with its transport before any messages flow.
type Handler interface {
	HandleMessage(from Addr, m Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from Addr, m Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from Addr, m Message) { f(from, m) }

// SortedKeys returns a map's keys in ascending order. Map iteration
// order must be deterministic wherever the loop body sends messages or
// feeds state that later sends — a seeded simulation replays only if
// every send sequence does. Callback registries (provider, flooder),
// storage scans, catalog refreshes, and partial-aggregate flushes all
// iterate through this; it lives here because env is the layer every
// node component already depends on.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// OrDefault replaces an unset (non-positive) setting with its default.
// Node components' constructors resolve their Config with it, so each
// default is written once: in the package's DefaultConfig, or in New
// where there is none.
func OrDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Every schedules f to run repeatedly with period d, starting after d.
// The returned stop function cancels future runs, also from inside f.
func Every(e Env, d time.Duration, f func()) (stop func()) {
	stopped := false
	var t Timer
	var run func()
	run = func() {
		f()
		if !stopped {
			t = e.After(d, run)
		}
	}
	t = e.After(d, run)
	return func() {
		stopped = true
		t.Stop()
	}
}
