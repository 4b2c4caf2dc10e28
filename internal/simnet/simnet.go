// Package simnet is a discrete-event network simulator. It implements
// env.Env for hundreds of thousands of in-process PIER nodes with a
// shared virtual clock, pairwise propagation latency from a topology
// model, and FIFO serialization of each message at the receiver's
// inbound access link — exactly the simplifications the paper's
// simulator makes (§5.2: the simulator "ignor[es] the cross-traffic in
// the network and the CPU and memory utilizations"; congestion occurs
// at the last hop).
//
// All node logic runs on the caller's goroutine inside Run, so a
// seeded simulation is fully deterministic — including the fault layer:
// link loss and partitions (SetLoss, SetLinkFault, Partition) draw from
// a dedicated RNG derived from the network seed, so a chaos scenario
// replays event-for-event from its seed.
//
// The event queue is value-typed for scale: events live in an arena
// with a free list and are addressed by index, and the heap orders
// 24-byte references rather than pointers, so the steady send/deliver
// path allocates nothing and Kill cancels lazily instead of rebuilding
// the heap (see ARCHITECTURE.md, "Scaling the simulator").
package simnet

import (
	"math"
	"math/rand"
	"time"

	"pier/internal/env"
	"pier/internal/topology"
)

// Epoch is the virtual time at which every simulation starts. Event
// times are stored internally as int64 nanoseconds relative to Epoch.
var Epoch = time.Unix(0, 0).UTC()

// Network is a simulated network of nodes.
type Network struct {
	topo topology.Topology
	seed int64
	now  int64 // virtual nanoseconds since Epoch
	seq  uint64

	// The event store: a value-typed arena addressed by index, a free
	// list of reusable slots, and a binary heap of (at, seq, idx)
	// references. live counts schedulable events; tombstones counts
	// canceled placeholders still occupying heap slots (they are
	// reclaimed at pop, or wholesale by compact once they outnumber the
	// live events).
	events     []event
	free       []int32
	heap       []eventRef
	live       int
	tombstones int

	nodes []*NodeEnv

	// Fault state: configured loss probability (global and per directed
	// link), the current partition assignment, and the dedicated fault
	// RNG. The RNG is consumed only by sends a loss rule applies to, so
	// fault-free simulations reproduce pre-fault traces.
	faultSrc env.SplitMix64
	faultRng *rand.Rand
	loss     float64
	linkLoss map[linkKey]float64
	island   []int32 // partition island per node; all zero = no partition

	stats Stats
}

// linkKey identifies a directed src→dst link for per-link fault rules.
type linkKey struct{ src, dst int }

// Stats aggregates traffic over the lifetime of the network (or since the
// last ResetStats). Bytes are counted once per delivered message, at the
// receiver — multi-hop overlay routes therefore count each hop, matching
// the paper's "aggregate network traffic" metric (Figure 4).
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64 // messages addressed to failed nodes
	// LostLoss and LostPartition count messages discarded by the fault
	// layer: random link loss and partition rules respectively.
	LostLoss      int64
	LostPartition int64
	// DeliveredToDead counts deliveries dispatched to a node that was
	// dead at delivery time. Kill tombstones the dead node's pending
	// events and Send drops eagerly, so this must stay zero; the chaos
	// harness's no-delivery-to-dead invariant asserts on it.
	DeliveredToDead int64
	InboundByNode   []int64
}

// MaxInbound returns the largest per-node inbound byte count, the paper's
// "maximum inbound traffic at a node" metric (§5).
func (s *Stats) MaxInbound() int64 {
	var max int64
	for _, b := range s.InboundByNode {
		if b > max {
			max = b
		}
	}
	return max
}

// New creates an empty simulated network over the given topology. The
// seed drives every random choice made by nodes on this network,
// including the fault layer's loss rolls.
func New(topo topology.Topology, seed int64) *Network {
	nw := &Network{topo: topo, seed: seed}
	nw.faultSrc.Seed(seed ^ 0x6a09e667f3bcc908)
	nw.faultRng = rand.New(&nw.faultSrc)
	return nw
}

// Now returns the current virtual time.
func (nw *Network) Now() time.Time { return Epoch.Add(time.Duration(nw.now)) }

// Len returns the number of nodes ever added (including failed ones).
func (nw *Network) Len() int { return len(nw.nodes) }

// AddNode creates a new node environment. The node starts alive with no
// handler; the caller builds the node stack against the returned env and
// then calls SetHandler.
func (nw *Network) AddNode() *NodeEnv {
	idx := len(nw.nodes)
	n := &NodeEnv{
		nw:    nw,
		index: int32(idx),
		addr:  simAddr(idx),
		alive: true,
		gen:   1,
	}
	n.src.Seed(nw.seed ^ (0x5851f42d4c957f2d * int64(idx+1)))
	n.rng = rand.New(&n.src)
	nw.nodes = append(nw.nodes, n)
	nw.stats.InboundByNode = append(nw.stats.InboundByNode, 0)
	nw.island = append(nw.island, 0)
	return n
}

// Node returns the environment of node i.
func (nw *Network) Node(i int) *NodeEnv { return nw.nodes[i] }

// Kill marks node i failed: messages to it are dropped (§5.6) and its
// sends are discarded. The node's pending events — timers as well as
// in-flight messages addressed to it — are canceled in O(1) by bumping
// the node's generation (in-flight messages count as Dropped
// immediately, from the node's pending-message counter); the stale
// queue entries are reclaimed lazily at pop or by the next compaction.
// The handler reference is released so the node stack can be collected,
// and the inbound-stats slot is zeroed so churned-out nodes do not
// linger in MaxInbound. Kill is idempotent.
func (nw *Network) Kill(i int) {
	n := nw.nodes[i]
	if !n.alive {
		return
	}
	n.alive = false
	n.handler = nil
	n.linkFreeAt = 0
	nw.stats.InboundByNode[i] = 0
	nw.stats.Dropped += int64(n.pendingMsgs)
	nw.live -= int(n.pendingEvents)
	nw.tombstones += int(n.pendingEvents)
	n.pendingEvents, n.pendingMsgs = 0, 0
	n.gen++
	nw.maybeCompact()
}

// Alive reports whether node i is up.
func (nw *Network) Alive(i int) bool { return nw.nodes[i].alive }

// SetLoss sets the global probability in [0, 1] that any inter-node
// message is silently lost in transit. Self-sends are never lost.
func (nw *Network) SetLoss(p float64) { nw.loss = p }

// SetLinkFault overrides the loss probability of the directed link
// src→dst, replacing the global rule on that link — loss 0 makes the
// link reliable even under global loss. Use ClearLinkFault to restore
// the global rule.
func (nw *Network) SetLinkFault(src, dst int, loss float64) {
	if nw.linkLoss == nil {
		nw.linkLoss = make(map[linkKey]float64)
	}
	nw.linkLoss[linkKey{src, dst}] = loss
}

// ClearLinkFault removes the src→dst override; the global loss rule
// applies to the link again.
func (nw *Network) ClearLinkFault(src, dst int) { delete(nw.linkLoss, linkKey{src, dst}) }

// Partition splits the network into islands: each listed group becomes
// one island and every node not listed stays in the implicit island 0.
// Messages between different islands are dropped (counted as
// LostPartition) until Heal. A node listed twice lands in the last
// group naming it. Nodes added after Partition join island 0.
func (nw *Network) Partition(groups ...[]int) {
	for i := range nw.island {
		nw.island[i] = 0
	}
	for g, members := range groups {
		for _, i := range members {
			if i >= 0 && i < len(nw.island) {
				nw.island[i] = int32(g + 1)
			}
		}
	}
}

// Heal removes the current partition: all nodes rejoin one island.
func (nw *Network) Heal() {
	for i := range nw.island {
		nw.island[i] = 0
	}
}

// Partitioned reports whether src→dst crosses the current partition.
func (nw *Network) Partitioned(src, dst int) bool {
	return nw.island[src] != nw.island[dst]
}

// linkLossOf resolves the effective loss probability for one directed
// send.
func (nw *Network) linkLossOf(src, dst int) float64 {
	if p, ok := nw.linkLoss[linkKey{src, dst}]; ok {
		return p
	}
	return nw.loss
}

// Stats returns a snapshot of the traffic counters, including a copy of
// the full per-node inbound slice. The copy is O(nodes); probes that
// only need aggregates should use Totals, MaxInbound, or InboundOf.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.InboundByNode = append([]int64(nil), nw.stats.InboundByNode...)
	return s
}

// Totals returns the aggregate traffic counters without copying the
// per-node inbound slice (InboundByNode is nil in the result). At 100k+
// nodes the full Stats copy is ~1MB per snapshot; hot probe loops use
// this instead.
func (nw *Network) Totals() Stats {
	s := nw.stats
	s.InboundByNode = nil
	return s
}

// MaxInbound returns the largest per-node inbound byte count without
// copying the slice.
func (nw *Network) MaxInbound() int64 { return nw.stats.MaxInbound() }

// InboundOf returns node i's inbound byte count.
func (nw *Network) InboundOf(i int) int64 { return nw.stats.InboundByNode[i] }

// ResetStats zeroes the traffic counters (node liveness is untouched).
func (nw *Network) ResetStats() {
	for i := range nw.stats.InboundByNode {
		nw.stats.InboundByNode[i] = 0
	}
	nw.stats.Messages, nw.stats.Bytes, nw.stats.Dropped = 0, 0, 0
	nw.stats.LostLoss, nw.stats.LostPartition, nw.stats.DeliveredToDead = 0, 0, 0
}

// run processes live events in (at, seq) order until the queue is
// empty, the next event falls after deadline (nanoseconds since Epoch),
// or cont, when non-nil, returns false (checked before every event). It
// returns the number of events processed.
func (nw *Network) run(deadline int64, cont func() bool) int {
	n := 0
	for cont == nil || cont() {
		r, ok := nw.peek()
		if !ok || r.at > deadline {
			break
		}
		if r.at < nw.now {
			panic("simnet: time went backwards")
		}
		nw.popHead()
		ev := &nw.events[r.idx]
		node := nw.nodes[ev.node]
		node.pendingEvents--
		nw.live--
		fn, from, msg, size, nodeIdx := ev.fn, ev.from, ev.msg, ev.size, ev.node
		if msg != nil {
			node.pendingMsgs--
		}
		// Free the slot before dispatch: handlers frequently schedule new
		// events, and the copied fields above are all dispatch needs.
		nw.freeSlot(r.idx)
		nw.now = r.at
		nw.dispatch(nodeIdx, fn, from, msg, size)
		n++
	}
	return n
}

// Run processes events until the queue is empty or virtual time would
// exceed the deadline, then advances the virtual clock to the deadline
// (idle time passes too). It returns the number of events processed.
func (nw *Network) Run(deadline time.Time) int {
	drel := deadline.Sub(Epoch).Nanoseconds()
	n := nw.run(drel, nil)
	if nw.now < drel {
		nw.now = drel
	}
	return n
}

// RunFor runs for d of virtual time from now.
func (nw *Network) RunFor(d time.Duration) int { return nw.Run(nw.Now().Add(d)) }

// RunWhile processes events until the queue empties, the deadline passes,
// or cont() returns false (checked before every event). Unlike Run it
// leaves the clock at the last processed event when stopped early.
func (nw *Network) RunWhile(deadline time.Time, cont func() bool) int {
	return nw.run(deadline.Sub(Epoch).Nanoseconds(), cont)
}

// Drain runs until the event queue is completely empty. Periodic node
// activities (keepalives, renewals) must be stopped first or Drain will
// not terminate; experiments normally use Run with a deadline instead.
func (nw *Network) Drain() int { return nw.run(math.MaxInt64, nil) }

// Pending returns the number of live queued events. Canceled
// placeholders awaiting lazy reclamation are not counted; the same live
// count drives compaction.
func (nw *Network) Pending() int { return nw.live }

func (nw *Network) dispatch(nodeIdx int32, fn func(), from env.Addr, msg env.Message, size int32) {
	node := nw.nodes[nodeIdx]
	if !node.alive {
		// Kill tombstones pending events and Send drops eagerly, so a
		// delivery to a dead node indicates a lifecycle bug; surface it
		// through the counter the chaos invariants assert on.
		if msg != nil {
			nw.stats.Dropped++
			nw.stats.DeliveredToDead++
		}
		return
	}
	if fn != nil {
		fn()
		return
	}
	nw.stats.Messages++
	nw.stats.Bytes += int64(size)
	nw.stats.InboundByNode[nodeIdx] += int64(size)
	if node.handler != nil {
		node.handler.HandleMessage(from, msg)
	}
}

// schedule queues an event at the given virtual time (nanoseconds since
// Epoch) and returns its arena slot and the slot's generation, which
// together form a revocable handle. The slot comes from the free list
// on the steady path, so scheduling allocates only when the queue grows
// past its high-water mark.
func (nw *Network) schedule(at int64, node int32, fn func(), from env.Addr, msg env.Message, size int32) (int32, uint32) {
	var idx int32
	if n := len(nw.free); n > 0 {
		idx = nw.free[n-1]
		nw.free = nw.free[:n-1]
	} else {
		nw.events = append(nw.events, event{})
		idx = int32(len(nw.events) - 1)
	}
	nd := nw.nodes[node]
	ev := &nw.events[idx]
	slotGen := ev.slotGen
	*ev = event{
		at: at, seq: nw.seq, fn: fn, from: from, msg: msg,
		node: node, size: size, gen: nd.gen, slotGen: slotGen,
	}
	nw.seq++
	nw.heapPush(eventRef{at: at, seq: ev.seq, idx: idx})
	nw.live++
	nd.pendingEvents++
	if msg != nil {
		nd.pendingMsgs++
	}
	return idx, slotGen
}

// stale reports whether an event has been canceled — explicitly by a
// timer Stop, or implicitly because its node's generation advanced
// (Kill) after it was scheduled.
func (nw *Network) stale(ev *event) bool {
	return ev.canceled || ev.gen != nw.nodes[ev.node].gen
}

// peek returns the reference of the earliest live event, discarding and
// reclaiming any stale entries found at the head on the way.
func (nw *Network) peek() (eventRef, bool) {
	for len(nw.heap) > 0 {
		r := nw.heap[0]
		if !nw.stale(&nw.events[r.idx]) {
			return r, true
		}
		nw.popHead()
		nw.freeSlot(r.idx)
		nw.tombstones--
	}
	return eventRef{}, false
}

// freeSlot returns an arena slot to the free list, bumping its
// generation so outstanding timer handles to the old occupant go inert,
// and dropping reference-holding fields so the collector can reclaim
// handler closures and message payloads.
func (nw *Network) freeSlot(idx int32) {
	ev := &nw.events[idx]
	ev.slotGen++
	ev.fn, ev.msg, ev.from = nil, nil, ""
	nw.free = append(nw.free, idx)
}

// maybeCompact sweeps all stale entries out of the heap once tombstones
// outnumber live events (and there are enough of them to matter). The
// sweep is O(queue) but amortized: it halves the queue at least, and
// each tombstone is swept at most once. Pop order is unchanged because
// (at, seq) totally orders events — any valid heap over the same live
// set pops the same sequence.
func (nw *Network) maybeCompact() {
	const minTombstones = 64
	if nw.tombstones < minTombstones || nw.tombstones <= nw.live {
		return
	}
	keep := nw.heap[:0]
	for _, r := range nw.heap {
		if nw.stale(&nw.events[r.idx]) {
			nw.freeSlot(r.idx)
			continue
		}
		keep = append(keep, r)
	}
	nw.heap = keep
	nw.tombstones = 0
	for i := len(nw.heap)/2 - 1; i >= 0; i-- {
		nw.siftDown(i)
	}
}

// event is either a callback (fn != nil) or a message delivery. Events
// are value-typed and live in the Network's arena; at is virtual
// nanoseconds since Epoch.
type event struct {
	at   int64
	seq  uint64
	fn   func()
	from env.Addr
	msg  env.Message
	node int32
	size int32
	// gen is the owning node's generation at schedule time; Kill
	// advances the node's generation, instantly staling every scheduled
	// event without touching the queue. slotGen counts reuses of this
	// arena slot so a held timer handle can never cancel an unrelated
	// successor. canceled marks an explicit timer Stop.
	gen      uint32
	slotGen  uint32
	canceled bool
}

// eventRef is one heap entry: the (at, seq) ordering key plus the arena
// index it refers to. 24 bytes, moved by value during sifts.
type eventRef struct {
	at  int64
	seq uint64
	idx int32
}

func refLess(a, b eventRef) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (nw *Network) heapPush(r eventRef) {
	nw.heap = append(nw.heap, r)
	nw.siftUp(len(nw.heap) - 1)
}

// popHead removes the heap head (callers have already consumed it via
// peek or nw.heap[0]).
func (nw *Network) popHead() {
	last := len(nw.heap) - 1
	nw.heap[0] = nw.heap[last]
	nw.heap = nw.heap[:last]
	if last > 0 {
		nw.siftDown(0)
	}
}

func (nw *Network) siftUp(i int) {
	h := nw.heap
	r := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(r, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = r
}

func (nw *Network) siftDown(i int) {
	h := nw.heap
	n := len(h)
	r := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refLess(h[c+1], h[c]) {
			c++
		}
		if !refLess(h[c], r) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = r
}
