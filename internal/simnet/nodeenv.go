package simnet

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"pier/internal/env"
)

// NodeEnv implements env.Env for one simulated node. The struct is kept
// compact — at 100k+ nodes it is a dominant per-node cost — and embeds
// its 8-byte SplitMix64 RNG state directly rather than pointing at a
// ~4.9KB math/rand rngSource.
type NodeEnv struct {
	nw      *Network
	handler env.Handler
	rng     *rand.Rand
	src     env.SplitMix64
	addr    env.Addr

	// linkFreeAt is when this node's inbound link finishes serializing
	// the last queued message, in nanoseconds since Epoch.
	linkFreeAt int64

	index int32
	// gen is the node's cancellation generation: Kill advances it,
	// instantly staling every event scheduled under the old value.
	// pendingEvents and pendingMsgs count this node's queued events and
	// the subset that are message deliveries, so Kill can adjust the
	// network's live count and Dropped stat in O(1).
	gen           uint32
	pendingEvents int32
	pendingMsgs   int32
	alive         bool
}

// SetHandler registers the node's message handler. It must be called
// before any messages are delivered.
func (n *NodeEnv) SetHandler(h env.Handler) { n.handler = h }

// Index returns the node's simulator index.
func (n *NodeEnv) Index() int { return int(n.index) }

// Addr implements env.Env.
func (n *NodeEnv) Addr() env.Addr { return n.addr }

// Now implements env.Env.
func (n *NodeEnv) Now() time.Time { return n.nw.Now() }

// Rand implements env.Env.
func (n *NodeEnv) Rand() *rand.Rand { return n.rng }

// After implements env.Env.
func (n *NodeEnv) After(d time.Duration, f func()) env.Timer {
	if d < 0 {
		d = 0
	}
	idx, slotGen := n.nw.schedule(n.nw.now+int64(d), n.index, f, "", nil, 0)
	return simTimer{nw: n.nw, idx: idx, slotGen: slotGen}
}

// Post implements env.Env.
func (n *NodeEnv) Post(f func()) {
	n.nw.schedule(n.nw.now, n.index, f, "", nil, 0)
}

// Send implements env.Env. Delivery time is
//
//	send + latency(src,dst) + any configured extra delay, then
//	FIFO-queued behind the receiver's inbound link which drains at the
//	topology's inbound bandwidth.
//
// Messages from or to failed nodes are discarded, as are messages
// crossing a partition or rolled away by a loss rule (fault layer).
func (n *NodeEnv) Send(to env.Addr, m env.Message) {
	if !n.alive {
		return
	}
	nw := n.nw
	dst, ok := nw.lookupAddr(to)
	if !ok {
		return
	}
	if !dst.alive {
		// Dropped at send time so dead nodes accumulate no queue state.
		nw.stats.Dropped++
		return
	}
	var extra time.Duration
	if dst.index != n.index {
		if nw.Partitioned(int(n.index), int(dst.index)) {
			nw.stats.LostPartition++
			return
		}
		loss, d := nw.linkFault(int(n.index), int(dst.index))
		if loss > 0 && nw.faultRng.Float64() < loss {
			nw.stats.LostLoss++
			return
		}
		extra = d
	}
	size := env.HeaderSize + m.WireSize()
	arrive := nw.now + int64(nw.topo.Latency(int(n.index), int(dst.index))+extra)
	deliver := arrive
	if bw := nw.topo.InboundBandwidth(int(dst.index)); bw > 0 {
		start := arrive
		if dst.linkFreeAt > start {
			start = dst.linkFreeAt
		}
		deliver = start + int64(time.Duration(float64(size*8)/bw*float64(time.Second)))
		dst.linkFreeAt = deliver
	}
	nw.schedule(deliver, dst.index, nil, n.addr, m, int32(size))
}

// simAddr renders node i's simulator address.
func simAddr(i int) env.Addr { return env.Addr("sim:" + strconv.Itoa(i)) }

// lookupAddr resolves a "sim:<i>" address to the node.
func (nw *Network) lookupAddr(a env.Addr) (*NodeEnv, bool) {
	s := string(a)
	if !strings.HasPrefix(s, "sim:") {
		return nil, false
	}
	i, err := strconv.Atoi(s[4:])
	if err != nil || i < 0 || i >= len(nw.nodes) {
		return nil, false
	}
	return nw.nodes[i], true
}

// simTimer is a revocable handle to an arena event: the slot index plus
// the slot generation observed at schedule time. Stop goes inert once
// the timer fires, is stopped again, or its node is killed — the slot
// generation (and the event's node generation) arbitrate, so a held
// handle can never cancel an unrelated event that reused the slot.
type simTimer struct {
	nw      *Network
	idx     int32
	slotGen uint32
}

// Stop implements env.Timer.
func (t simTimer) Stop() {
	nw := t.nw
	ev := &nw.events[t.idx]
	if ev.slotGen != t.slotGen || ev.canceled {
		return
	}
	node := nw.nodes[ev.node]
	if ev.gen != node.gen {
		return // node killed since scheduling; Kill already tombstoned it
	}
	ev.canceled = true
	ev.fn, ev.msg, ev.from = nil, nil, ""
	node.pendingEvents--
	nw.live--
	nw.tombstones++
	nw.maybeCompact()
}
