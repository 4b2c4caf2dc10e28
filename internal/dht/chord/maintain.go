package chord

import (
	"sort"

	"pier/internal/env"
)

// startMaintenance begins the periodic stabilize / fix-fingers /
// check-predecessor cycle if enabled.
func (r *Router) startMaintenance() {
	if !r.cfg.Maintenance || r.stopMaint != nil {
		return
	}
	r.stopMaint = env.Every(r.env, stabilizeInterval, func() {
		r.stabilize()
		r.fixFinger()
		r.checkPredecessor()
	})
}

// stabilize asks the successor for its predecessor and successor list,
// adopting a closer successor if one appeared, then notifies the
// successor of our existence.
func (r *Router) stabilize() {
	if len(r.succs) == 0 {
		return
	}
	succ := r.succs[0]
	if succ.addr == r.env.Addr() {
		// We are our own successor. If someone has notified us (set our
		// predecessor), adopt it as successor so a two-node ring forms;
		// otherwise there is nothing to stabilize against.
		if r.hasPred && r.pred.addr != r.env.Addr() {
			r.succs[0] = r.pred
			succ = r.pred
		} else {
			return
		}
	}
	r.nonce++
	n := r.nonce
	if r.pending == nil {
		r.pending = make(map[uint64]*pendingLookup)
	}
	r.pending[n] = &pendingLookup{
		cb:    func(env.Addr) {},
		timer: r.env.After(stabilizeInterval, func() { r.succTimeout(n) }),
	}
	r.stabNonce = n
	r.env.Send(succ.addr, &getPredMsg{Origin: r.env.Addr(), Nonce: n})
}

// succTimeout fires when the successor did not answer a stabilize probe:
// fail over to the next live entry in the successor list.
func (r *Router) succTimeout(n uint64) {
	if _, ok := r.pending[n]; !ok {
		return
	}
	delete(r.pending, n)
	if n != r.stabNonce {
		return
	}
	r.succFails++
	if r.succFails < 2 {
		return
	}
	r.succFails = 0
	if len(r.succs) > 1 {
		r.succs = r.succs[1:]
	} else {
		r.succs = []entry{{r.env.Addr(), r.id}}
	}
}

func (r *Router) onGetPredReply(m *getPredReply) {
	if pl, ok := r.pending[m.Nonce]; ok {
		pl.timer.Stop()
		delete(r.pending, m.Nonce)
	}
	r.succFails = 0
	if len(r.succs) == 0 {
		return
	}
	succ := r.succs[0]
	if m.HasPred && m.PredAddr != r.env.Addr() && between(r.id, m.PredID, succ.id-1) && m.PredID != succ.id {
		succ = entry{m.PredAddr, m.PredID}
	}
	// Rebuild the successor list: our successor followed by its list.
	list := []entry{succ}
	for _, a := range m.SuccAddrs {
		if a == r.env.Addr() || a == succ.addr {
			continue
		}
		list = append(list, entry{a, IDOf(a)})
		if len(list) >= successorListLen {
			break
		}
	}
	r.succs = list
	r.env.Send(succ.addr, &notifyMsg{ID: r.id})
}

// fixFinger refreshes one finger per cycle, round-robin.
func (r *Router) fixFinger() {
	i := r.nextFing
	r.nextFing = (r.nextFing + 1) % len(r.fingers)
	target := r.id + (uint64(1) << uint(i))
	r.nonce++
	n := r.nonce
	r.pending[n] = &pendingLookup{
		cb: func(owner env.Addr) {
			if owner != env.NilAddr {
				r.fingers[i] = entry{owner, IDOf(owner)}
			}
		},
		timer: r.env.After(lookupTimeout, func() { r.expire(n) }),
	}
	r.routeFindSucc(&findSuccMsg{ID: target, Origin: r.env.Addr(), Nonce: n})
}

// checkPredecessor pings the predecessor; an unanswered ping clears it so
// a notify can install a live one.
func (r *Router) checkPredecessor() {
	if !r.hasPred || r.pred.addr == r.env.Addr() {
		return
	}
	if r.pingPending != 0 {
		// Previous ping unanswered for a full cycle.
		r.pingPending = 0
		r.hasPred = false
		r.fireLocChange()
		return
	}
	r.nonce++
	r.pingPending = r.nonce
	r.env.Send(r.pred.addr, &pingMsg{Origin: r.env.Addr(), Nonce: r.nonce})
}

// Bootstrap wires a stable Chord ring directly: sorted identifiers,
// exact successors/predecessors/successor lists, and perfect finger
// tables. Like can.Bootstrap, it lets large simulations start from the
// stabilized state the paper measures from (§5.2).
func Bootstrap(routers []*Router) {
	n := len(routers)
	if n == 0 {
		return
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return routers[idx[a]].id < routers[idx[b]].id })

	ids := make([]uint64, n)
	for i, j := range idx {
		ids[i] = routers[j].id
	}
	// succOf returns the ring position of successor(target).
	succOf := func(target uint64) int {
		lo := sort.Search(n, func(i int) bool { return ids[i] >= target })
		if lo == n {
			lo = 0
		}
		return lo
	}
	for pos, j := range idx {
		r := routers[j]
		r.joined = true
		next := idx[(pos+1)%n]
		prev := idx[(pos-1+n)%n]
		r.pred = entry{routers[prev].env.Addr(), routers[prev].id}
		r.hasPred = n > 1
		r.succs = r.succs[:0]
		for k := 1; k <= successorListLen && k < n+1; k++ {
			s := idx[(pos+k)%n]
			r.succs = append(r.succs, entry{routers[s].env.Addr(), routers[s].id})
			if len(r.succs) >= successorListLen {
				break
			}
		}
		if len(r.succs) == 0 {
			r.succs = []entry{{r.env.Addr(), r.id}}
		}
		for i := range r.fingers {
			s := idx[succOf(r.id+(uint64(1)<<uint(i)))]
			r.fingers[i] = entry{routers[s].env.Addr(), routers[s].id}
		}
		_ = next
		r.startMaintenance()
		r.fireLocChange()
	}
}
