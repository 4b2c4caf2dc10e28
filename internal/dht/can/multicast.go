package can

import (
	"pier/internal/dht"
	"pier/internal/env"
)

// Directed flooding over the CAN neighbor graph, after the multicast
// scheme of Ratnasamy et al. that the paper's content-based multicast
// report [18] builds on. Instead of forwarding to every neighbor (which
// delivers ~2d copies per node), a node that received a message over an
// abutting face in dimension b forwards it only
//
//   - along dimensions lower than b, in both directions, and
//   - along dimension b, away from the sender,
//
// and never forwards along a dimension once the message has traveled
// more than half the torus from the origin (the "half-way rule", which
// stops the two directional waves from colliding). Each node then
// receives close to exactly one copy; residual corner duplicates are
// absorbed by the flooder's duplicate suppression.

// MulticastHint implements dht.MulticastRouter: the center of the
// node's first zone identifies the flood origin for the half-way rule.
func (r *Router) MulticastHint() []uint32 {
	if len(r.zones) == 0 {
		return nil
	}
	z := r.zones[0]
	p := make([]uint32, z.Dims())
	for i := range p {
		p[i] = uint32((z.Lo[i] + z.Hi[i]) / 2)
	}
	return p
}

// MulticastForward implements dht.MulticastRouter.
func (r *Router) MulticastForward(dst []env.Addr, from env.Addr, hint []uint32) []env.Addr {
	if len(r.zones) != 1 || len(hint) != r.cfg.Dims {
		// Multi-zone ownership (post-takeover) or missing geometry:
		// fall back to full flooding; duplicate suppression keeps it
		// correct.
		return append(dst, r.Neighbors()...)
	}
	self := r.zones[0]

	arrivalDim := r.cfg.Dims // above every real dimension: origin case
	arrivalDir := 0
	if from != env.NilAddr {
		ni := r.neighbor(from)
		if ni == nil || len(ni.zones) != 1 {
			return append(dst, r.Neighbors()...)
		}
		d, dir, ok := abutment(ni.zones[0], self)
		if !ok {
			return append(dst, r.Neighbors()...)
		}
		arrivalDim, arrivalDir = d, dir
	}

	// The flooder sends to these in order: table order keeps it
	// deterministic.
	for i := range r.neighbors {
		ni := &r.neighbors[i]
		if ni.addr == from {
			continue
		}
		if len(ni.zones) != 1 {
			dst = append(dst, ni.addr) // odd-shaped neighbor: be safe
			continue
		}
		d, dir, ok := abutment(self, ni.zones[0])
		if !ok {
			continue
		}
		if d > arrivalDim || (d == arrivalDim && dir == -arrivalDir && from != env.NilAddr) {
			continue // covered by a higher-dimension wave or backtracking
		}
		if pastHalfway(hint[d], self, ni.zones[0], d, dir) {
			continue
		}
		dst = append(dst, ni.addr)
	}
	return dst
}

// abutment returns the dimension along which zone b abuts zone a and the
// direction (+1 if b lies on a's high side, -1 on the low side).
func abutment(a, b Zone) (dim, dir int, ok bool) {
	for i := range a.Lo {
		switch {
		case a.Hi[i] == b.Lo[i] || (a.Hi[i] == Span && b.Lo[i] == 0):
			return i, +1, true
		case b.Hi[i] == a.Lo[i] || (b.Hi[i] == Span && a.Lo[i] == 0):
			return i, -1, true
		}
	}
	return 0, 0, false
}

// pastHalfway reports whether forwarding from self to next along dim in
// direction dir would carry the message further than half the torus from
// the origin coordinate — the M-CAN rule that keeps the +dir and -dir
// waves from overlapping.
func pastHalfway(origin uint32, self, next Zone, dim, dir int) bool {
	var traveled uint64
	if dir > 0 {
		traveled = (next.Lo[dim] - uint64(origin) + Span) % Span
	} else {
		traveled = (uint64(origin) - (next.Hi[dim] % Span) + Span) % Span
	}
	return traveled > Span/2
}

var _ dht.MulticastRouter = (*Router)(nil)
