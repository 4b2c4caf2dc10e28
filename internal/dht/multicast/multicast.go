// Package multicast disseminates a message to every node of the overlay.
// PIER uses multicast to distribute query instructions to the nodes
// holding data in a namespace (§3.2.3) and to redistribute OR-ed Bloom
// filters (§4.2). The paper's content-based multicast tech report [18]
// is unavailable; this package implements flooding over the DHT's
// neighbor links with duplicate suppression and, when the router
// supports it (CAN does), directed flooding that delivers close to
// exactly one copy per node.
package multicast

import (
	"math/bits"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
	"pier/internal/wire"
)

// FloodMsg carries one multicast payload hop-by-hop over neighbor links.
type FloodMsg struct {
	Origin  env.Addr
	Seq     uint64
	Hint    []uint32 // origin geometry for directed flooding (may be nil)
	Payload env.Message
}

// WireSize implements env.Message.
func (m *FloodMsg) WireSize() int { return wire.Size(m) }

// Flooder implements multicast for one node.
type Flooder struct {
	env     env.Env
	rt      dht.Router
	robust  bool
	deliver func(origin env.Addr, payload env.Message)
	seq     uint64
	// seen and old suppress duplicates: floods are recorded in seen,
	// which every ten minutes becomes old while the previous old — floods
	// ten to twenty minutes stale — is dropped whole. Nothing is scanned.
	seen, old fingerprints
	rotated   time.Time
	// targets is forward's buffer for the router's directed targets.
	targets []env.Addr
}

// New creates a flooder over the node's router that hands each flood,
// this node's own multicasts included, to deliver once. robust selects
// full neighbor flooding (redundant copies that survive undetected node
// failures) over directed flooding, the efficient default.
func New(e env.Env, rt dht.Router, robust bool, deliver func(origin env.Addr, payload env.Message)) *Flooder {
	return &Flooder{env: e, rt: rt, robust: robust, deliver: deliver, rotated: e.Now()}
}

// Multicast delivers payload to every reachable node in the overlay.
func (f *Flooder) Multicast(payload env.Message) {
	f.seq++
	m := &FloodMsg{Origin: f.env.Addr(), Seq: f.seq, Payload: payload}
	if mr, ok := f.rt.(dht.MulticastRouter); ok {
		m.Hint = mr.MulticastHint()
	}
	f.remember(fingerprint(m.Origin, m.Seq))
	f.deliver(m.Origin, m.Payload)
	f.forward(m, env.NilAddr)
}

// HandleMessage consumes FloodMsgs; it returns false for anything else.
func (f *Flooder) HandleMessage(from env.Addr, m env.Message) bool {
	fm, ok := m.(*FloodMsg)
	if !ok {
		return false
	}
	fp := fingerprint(fm.Origin, fm.Seq)
	if f.seen.has(fp) || f.old.has(fp) {
		return true
	}
	f.remember(fp)
	f.deliver(fm.Origin, fm.Payload)
	f.forward(fm, from)
	return true
}

func (f *Flooder) forward(m *FloodMsg, from env.Addr) {
	var targets []env.Addr
	if mr, ok := f.rt.(dht.MulticastRouter); ok && m.Hint != nil && !f.robust {
		f.targets = mr.MulticastForward(f.targets[:0], from, m.Hint)
		targets = f.targets
	} else {
		targets = f.rt.Neighbors()
	}
	for _, a := range targets {
		if a != from && a != m.Origin {
			f.env.Send(a, m)
		}
	}
}

// remember records a flood as seen, retiring a generation every ten minutes.
func (f *Flooder) remember(fp uint64) {
	if now := f.env.Now(); now.Sub(f.rotated) > 10*time.Minute {
		f.old, f.seen, f.rotated = f.seen, fingerprints{}, now
	}
	f.seen.add(fp)
}

// fingerprint hashes a flood's (Origin, Seq) to a nonzero 64-bit value,
// the same in every process: FNV-1a over the origin, xor the sequence
// number, then the SplitMix64 finalizer. Two floods of one origin never
// collide; floods of different origins do with odds of about n/2^64 in
// a set of n, and a collision hides one flood at one node — as a peer
// forging (Origin, Seq) already can.
func fingerprint(origin env.Addr, seq uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(origin); i++ {
		h = (h ^ uint64(origin[i])) * 1099511628211
	}
	h ^= seq
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return max(h^h>>31, 1)
}

// fingerprints is one generation of the seen set: an open-addressed
// table of nonzero fingerprints with linear probing, grown by half at
// three quarters full, so 8-16 bytes per fingerprint once grown.
type fingerprints struct {
	slots []uint64 // 0 marks a free slot
	n     int
}

// find returns fp's slot, or the free slot where it would go.
func (s *fingerprints) find(fp uint64) int {
	i, _ := bits.Mul64(fp, uint64(len(s.slots)))
	for s.slots[i] != 0 && s.slots[i] != fp {
		i = (i + 1) % uint64(len(s.slots))
	}
	return int(i)
}

func (s *fingerprints) has(fp uint64) bool { return s.n > 0 && s.slots[s.find(fp)] == fp }

func (s *fingerprints) add(fp uint64) {
	if 4*(s.n+1) > 3*len(s.slots) {
		old := s.slots
		*s = fingerprints{slots: make([]uint64, max(8, len(old)*3/2))}
		for _, v := range old {
			if v != 0 {
				s.add(v)
			}
		}
	}
	if i := s.find(fp); s.slots[i] == 0 {
		s.slots[i] = fp
		s.n++
	}
}
