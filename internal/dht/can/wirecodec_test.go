package can

import (
	"math/rand"
	"testing"

	"pier/internal/env"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func randZone(r *rand.Rand) Zone {
	z := RootZone(1 + r.Intn(4))
	for z.Splittable() && r.Intn(3) > 0 {
		lower, upper := z.Split()
		if r.Intn(2) == 0 {
			z = lower
		} else {
			z = upper
		}
	}
	return z
}

func randZones(r *rand.Rand, dims int) []Zone {
	n := 1 + r.Intn(3)
	zs := make([]Zone, n)
	for i := range zs {
		z := RootZone(dims)
		for z.Splittable() && r.Intn(3) > 0 {
			lower, upper := z.Split()
			if r.Intn(2) == 0 {
				z = lower
			} else {
				z = upper
			}
		}
		zs[i] = z
	}
	return zs
}

func randPoint(r *rand.Rand) []uint32 {
	p := make([]uint32, 1+r.Intn(4))
	for i := range p {
		p[i] = r.Uint32()
	}
	return p
}

func randNbrs(r *rand.Rand, dims int) map[env.Addr][]Zone {
	n := r.Intn(4)
	if n == 0 {
		return nil
	}
	m := make(map[env.Addr][]Zone, n)
	for i := 0; i < n; i++ {
		m[wiretest.Addr(r)] = randZones(r, dims)
	}
	return m
}

// TestNeighborUpdateWireSizeAllocs: neighborUpdate is most of what an
// idle overlay sends and the simulator sizes every send, so counting one
// — neighbor map included — must neither allocate nor sort.
func TestNeighborUpdateWireSizeAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	u := &neighborUpdate{Zones: randZones(r, 2), Nbrs: map[env.Addr][]Zone{}}
	for len(u.Nbrs) < 8 {
		u.Nbrs[wiretest.Addr(r)] = randZones(r, 2)
	}
	if allocs := testing.AllocsPerRun(200, func() { u.WireSize() }); allocs != 0 {
		t.Fatalf("WireSize of a neighborUpdate with 8 neighbors: %.1f allocs, want 0", allocs)
	}
}

// TestNeighborTableNeedsZones: a table with no zones is a form no router
// sends (messages.go lists the four), so the decoder refuses it.
func TestNeighborTableNeedsZones(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	b, err := wire.Marshal(&neighborUpdate{Nbrs: map[env.Addr][]Zone{"a:1": randZones(r, 2)}, Digest: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Unmarshal(b); err == nil {
		t.Fatalf("decoded a neighbor table without zones: %#v", m)
	}
}

// The corpus hash was e4da30085fe7cff1 until neighborUpdate gained its
// trailing Digest word and the bare and pull generators (the one format
// break of the digest keepalive; no spill log holds a CAN message).
func TestWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 11, 300, 48, 63, "74bd767e14a639b0", []wiretest.Gen{
		{Name: "lookupMsg", Make: func(r *rand.Rand) env.Message {
			return &lookupMsg{
				Point:  randPoint(r),
				Origin: wiretest.Addr(r),
				Nonce:  wiretest.Uint64(r),
				Hops:   uint16(r.Intn(1 << 16)),
			}
		}},
		{Name: "lookupReply", Make: func(r *rand.Rand) env.Message {
			return &lookupReply{Nonce: wiretest.Uint64(r), Hops: uint16(r.Intn(1 << 16))}
		}},
		{Name: "joinReq", Make: func(r *rand.Rand) env.Message {
			return &joinReq{
				Point:  randPoint(r),
				Joiner: wiretest.Addr(r),
				Hops:   uint16(r.Intn(1 << 16)),
			}
		}},
		{Name: "joinReply", Make: func(r *rand.Rand) env.Message {
			z := randZone(r)
			return &joinReply{Zone: z, Neighbors: randNbrs(r, z.Dims())}
		}},
		{Name: "neighborUpdate", Make: func(r *rand.Rand) env.Message {
			dims := 1 + r.Intn(3)
			return &neighborUpdate{Zones: randZones(r, dims), Nbrs: randNbrs(r, dims), Digest: r.Uint64()}
		}},
		{Name: "neighborUpdate/bare", Make: func(r *rand.Rand) env.Message {
			return &neighborUpdate{Digest: r.Uint64() | 1}
		}},
		{Name: "neighborUpdate/pull", Make: func(*rand.Rand) env.Message { return &neighborUpdate{} }},
		{Name: "takeoverNotice", Make: func(r *rand.Rand) env.Message {
			return &takeoverNotice{Dead: wiretest.Addr(r), Zones: randZones(r, 2)}
		}},
		{Name: "leaveNotice", Make: func(r *rand.Rand) env.Message {
			return &leaveNotice{Zones: randZones(r, 2), Nbrs: randNbrs(r, 2)}
		}},
	})
}
