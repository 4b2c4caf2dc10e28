package can

import (
	"reflect"
	"testing"
	"time"

	"pier/internal/env"
)

func maintained() Config {
	cfg := DefaultConfig()
	cfg.Maintenance = true
	return cfg
}

// holdsTableOf reports whether n's view of neighbor x is x's current
// zones and the table x last pushed.
func holdsTableOf(n, x *Router) bool {
	ni := n.neighbor(x.env.Addr())
	return ni != nil && ni.digest == x.pushed && x.pushed == x.digest() &&
		reflect.DeepEqual(ni.zones, x.zones) && reflect.DeepEqual(ni.nbrs, x.neighborSummary())
}

// TestQuietOverlaySendsOnlyDigests holds the keepalive's gain where the
// product runs it: in a stable overlay every liveness message is still
// sent, none carries a body after the first interval, and each costs at
// most 48 bytes with the transport header (608 mean before the digest).
func TestQuietOverlaySendsOnlyDigests(t *testing.T) {
	tn := newTestNet(t, 256, maintained())
	Bootstrap(tn.routers, 5)
	links := 0
	for _, r := range tn.routers {
		links += len(r.neighbors)
	}
	var msgs, bodies, bytes int
	tn.tap = func(_ int, _ env.Addr, m env.Message) {
		u, ok := m.(*neighborUpdate)
		if !ok {
			t.Errorf("an idle overlay sent a %T", m)
			return
		}
		msgs++
		bytes += env.HeaderSize + u.WireSize()
		if len(u.Zones) > 0 || u.Nbrs != nil || u.Digest == 0 {
			bodies++
		}
	}
	// The first tick (5 s) pushes every table once.
	tn.nw.RunFor(6 * time.Second)
	if msgs != links || bodies != links {
		t.Fatalf("first interval: %d updates, %d with a table, want %d of each (one per directed link)", msgs, bodies, links)
	}
	msgs, bodies, bytes = 0, 0, 0
	tn.nw.RunFor(55 * time.Second) // ticks at 10, 15, ..., 60 s
	if want := 11 * links; msgs != want {
		t.Errorf("%d keepalives in 11 intervals over %d directed links, want %d: liveness messages must not change", msgs, links, want)
	}
	if bodies != 0 {
		t.Errorf("%d of %d keepalives in a stable overlay were not bare digests", bodies, msgs)
	}
	if mean := float64(bytes) / float64(msgs); mean > 48 {
		t.Errorf("mean keepalive is %.1f bytes with header, want <= 48", mean)
	}
	for i, r := range tn.routers {
		for _, a := range r.Neighbors() {
			if !holdsTableOf(tn.routers[addrIndex(t, a)], r) {
				t.Fatalf("node %s does not hold node %d's table", a, i)
			}
		}
	}
}

// TestLostPushIsPulled: a neighbor that misses the one full update after
// a table change learns of it from the next bare keepalive's digest and
// holds the new table one interval and one round trip later.
func TestLostPushIsPulled(t *testing.T) {
	cfg := maintained()
	tn := newTestNet(t, 16, cfg)
	Bootstrap(tn.routers, 8)
	tn.nw.RunFor(12 * time.Second)

	// A join changes the splitter's table (and its neighbors').
	before := make([]float64, len(tn.routers))
	for i, r := range tn.routers {
		before[i] = TotalVolume(r.zones)
	}
	e, joiner := tn.add(cfg)
	e.Post(func() { joiner.Join(tn.envs[0].Addr()) })
	tn.nw.RunFor(2 * time.Second) // 14 s
	src := -1
	for i, v := range before {
		if TotalVolume(tn.routers[i].zones) != v {
			src = i
		}
	}
	if src < 0 || !joiner.Ready() {
		t.Fatal("join did not split a zone")
	}
	a := tn.routers[src]
	dst := -1
	for _, addr := range a.Neighbors() {
		if j := addrIndex(t, addr); j != e.Index() {
			dst = j
			break
		}
	}
	b := tn.routers[dst]
	old := b.neighbor(a.env.Addr()).digest

	// The 15 s tick pushes the new table; the copy for b is lost.
	tn.nw.SetLinkFault(src, dst, 1)
	tn.nw.RunFor(1500 * time.Millisecond) // 15.5 s
	tn.nw.ClearLinkFault(src, dst)
	if held := b.neighbor(a.env.Addr()).digest; a.pushed == old || held != old {
		t.Fatalf("setup: a pushed %x (old %x), b holds %x", a.pushed, old, held)
	}
	var pulls, replies int
	tn.tap = func(to int, from env.Addr, m env.Message) {
		u, ok := m.(*neighborUpdate)
		switch {
		case !ok:
		case to == src && from == b.env.Addr() && len(u.Zones) == 0 && u.Digest == 0:
			pulls++
		case to == dst && from == a.env.Addr() && u.Nbrs != nil:
			replies++
		}
	}
	tn.nw.RunFor(4400 * time.Millisecond) // 19.9 s: nothing yet
	if pulls != 0 || holdsTableOf(b, a) {
		t.Fatal("b learned of the change before any keepalive told it")
	}
	// 20 s bare keepalive, +100 ms pull, +100 ms table, each way 100 ms.
	tn.nw.RunFor(450 * time.Millisecond)
	if pulls != 1 || replies != 1 {
		t.Fatalf("%d pulls and %d full replies, want 1 and 1", pulls, replies)
	}
	if !holdsTableOf(b, a) {
		t.Fatal("b does not hold a's new table one interval and one round trip after the lost push")
	}
}

// TestStrangersGetNoTable: what a node that is not our neighbor can make
// us send is at most a pull, which is as small as what it sent.
func TestStrangersGetNoTable(t *testing.T) {
	tn := newTestNet(t, 8, maintained())
	Bootstrap(tn.routers, 2)
	stranger := tn.nw.AddNode()
	var got []*neighborUpdate
	stranger.SetHandler(env.HandlerFunc(func(_ env.Addr, m env.Message) {
		got = append(got, m.(*neighborUpdate))
	}))
	target := tn.envs[3].Addr()
	stranger.Post(func() { stranger.Send(target, &neighborUpdate{}) })
	tn.nw.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("a stranger's pull was answered with %+v", got[0])
	}
	stranger.Post(func() { stranger.Send(target, &neighborUpdate{Digest: 99}) })
	tn.nw.RunFor(time.Second)
	if len(got) != 1 || len(got[0].Zones) != 0 || got[0].Nbrs != nil || got[0].Digest != 0 {
		t.Fatalf("a stranger's bare keepalive was answered with %+v, want one pull", got)
	}
	if tn.routers[3].neighbor(stranger.Addr()) != nil {
		t.Fatal("a bare keepalive made its sender a neighbor")
	}
}

// TestTakeoverAfterUnpushedChange kills a node whose table changed after
// its last full update: its neighbors all still hold that update, so
// they agree on one claimant and the space stays covered.
func TestTakeoverAfterUnpushedChange(t *testing.T) {
	cfg := maintained()
	tn := newTestNet(t, 10, cfg)
	tn.joinAll()
	tn.nw.RunFor(12 * time.Second)
	victim := 4
	v, vaddr := tn.routers[victim], tn.envs[victim].Addr()
	// Joins until one changes a neighbor's zones, and so the victim's
	// table, without leaving it a neighbor that holds no table of it yet
	// (that one would have to claim blindly, before and after this PR).
	for tries := 0; ; tries++ {
		if tries == 30 {
			t.Fatal("30 joins never left the victim with an unpushed change")
		}
		e, r := tn.add(cfg)
		e.Post(func() { r.Join(tn.envs[0].Addr()) })
		tn.nw.RunFor(time.Second)
		allHold := true
		for _, a := range v.Neighbors() {
			ni := tn.routers[addrIndex(t, a)].neighbor(vaddr)
			allHold = allHold && ni != nil && ni.nbrs != nil
		}
		if allHold && v.digest() != v.pushed {
			break
		}
		if !allHold {
			tn.nw.RunFor(keepaliveInterval) // the victim's tick pushes to the newcomer
		}
	}
	claimants := map[env.Addr]bool{}
	tn.tap = func(_ int, from env.Addr, m env.Message) {
		if n, ok := m.(*takeoverNotice); ok && n.Dead == vaddr {
			claimants[from] = true
		}
	}
	tn.nw.Kill(victim)
	tn.nw.RunFor(90 * time.Second)
	if len(claimants) != 1 {
		t.Errorf("%d nodes claimed the dead node's zones, want exactly one: %v", len(claimants), claimants)
	}
	tn.checkInvariants(t)
}

// TestRejoinUnderOldAddress restarts a node under its address within
// failTimeout and loses the new life's first full update: whoever still
// holds the old life's table must notice the digest differs and end up
// with the new one.
func TestRejoinUnderOldAddress(t *testing.T) {
	cfg := maintained()
	tn := newTestNet(t, 12, cfg)
	tn.joinAll()
	tn.nw.RunFor(12 * time.Second)
	const x = 5
	oldLife := tn.routers[x]
	r := tn.restart(x, cfg)
	tn.envs[x].Post(func() { r.Join(tn.envs[0].Addr()) })
	tn.nw.RunFor(2 * time.Second)
	if !r.Ready() {
		t.Fatal("restarted node did not rejoin")
	}
	// Its first tick comes 5 s after the join: lose that push everywhere.
	for i := range tn.routers {
		tn.nw.SetLinkFault(x, i, 1)
	}
	tn.nw.RunFor(4 * time.Second)
	if r.pushed == 0 || r.pushed == oldLife.pushed {
		t.Fatalf("setup: new life pushed %x, old life %x", r.pushed, oldLife.pushed)
	}
	for i := range tn.routers {
		tn.nw.ClearLinkFault(x, i)
	}
	tn.nw.RunFor(2 * time.Minute)
	for i, n := range tn.routers {
		nKnows := n.neighbor(tn.envs[x].Addr()) != nil
		xKnows := r.neighbor(tn.envs[i].Addr()) != nil
		if nKnows != xKnows {
			t.Errorf("node %d knows the new life: %v; the new life knows it: %v", i, nKnows, xKnows)
		}
		if nKnows && !holdsTableOf(n, r) {
			t.Errorf("node %d still holds a stale table of the restarted node", i)
		}
	}
}
