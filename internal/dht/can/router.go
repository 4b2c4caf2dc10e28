package can

import (
	"math"
	"slices"
	"time"

	"pier/internal/dht"
	"pier/internal/env"
)

// Config controls a CAN router instance.
type Config struct {
	// Dims is the dimensionality d of the coordinate space. The paper's
	// simulations use d=4 (its §5.5.1 analysis models the average lookup
	// as n^(1/4) hops).
	Dims int

	// Maintenance enables periodic keepalives and failure detection.
	// Static experiments (Figures 3-5, Table 4) run with maintenance off
	// so that simulations quiesce; the churn experiment (Figure 6) turns
	// it on.
	Maintenance bool

	// KeepaliveInterval is how often neighbors exchange keepalives.
	KeepaliveInterval time.Duration

	// FailTimeout is how long a neighbor must stay silent before it is
	// declared failed; the paper assumes 15 seconds (§5.6).
	FailTimeout time.Duration

	// LookupTimeout bounds how long a Lookup waits before reporting
	// failure with env.NilAddr.
	LookupTimeout time.Duration
}

// DefaultConfig returns the paper's simulation configuration; New
// resolves a zero field to its value here.
func DefaultConfig() Config {
	return Config{
		Dims:              4,
		KeepaliveInterval: 5 * time.Second,
		FailTimeout:       15 * time.Second,
		LookupTimeout:     30 * time.Second,
	}
}

// Fixed protocol parameters.
const (
	// joinRetry is how long a joiner waits for a join reply before
	// retrying with a fresh random point.
	joinRetry = 20 * time.Second
	// maxHops caps greedy routing to break transient loops.
	maxHops = 512
)

type neighborInfo struct {
	zones     []Zone
	lastHeard time.Time
	// nbrs is the neighbor's own neighbor table as of its last full
	// update, used to pick the takeover claimant deterministically when
	// it fails; digest is the digest that update carried (0: none yet).
	nbrs   map[env.Addr][]Zone
	digest uint64
}

// Router is a CAN node's routing layer. It implements dht.Router.
type Router struct {
	env env.Env
	cfg Config

	joined    bool
	zones     []Zone
	neighbors map[env.Addr]*neighborInfo
	// pushed is the digest of the table last sent in full to every
	// neighbor; a keepalive tick whose digest equals it goes out bare.
	pushed uint64

	locChange []func()

	nonce     uint64
	pending   map[uint64]*pendingLookup
	stopMaint func()
	joinTimer env.Timer

	// adopted tracks zones taken over per dead node, for reconciling
	// duplicate claims.
	adopted map[env.Addr][]Zone

	// Hop statistics for the evaluation (§5.5.1 analysis bench).
	LookupCount int64
	LookupHops  int64
}

// dropZones removes the given zones (matched by bounds) from the owned
// set.
func (r *Router) dropZones(zs []Zone) {
	keep := r.zones[:0]
outer:
	for _, z := range r.zones {
		for _, d := range zs {
			if sameZone(z, d) {
				continue outer
			}
		}
		keep = append(keep, z)
	}
	r.zones = keep
}

func sameZone(a, b Zone) bool { return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi) }

type pendingLookup struct {
	cb    func(env.Addr)
	timer env.Timer
}

// New creates a CAN router bound to the node environment. Call Join to
// enter (or create) a network.
func New(e env.Env, cfg Config) *Router {
	def := DefaultConfig()
	env.OrDefault(&cfg.Dims, def.Dims)
	env.OrDefault(&cfg.KeepaliveInterval, def.KeepaliveInterval)
	env.OrDefault(&cfg.FailTimeout, def.FailTimeout)
	env.OrDefault(&cfg.LookupTimeout, def.LookupTimeout)
	return &Router{
		env:       e,
		cfg:       cfg,
		neighbors: make(map[env.Addr]*neighborInfo),
	}
}

// Dims returns the configured dimensionality.
func (r *Router) Dims() int { return r.cfg.Dims }

// LookupStats reports how many lookups this node initiated and the total
// overlay hops their answers traversed (§5.5.1's analysis input).
func (r *Router) LookupStats() (count, hops int64) { return r.LookupCount, r.LookupHops }

// Zones returns the node's currently owned zones (normally one; more
// after a takeover).
func (r *Router) Zones() []Zone { return r.zones }

// EstimateNodes estimates the overlay size from the node's own share of
// the coordinate space: with n nodes splitting the space, each owns
// ~1/n of the total volume. The statistics catalog feeds this to the
// optimizer's NetStats without any global census.
func (r *Router) EstimateNodes() int {
	v := TotalVolume(r.zones)
	if v <= 0 || v > 1 {
		return 1
	}
	return int(1/v + 0.5)
}

// Ready implements dht.Router.
func (r *Router) Ready() bool { return r.joined && len(r.zones) > 0 }

// Owns implements dht.Router.
func (r *Router) Owns(k dht.Key) bool { return r.ownsPoint(k.Point(r.cfg.Dims)) }

func (r *Router) ownsPoint(p []uint32) bool {
	for _, z := range r.zones {
		if z.Contains(p) {
			return true
		}
	}
	return false
}

// Neighbors implements dht.Router.
func (r *Router) Neighbors() []env.Addr { return env.SortedKeys(r.neighbors) }

// OnLocationMapChange implements dht.Router.
func (r *Router) OnLocationMapChange(f func()) { r.locChange = append(r.locChange, f) }

func (r *Router) fireLocChange() {
	for _, f := range r.locChange {
		f()
	}
}

// Join implements dht.Router. With env.NilAddr it creates a new network
// owning the whole coordinate space; otherwise it routes a join request
// via the landmark to the owner of a random point (§3.1.1).
func (r *Router) Join(landmark env.Addr) {
	if landmark == env.NilAddr {
		r.zones = []Zone{RootZone(r.cfg.Dims)}
		r.joined = true
		r.startMaintenance()
		r.fireLocChange()
		return
	}
	r.sendJoin(landmark)
}

func (r *Router) sendJoin(landmark env.Addr) {
	p := r.randomPoint()
	r.env.Send(landmark, &joinReq{Point: p, Joiner: r.env.Addr()})
	r.joinTimer = r.env.After(joinRetry, func() {
		if !r.joined {
			r.sendJoin(landmark)
		}
	})
}

func (r *Router) randomPoint() []uint32 {
	p := make([]uint32, r.cfg.Dims)
	for i := range p {
		p[i] = r.env.Rand().Uint32()
	}
	return p
}

// Leave implements dht.Router: the node hands its zones to its
// smallest-volume neighbor and departs, returning that neighbor.
func (r *Router) Leave() env.Addr {
	if !r.joined {
		return env.NilAddr
	}
	target, ok := r.smallestNeighbor()
	if ok {
		r.env.Send(target, &leaveNotice{Zones: r.zones, Nbrs: r.neighborSummary()})
	}
	r.joined = false
	r.zones = nil
	r.neighbors = make(map[env.Addr]*neighborInfo)
	if r.stopMaint != nil {
		r.stopMaint()
		r.stopMaint = nil
	}
	r.fireLocChange()
	return target
}

func (r *Router) smallestNeighbor() (env.Addr, bool) {
	best := env.NilAddr
	bestVol := math.Inf(1)
	for a, ni := range r.neighbors {
		v := TotalVolume(ni.zones)
		if v < bestVol || (v == bestVol && a < best) {
			best, bestVol = a, v
		}
	}
	return best, best != env.NilAddr
}

// Lookup implements dht.Router.
func (r *Router) Lookup(k dht.Key, cb func(env.Addr)) {
	p := k.Point(r.cfg.Dims)
	r.LookupCount++
	if r.ownsPoint(p) {
		cb(r.env.Addr())
		return
	}
	r.nonce++
	n := r.nonce
	pl := &pendingLookup{cb: cb}
	pl.timer = r.env.After(r.cfg.LookupTimeout, func() {
		if _, ok := r.pending[n]; ok {
			delete(r.pending, n)
			cb(env.NilAddr)
		}
	})
	if r.pending == nil {
		r.pending = make(map[uint64]*pendingLookup)
	}
	r.pending[n] = pl
	r.forward(p, &lookupMsg{Point: p, Origin: r.env.Addr(), Nonce: n}, env.NilAddr)
}

// forward greedily sends m toward the owner of point p, skipping the
// neighbor the message arrived from when possible.
func (r *Router) forward(p []uint32, m env.Message, exclude env.Addr) bool {
	best := env.NilAddr
	bestDist := math.Inf(1)
	for a, ni := range r.neighbors {
		if a == exclude {
			continue
		}
		d := MinDistanceSq(ni.zones, p)
		if d < bestDist || (d == bestDist && a < best) {
			best, bestDist = a, d
		}
	}
	if best == env.NilAddr && exclude != env.NilAddr {
		// Only the arrival link is available; bounce back rather than drop.
		best = exclude
	}
	if best == env.NilAddr {
		return false
	}
	r.env.Send(best, m)
	return true
}

// HandleMessage implements dht.Router.
func (r *Router) HandleMessage(from env.Addr, m env.Message) bool {
	switch msg := m.(type) {
	case *lookupMsg:
		r.onLookup(from, msg)
	case *lookupReply:
		r.onLookupReply(from, msg)
	case *joinReq:
		r.onJoinReq(from, msg)
	case *joinReply:
		r.onJoinReply(from, msg)
	case *neighborUpdate:
		r.onNeighborUpdate(from, msg)
	case *takeoverNotice:
		r.onTakeover(from, msg)
	case *leaveNotice:
		r.onLeave(from, msg)
	default:
		return false
	}
	return true
}

func (r *Router) onLookup(from env.Addr, m *lookupMsg) {
	if r.ownsPoint(m.Point) {
		r.env.Send(m.Origin, &lookupReply{Nonce: m.Nonce, Hops: m.Hops + 1})
		return
	}
	m.Hops++
	if int(m.Hops) > maxHops {
		return
	}
	r.forward(m.Point, m, from)
}

func (r *Router) onLookupReply(from env.Addr, m *lookupReply) {
	pl, ok := r.pending[m.Nonce]
	if !ok {
		return
	}
	delete(r.pending, m.Nonce)
	pl.timer.Stop()
	r.LookupHops += int64(m.Hops)
	pl.cb(from)
}

func (r *Router) onJoinReq(from env.Addr, m *joinReq) {
	if !r.joined {
		return
	}
	if !r.ownsPoint(m.Point) {
		m.Hops++
		if int(m.Hops) > maxHops {
			return
		}
		r.forward(m.Point, m, from)
		return
	}
	// Split the zone containing the point; the joiner receives the half
	// containing its chosen point, this node keeps the other half.
	zi := -1
	for i, z := range r.zones {
		if z.Contains(m.Point) {
			zi = i
			break
		}
	}
	if zi < 0 || !r.zones[zi].Splittable() || m.Joiner == r.env.Addr() {
		return
	}
	lower, upper := r.zones[zi].Split()
	keep, give := lower, upper
	if lower.Contains(m.Point) {
		keep, give = upper, lower
	}
	r.zones[zi] = keep

	// Snapshot for the joiner: our neighbors plus ourselves (post-split).
	snapshot := r.neighborSummary()
	snapshot[r.env.Addr()] = cloneZones(r.zones)
	r.env.Send(m.Joiner, &joinReply{Zone: give, Neighbors: snapshot})

	// Tell every old neighbor about our shrunken zone set before pruning,
	// so nodes that are no longer adjacent drop us symmetrically.
	r.broadcastUpdate()
	// The joiner becomes a neighbor; prune neighbors that are no longer
	// adjacent to our shrunken zone set.
	r.neighbors[m.Joiner] = &neighborInfo{zones: []Zone{give}, lastHeard: r.env.Now()}
	r.pruneNeighbors()
	r.fireLocChange()
}

func (r *Router) onJoinReply(from env.Addr, m *joinReply) {
	if r.joined {
		return
	}
	if r.joinTimer != nil {
		r.joinTimer.Stop()
		r.joinTimer = nil
	}
	r.joined = true
	r.zones = []Zone{m.Zone}
	r.neighbors = make(map[env.Addr]*neighborInfo)
	for a, zs := range m.Neighbors {
		if a == r.env.Addr() {
			continue
		}
		if AnyAdjacent(r.zones, zs) {
			r.neighbors[a] = &neighborInfo{zones: zs, lastHeard: r.env.Now()}
		}
	}
	r.broadcastUpdate()
	r.startMaintenance()
	r.fireLocChange()
}

func (r *Router) onNeighborUpdate(from env.Addr, m *neighborUpdate) {
	if !r.joined {
		return
	}
	ni, known := r.neighbors[from]
	if len(m.Zones) == 0 && m.Digest == 0 {
		// A pull. Strangers get no table for the asking, and a pull is not
		// a liveness message: it says nothing of the sender's view of us.
		if known {
			_, digest := r.table()
			r.env.Send(from, r.update(digest))
		}
		return
	}
	if len(m.Zones) == 0 {
		// A bare keepalive. If we do not hold the table it names (the full
		// update was lost, or we never learned of the sender), pull.
		if known {
			ni.lastHeard = r.env.Now()
		}
		if !known || ni.digest != m.Digest {
			r.env.Send(from, &neighborUpdate{})
		}
		return
	}
	if !AnyAdjacent(r.zones, m.Zones) {
		if known {
			delete(r.neighbors, from)
			// One-shot reply so the peer re-evaluates adjacency against
			// our current zones and prunes us too. The peer only replies
			// in turn if it still knows us, so this cannot loop.
			r.env.Send(from, r.update(0))
		}
		return
	}
	ni = r.heard(from, m.Zones)
	if m.Nbrs != nil {
		ni.nbrs, ni.digest = m.Nbrs, m.Digest
	}
	if !known {
		// Introduce ourselves so the link is symmetric.
		r.env.Send(from, r.update(0))
	}
}

func (r *Router) onTakeover(from env.Addr, m *takeoverNotice) {
	if !r.joined {
		return
	}
	delete(r.neighbors, m.Dead)
	// Reconcile duplicate claims: if we also adopted this dead node's
	// zones, the lower address keeps them.
	if mine, ok := r.adopted[m.Dead]; ok && from < r.env.Addr() {
		delete(r.adopted, m.Dead)
		r.dropZones(mine)
		r.fireLocChange()
	}
	if AnyAdjacent(r.zones, m.Zones) {
		r.heard(from, m.Zones)
	}
}

// heard records the zones a (possibly new) neighbor just advertised.
func (r *Router) heard(from env.Addr, zones []Zone) *neighborInfo {
	ni := r.neighbors[from]
	if ni == nil {
		ni = &neighborInfo{}
		r.neighbors[from] = ni
	}
	ni.zones, ni.lastHeard = zones, r.env.Now()
	return ni
}

func (r *Router) onLeave(from env.Addr, m *leaveNotice) {
	if !r.joined {
		return
	}
	r.adoptZones(from, m.Zones, m.Nbrs)
}

// adoptZones merges a departed node's zones into ours and stitches up the
// neighborhood.
func (r *Router) adoptZones(dead env.Addr, zones []Zone, deadNbrs map[env.Addr][]Zone) {
	r.zones = append(r.zones, cloneZones(zones)...)
	delete(r.neighbors, dead)
	for a, zs := range deadNbrs {
		if a == r.env.Addr() || a == dead {
			continue
		}
		if _, ok := r.neighbors[a]; !ok && AnyAdjacent(r.zones, zs) {
			r.neighbors[a] = &neighborInfo{zones: zs, lastHeard: r.env.Now()}
		}
	}
	r.sendAll(r.Neighbors(), &takeoverNotice{Dead: dead, Zones: cloneZones(r.zones)})
	r.fireLocChange()
}

func (r *Router) pruneNeighbors() {
	for a, ni := range r.neighbors {
		if !AnyAdjacent(r.zones, ni.zones) {
			delete(r.neighbors, a)
		}
	}
}

func (r *Router) neighborSummary() map[env.Addr][]Zone {
	m := make(map[env.Addr][]Zone, len(r.neighbors))
	for a, ni := range r.neighbors {
		m[a] = ni.zones
	}
	return m
}

// update builds every neighborUpdate that has a body: our zones and,
// under a digest, the neighbor table that digest was computed over.
func (r *Router) update(digest uint64) *neighborUpdate {
	u := &neighborUpdate{Zones: cloneZones(r.zones), Digest: digest}
	if digest != 0 {
		u.Nbrs = r.neighborSummary()
	}
	return u
}

// table walks the neighbor map once for what a tick needs: the addresses
// in send order (sorted, so seeded simulations replay) and the digest of
// the table a full update would carry now — our zones plus, summed so map
// order cannot matter, each neighbor's address and zones. Recomputed per
// tick, not bumped per mutation: no mutation is missed, and a restart
// under the old address cannot match the previous life's table by
// accident. Never 0, which receivers keep for "no table held".
func (r *Router) table() (addrs []env.Addr, digest uint64) {
	addrs = make([]env.Addr, 0, len(r.neighbors))
	digest = mixZones(0, r.zones)
	for a, ni := range r.neighbors {
		addrs = append(addrs, a)
		e := mixZones(0, ni.zones)
		for i := 0; i < len(a); i++ {
			e = mix(e, uint64(a[i]))
		}
		digest += e
	}
	slices.Sort(addrs)
	return addrs, digest | 1
}

func mixZones(h uint64, zs []Zone) uint64 {
	for _, z := range zs {
		for i := range z.Lo {
			h = mix(mix(h, z.Lo[i]), z.Hi[i])
		}
	}
	return mix(h, uint64(len(zs)))
}

// mix folds a word into h; the shift brings the high bits, where zone
// coordinates (multiples of large powers of two) differ, back down.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// broadcastUpdate sends our zone set to every neighbor in sorted address
// order: seeded simulations replay only if send order is deterministic
// (the fault layer's loss rolls are consumed per send).
func (r *Router) broadcastUpdate() { r.sendAll(r.Neighbors(), r.update(0)) }

func (r *Router) sendAll(to []env.Addr, m env.Message) {
	for _, a := range to {
		r.env.Send(a, m)
	}
}

// startMaintenance begins periodic keepalives and failure detection if
// the configuration enables them.
func (r *Router) startMaintenance() {
	if !r.cfg.Maintenance || r.stopMaint != nil {
		return
	}
	r.stopMaint = env.Every(r.env, r.cfg.KeepaliveInterval, func() {
		addrs, digest := r.table()
		r.sendKeepalives(addrs, digest)
		r.detectFailures(addrs)
	})
}

// sendKeepalives tells every neighbor we are alive and which table we
// advertise: by digest alone unless it changed since all were last sent
// it. One that missed that update pulls (onNeighborUpdate).
func (r *Router) sendKeepalives(addrs []env.Addr, digest uint64) {
	u := &neighborUpdate{Digest: digest}
	if digest != r.pushed {
		r.pushed = digest
		u = r.update(digest)
	}
	r.sendAll(addrs, u)
}

// detectFailures declares neighbors silent for FailTimeout dead and runs
// CAN's takeover: among the dead node's neighbors, the one with the
// smallest total zone volume (ties by address) adopts the dead zones.
// Every neighbor evaluates the same rule on the dead node's last
// advertised neighbor table, so the claimant is chosen without a
// coordination round.
func (r *Router) detectFailures(addrs []env.Addr) {
	now := r.env.Now()
	// Takeovers send messages: process the dead in addrs' sorted order.
	for _, dead := range addrs {
		deadInfo, ok := r.neighbors[dead]
		if !ok || now.Sub(deadInfo.lastHeard) <= r.cfg.FailTimeout {
			continue
		}
		delete(r.neighbors, dead)

		// Pick the claimant from the dead node's *advertised* neighbor
		// table only: every surviving neighbor holds (approximately) the
		// same table, the dead node's last full update, so they all
		// compute the same claimant. Using locally-known volumes instead
		// would let two nodes each believe they are smallest.
		self := r.env.Addr()
		claimant := env.NilAddr
		claimVol := math.Inf(1)
		for ca, czs := range deadInfo.nbrs {
			if ca == dead {
				continue
			}
			// Skip candidates we ourselves believe have failed.
			if cni, known := r.neighbors[ca]; known && now.Sub(cni.lastHeard) > r.cfg.FailTimeout {
				continue
			}
			v := TotalVolume(czs)
			if v < claimVol || (v == claimVol && ca < claimant) || claimant == env.NilAddr {
				claimant, claimVol = ca, v
			}
		}
		if claimant == env.NilAddr {
			// No advertised table (the node died before its first full
			// update reached us). Fall back to claiming ourselves;
			// duplicate claims are reconciled via takeoverNotice.
			claimant = self
		}
		if claimant == self {
			if r.adopted == nil {
				r.adopted = make(map[env.Addr][]Zone)
			}
			r.adopted[dead] = cloneZones(deadInfo.zones)
			r.adoptZones(dead, deadInfo.zones, deadInfo.nbrs)
		}
	}
}

func cloneZones(zs []Zone) []Zone {
	out := make([]Zone, len(zs))
	for i, z := range zs {
		out[i] = z.Clone()
	}
	return out
}

var _ dht.Router = (*Router)(nil)
