package pier

import (
	"fmt"
	"time"

	"pier/internal/core"
	"pier/internal/dht"
	"pier/internal/dht/can"
	"pier/internal/dht/chord"
	"pier/internal/dht/storage"
	"pier/internal/simnet"
	"pier/internal/topology"
)

// SimNetwork is a simulated PIER deployment: n nodes over a discrete-
// event network, with the overlay pre-stabilized ("All measurements ...
// are performed after the CAN routing stabilizes", §5.2).
type SimNetwork struct {
	// Net is the underlying simulator (clock, Run, Kill, Stats).
	Net   *simnet.Network
	Nodes []*Node

	opts   Options
	canSM  *can.SpaceMap
	chords []*chord.Router
	cans   []*can.Router
}

// NewSimNetwork builds a stabilized n-node simulated deployment over the
// given topology.
func NewSimNetwork(n int, topo topology.Topology, seed int64, opts Options) *SimNetwork {
	sn := &SimNetwork{Net: simnet.New(topo, seed), opts: opts}
	for i := 0; i < n; i++ {
		sn.addNode()
	}
	switch opts.DHT {
	case Chord:
		chord.Bootstrap(sn.chords)
	default:
		sn.canSM = can.Bootstrap(sn.cans, seed^0x51ca90)
	}
	return sn
}

func (sn *SimNetwork) addNode() *Node {
	e := sn.Net.AddNode()
	node := buildNode(e, sn.opts)
	sn.Nodes = append(sn.Nodes, node)
	switch rt := node.router.(type) {
	case *can.Router:
		sn.cans = append(sn.cans, rt)
	case *chord.Router:
		sn.chords = append(sn.chords, rt)
	}
	return node
}

// AddNode joins one extra node to the running network through the given
// landmark node index (protocol join, used by churn experiments).
func (sn *SimNetwork) AddNode(landmark int) *Node {
	node := sn.addNode()
	lm := sn.Nodes[landmark].Addr()
	node.router.Join(lm)
	return node
}

// Join is AddNode under the lifecycle vocabulary of the chaos harness:
// a fresh node enters the overlay through the landmark. It returns the
// new node's index.
func (sn *SimNetwork) Join(landmark int) int {
	sn.AddNode(landmark)
	return len(sn.Nodes) - 1
}

// Leave departs node i gracefully: its zone and stored soft state
// transfer to a peer (§5.6's clean-shutdown contrast to a crash), then
// the process goes away — pending timers are reclaimed and later
// messages to it drop. The transfer messages are already in flight
// before the kill, so nothing the node owned is lost.
func (sn *SimNetwork) Leave(i int) {
	sn.Nodes[i].Leave()
	sn.Net.Kill(i)
}

// Crash fails node i abruptly: its tuples are lost and messages to it
// are dropped (§5.6). Alias of Kill, named for the chaos vocabulary.
func (sn *SimNetwork) Crash(i int) { sn.Net.Kill(i) }

// Restart models a node that crashes and comes back: the process at
// index i dies and a fresh identity rejoins through the landmark —
// rejoining nodes get new addresses and empty stores, exactly like a
// new participant (DHT identities are not durable). It returns the new
// node's index.
func (sn *SimNetwork) Restart(i, landmark int) int {
	sn.Crash(i)
	return sn.Join(landmark)
}

// Partition splits the network into islands (see simnet.Network.
// Partition); Heal removes it. Messages across islands are dropped.
func (sn *SimNetwork) Partition(groups ...[]int) { sn.Net.Partition(groups...) }

// Heal removes the current partition.
func (sn *SimNetwork) Heal() { sn.Net.Heal() }

// SetLoss sets the global per-message loss probability of the
// underlying simulated network.
func (sn *SimNetwork) SetLoss(p float64) { sn.Net.SetLoss(p) }

// Owner returns the index of the node responsible for
// (namespace, resourceID).
func (sn *SimNetwork) Owner(namespace, resourceID string) int {
	if sn.canSM != nil {
		return sn.canSM.OwnerOf(namespace, resourceID)
	}
	k := dht.KeyOf(namespace, resourceID)
	for i, node := range sn.Nodes {
		if node.router.Owns(k) {
			return i
		}
	}
	return -1
}

// Load bulk-inserts a tuple directly at its responsible node, bypassing
// the network: the paper's experiments begin after tables are loaded
// into the DHT (§5.2). lifetime zero means no expiry.
func (sn *SimNetwork) Load(table, resourceID string, instanceID int64, t *Tuple, lifetime time.Duration) {
	owner := sn.Owner(table, resourceID)
	if owner < 0 {
		panic(fmt.Sprintf("pier: no owner for %s/%s", table, resourceID))
	}
	it := &storage.Item{Namespace: table, ResourceID: resourceID, InstanceID: instanceID, Payload: t}
	if lifetime > 0 {
		it.Expires = sn.Net.Now().Add(lifetime)
	}
	sn.Nodes[owner].provider.StoreLocal(it)
}

// RunFor advances the simulation by d of virtual time.
func (sn *SimNetwork) RunFor(d time.Duration) { sn.Net.RunFor(d) }

// RunUntil processes events until done() reports true or the deadline
// elapses; it returns whether done() was reached.
func (sn *SimNetwork) RunUntil(limit time.Duration, done func() bool) bool {
	deadline := sn.Net.Now().Add(limit)
	sn.Net.RunWhile(deadline, func() bool { return !done() })
	return done()
}

// Kill fails node i (crash: its tuples are lost and messages to it are
// dropped, §5.6).
func (sn *SimNetwork) Kill(i int) { sn.Net.Kill(i) }

// Alive reports whether node i is up.
func (sn *SimNetwork) Alive(i int) bool { return sn.Net.Alive(i) }

// QueryFrom runs a plan from node i. See Node.Query.
func (sn *SimNetwork) QueryFrom(i int, p *Plan, fn ResultFunc) (uint64, error) {
	return sn.Nodes[i].Query(p, fn)
}

// Collect runs a plan from node i, drives the simulation until either
// want results arrived (want > 0) or no further progress is possible
// within limit, and returns the collected tuples with their virtual
// arrival times.
func (sn *SimNetwork) Collect(i int, p *Plan, want int, limit time.Duration) ([]*Tuple, []time.Time, error) {
	var tuples []*Tuple
	var times []time.Time
	id, err := sn.Nodes[i].Query(p, func(t *core.Tuple, window int) {
		tuples = append(tuples, t)
		times = append(times, sn.Net.Now())
	})
	if err != nil {
		return nil, nil, err
	}
	defer sn.Nodes[i].Cancel(id)
	sn.RunUntil(limit, func() bool { return want > 0 && len(tuples) >= want })
	return tuples, times, nil
}
