// Package topology provides the network models used by the simulator:
// the paper's fully-connected topology (100 ms latency, 10 Mbps inbound
// links, §5.2) and a GT-ITM-style transit-stub topology (§5.7). The
// cluster experiment (§5.8, Figure 8) runs real nodes over loopback TCP
// rather than a simulated cluster.
package topology

import "time"

// Topology answers latency and bandwidth questions about pairs of
// simulated nodes, identified by their simulator index. Implementations
// must be deterministic functions of the indices so that simulations are
// reproducible.
type Topology interface {
	// Latency is the one-way propagation delay between nodes a and b.
	Latency(a, b int) time.Duration

	// InboundBandwidth is the capacity of node n's inbound link in bits
	// per second. Zero means unlimited (the paper's "infinite bandwidth"
	// scenario, §5.5.1).
	InboundBandwidth(n int) float64
}

// FullMesh is the paper's baseline topology: every pair of nodes is
// connected with a fixed latency, and congestion occurs only on each
// node's inbound access link ("the network congestion occurs at the last
// hop", §5.2).
type FullMesh struct {
	// Delay is the one-way latency between any two distinct nodes.
	Delay time.Duration
	// BitsPerSec is the inbound link capacity; zero = unlimited.
	BitsPerSec float64
}

// NewFullMesh returns the paper's default configuration: 100 ms latency
// and 10 Mbps inbound links.
func NewFullMesh() *FullMesh {
	return &FullMesh{Delay: 100 * time.Millisecond, BitsPerSec: 10e6}
}

// NewFullMeshInfinite returns the 100 ms topology with unlimited
// bandwidth, used for the propagation-delay analysis of Table 4.
func NewFullMeshInfinite() *FullMesh {
	return &FullMesh{Delay: 100 * time.Millisecond}
}

// Latency implements Topology.
func (t *FullMesh) Latency(a, b int) time.Duration {
	if a == b {
		return 0
	}
	return t.Delay
}

// InboundBandwidth implements Topology.
func (t *FullMesh) InboundBandwidth(int) float64 { return t.BitsPerSec }
