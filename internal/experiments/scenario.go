package experiments

// The one deploy-and-measure path of the simulated experiments, which
// (like the paper's, §5.2) run the implementation's own code on a
// simulator: deploy builds a deployment with its tables stored, and
// measure runs one query on it. What happens around the query (a
// warm-up before it; a drain, a settle or a cancel after it) is each
// harness's own.

import (
	"time"

	"pier"
	"pier/internal/core"
	"pier/internal/env"
	"pier/internal/topology"
	"pier/internal/workload"
)

// simTable is one relation a deployment starts with; each row's
// resourceID is its value in column key.
type simTable struct {
	name string
	key  int
	rows []*core.Tuple
}

// workloadTables is the §5.1 workload's R and S.
func workloadTables(t *workload.Tables) []simTable {
	return []simTable{{"R", workload.RPkey, t.R}, {"S", workload.SPkey, t.S}}
}

// deploy builds a stabilized n-node simulated deployment holding tables.
func deploy(n int, topo topology.Topology, seed int64, opts pier.Options, tables ...simTable) *pier.SimNetwork {
	sn := pier.NewSimNetwork(n, topo, seed, opts)
	load(sn, tables...)
	return sn
}

// load stores every row at its owner, bypassing the network (§5.2
// measures after the tables are loaded). Row i's instance id is i, and
// no row expires.
func load(sn *pier.SimNetwork, tables ...simTable) {
	for _, t := range tables {
		for i, row := range t.rows {
			sn.Load(t.name, core.ValueString(row.Vals[t.key]), int64(i), row, 0)
		}
	}
}

// measured is one query run by measure.
type measured struct {
	id       uint64
	arrivals []time.Duration // each result's arrival, from submission
	bytes    int             // the wire size of the results
	frames   uint64          // result frames all nodes had shipped before submission
	events   int             // simulator events processed
}

// measure zeroes the traffic counters, submits plan at node 0 and runs
// until want results arrived (want > 0) or limit passed. The query
// stays open.
func measure(sn *pier.SimNetwork, plan *core.Plan, want int, limit time.Duration) *measured {
	sn.Net.ResetStats()
	m := &measured{frames: resultFrames(sn)}
	start := sn.Net.Now()
	id, err := sn.Nodes[0].Query(plan, func(t *core.Tuple, _ int) {
		m.arrivals = append(m.arrivals, sn.Net.Now().Sub(start))
		m.bytes += t.WireSize()
	})
	if err != nil {
		panic(err)
	}
	m.id = id
	m.events = sn.Net.RunWhile(start.Add(limit), func() bool { return want <= 0 || len(m.arrivals) < want })
	return m
}

// last is the last result's arrival, zero when none arrived.
func (m *measured) last() time.Duration {
	if len(m.arrivals) == 0 {
		return 0
	}
	return m.arrivals[len(m.arrivals)-1]
}

// deliveryBytes is what delivering the results has cost on the
// simulated wire: the tuples, plus an empty result frame and the
// per-send header for each frame shipped since submission.
func (m *measured) deliveryBytes(sn *pier.SimNetwork) int64 {
	perFrame := env.HeaderSize + core.ResultFrameOverhead(m.id)
	return int64(m.bytes) + int64(resultFrames(sn)-m.frames)*int64(perFrame)
}

// resultFrames counts the result frames every node has shipped so far.
func resultFrames(sn *pier.SimNetwork) (n uint64) {
	for _, nd := range sn.Nodes {
		n += nd.QueryStats().ResultBatches
	}
	return n
}
