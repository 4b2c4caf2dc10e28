// Package index implements a Prefix Hash Tree (PHT): a trie-structured
// range index maintained as soft state over the DHT's ordinary
// put/renew machinery. PIER concedes (§4.3, §8 of the paper) that a
// plain DHT supports only exact-match lookups, leaving every range
// predicate to run as a full-namespace scan disseminated to all n
// nodes; the PHT — the data structure the Berkeley group later built
// for exactly this gap — closes it without touching the DHT itself.
//
// # Structure
//
// An index maps an order-preserving 64-bit encoding of one attribute
// (wire.OrderedKey) onto a binary trie. Each trie node is labelled by a
// bit-string prefix and lives at the DHT key of
//
//	(pier.index, "<indexname>|<prefix>")
//
// so the trie is spread uniformly over the overlay. A *leaf* holds the
// index entries — (key, base rid, a copy of the base tuple) — whose
// encoded keys start with its prefix; an *interior* node holds a
// Marker item recording that the prefix has been split. Because a
// contiguous key range maps to a contiguous span of leaves, a range
// query visits O(matching leaves) DHT keys instead of all n nodes, and
// when the querier's marker cache is warm it asks for all of them in
// one round.
//
// # Soft state, splits, and merges
//
// Everything is an ordinary storage item with a lifetime:
//
//   - entries are published (and re-published on every base-tuple
//     renew) by the data's publisher, with the base tuple's lifetime —
//     an unrefreshed entry ages out exactly like its tuple;
//   - markers are renewed by the maintenance tick of every node that
//     stores entries somewhere below them (each leaf owner re-puts its
//     ancestor chain), so interior structure stays alive exactly as
//     long as data justifies it and re-materializes within one tick if
//     a marker is lost to a crash;
//   - when a leaf overflows SplitThreshold, its owner puts a marker at
//     the leaf's own prefix and relocates each entry one level down by
//     its next key bit; when a leaf underflows mergeThreshold and its
//     sibling subtree is empty, its owner relocates the entries to the
//     parent and tombstones the parent's marker (a zero-lifetime
//     re-put), shrinking the trie again.
//
// No operation requires more than local state plus single-key gets, so
// every transition is safe under churn: a missed relocation, a stale
// publisher writing to a since-split leaf, or a lost marker is healed
// by the next maintenance tick, and range traversal tolerates the
// intermediate states (it re-checks bounds per entry and callers
// deduplicate by entry identity).
package index

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"pier/internal/core"
	"pier/internal/dht/provider"
	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/wire"
)

// NS is the reserved DHT namespace holding every index's trie nodes
// (entries and markers).
const NS = "pier.index"

// DefNS is the reserved DHT namespace holding index definitions, keyed
// by table name so a publisher discovers all indexes of a table with
// one get.
const DefNS = "pier.index.def"

// AnnounceNS tags the multicast that disseminates a new index
// definition to every live node (late joiners fall back to DefNS).
const AnnounceNS = "pier.index"

// markerIID is the fixed instanceID of a trie node's interior marker,
// so renewals and tombstones replace rather than accumulate.
const markerIID = 1

// Def describes one index: a name (unique across the deployment), the
// table it covers, and the indexed column. The admin plane serves it
// under these JSON names.
type Def struct {
	// Name identifies the index; trie-node resourceIDs are
	// "<Name>|<prefix>", so names must not contain '|'.
	Name string `json:"name"`
	// Table is the indexed relation's namespace.
	Table string `json:"table"`
	// Col is the indexed column's name (for planners and humans).
	Col string `json:"col"`
	// ColIdx is the indexed column's position in the base tuple.
	ColIdx int `json:"col_idx"`
}

// WireSize implements env.Message (definitions ride in DHT puts and the
// announce multicast).
func (d *Def) WireSize() int { return wire.Size(d) }

// Validate rejects definitions the resourceID scheme cannot represent.
func (d *Def) Validate() error {
	if d.Name == "" || d.Table == "" || d.Col == "" {
		return fmt.Errorf("index: definition needs name, table, and column")
	}
	if strings.ContainsAny(d.Name, "|") {
		return fmt.Errorf("index: name %q must not contain '|'", d.Name)
	}
	if d.ColIdx < 0 {
		return fmt.Errorf("index: negative column position")
	}
	return nil
}

// Entry is one index entry stored at a trie leaf: the encoded key, the
// identity of the base tuple, and an index-organized copy of the tuple
// itself, so a range traversal returns rows without a second fetch
// round per match.
type Entry struct {
	// K is the order-preserving encoded key (wire.OrderedKey of the
	// indexed column).
	K uint64
	// RID and IID identify the base tuple; readers deduplicate on them
	// while the trie rebalances.
	RID string
	IID int64
	// T is the copied base tuple.
	T *core.Tuple
}

// WireSize implements env.Message.
func (e *Entry) WireSize() int { return wire.Size(e) }

// Marker records that a trie node has been split; its presence (under
// instanceID markerIID) makes the node interior.
type Marker struct{}

// WireSize implements env.Message.
func (m *Marker) WireSize() int { return wire.Size(m) }

// Config controls one node's index agent. New resolves a zero field to
// its default; Manager.Config reports the resolved values. The rest
// follows from Interval: markers live 3×Interval and the node's marker
// cache holds for Interval (3 minutes and 30 seconds when the loop is
// off).
type Config struct {
	// Interval is the maintenance period: how often the node splits
	// overflowing local leaves, merges underflowing ones, relocates
	// misplaced entries, and renews the marker chains above its leaves.
	// Zero disables the loop (explicit Tick calls still work).
	Interval time.Duration

	// SplitThreshold is the leaf occupancy beyond which the owner
	// splits (default 16).
	SplitThreshold int

	// MaxDepth bounds trie depth — leaves at MaxDepth never split, so
	// heavily duplicated keys degrade into one fat leaf instead of an
	// unbounded chain (default 24, of the 64 encoded key bits; a value
	// past 64 also means 24).
	MaxDepth int
}

// Enabled reports whether the maintenance loop should run.
func (c Config) Enabled() bool { return c.Interval > 0 }

// mergeThreshold is the leaf occupancy at or below which the owner
// tries to merge with an empty sibling.
const mergeThreshold = 4

// Manager is one node's index agent: definition registry (announce
// listener, DHT fetch-through, creator-side renewal), publisher-side
// entry insertion, the trie maintenance tick, and the range-scan reader
// the query engine calls through core.IndexRanger. Like all node state
// it runs on the node's single-threaded event loop.
type Manager struct {
	env  env.Env
	prov *provider.Provider
	cfg  Config

	// markerLifetime bounds interior markers between renewals, so a
	// subtree survives two missed ticks. cacheTTL bounds the marker
	// cache that lets inserts skip re-probing known-interior prefixes
	// and range walks ask for their children early (and the definition
	// fetch's negative cache). New derives both from cfg.Interval.
	markerLifetime time.Duration
	cacheTTL       time.Duration

	stop func()

	// defs caches index definitions by table; lastFetch implements the
	// fetch-through (and negative cache) for tables this node publishes
	// into without having seen an announce. defMisses counts
	// consecutive maintenance-tick refreshes that found a cached
	// definition gone from DefNS — the cache's own aging, so an index
	// whose creator died stops being maintained here too.
	defs      map[string][]Def
	lastFetch map[string]time.Time
	fetching  map[string]bool
	defMisses map[string]int

	// created holds the definitions this node created, re-published
	// every tick with their original lifetime.
	created     map[string]Def
	createdLife map[string]time.Duration

	// markerSeen caches trie prefixes recently observed interior, so an
	// insert walk descends through them without a probe per level and a
	// range walk asks for their children early. Tick ages it.
	markerSeen map[string]time.Time

	// Range walks started and the trie nodes they fetched; of those,
	// the gets issued from markerSeen before their parent answered
	// (ahead) and the ones whose parent then answered without a marker
	// (wasted).
	scans, visits, ahead, wasted int64
}

// New builds an index agent over the node's provider and subscribes it
// to definition announces. Call Start to run the maintenance loop.
func New(e env.Env, prov *provider.Provider, cfg Config) *Manager {
	env.OrDefault(&cfg.SplitThreshold, 16)
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > wire.OrderedKeyBits {
		cfg.MaxDepth = 24
	}
	// All seven bookkeeping maps stay nil until first insert: a node
	// that neither creates nor hears about an index pays nothing.
	m := &Manager{env: e, prov: prov, cfg: cfg, markerLifetime: 3 * time.Minute, cacheTTL: 30 * time.Second}
	if cfg.Enabled() {
		m.markerLifetime, m.cacheTTL = 3*cfg.Interval, cfg.Interval
	}
	prov.OnMulticast(func(origin env.Addr, ns string, payload env.Message) {
		if ns != AnnounceNS {
			return
		}
		if d, ok := payload.(*Def); ok && d.Validate() == nil {
			m.register(*d)
		}
	})
	return m
}

// Config returns the agent's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Start launches the periodic maintenance loop; a no-op when disabled
// or already running.
func (m *Manager) Start() {
	if !m.cfg.Enabled() || m.stop != nil {
		return
	}
	m.stop = env.Every(m.env, m.cfg.Interval, m.Tick)
}

// Stop halts the maintenance loop (entries and markers age out on
// their own). Safe to call repeatedly.
func (m *Manager) Stop() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// Stats reports the cumulative reader-side counters (see Manager).
// Experiment harnesses diff them around a query to count the nodes an
// index scan contacted.
func (m *Manager) Stats() (scans, visits, ahead, wasted int64) {
	return m.scans, m.visits, m.ahead, m.wasted
}

// Create announces a new index deployment-wide: the definition is
// stored in the DHT (under DefNS, renewed by this node's tick for
// lifetime at a time) and multicast to every live node, whose agents
// backfill entries for local base tuples and index every subsequent
// publish. Create returns once the puts are issued; the trie then
// builds and balances asynchronously over the next maintenance ticks.
func (m *Manager) Create(def Def, lifetime time.Duration) error {
	if err := def.Validate(); err != nil {
		return err
	}
	// Names identify tries: a second definition under an existing name
	// but a different shape would make planners attach ranges encoded
	// from one column to a trie keyed on another, silently pruning
	// matching rows. Refuse what this node can see is a conflict
	// (registration elsewhere is first-wins, so a racing remote
	// conflict degrades to this same answer).
	for _, tbl := range env.SortedKeys(m.defs) {
		for _, d := range m.defs[tbl] {
			if d.Name == def.Name && d != def {
				return fmt.Errorf("index: name %q already in use for %s(%s)", def.Name, d.Table, d.Col)
			}
		}
	}
	if lifetime <= 0 {
		lifetime = time.Hour
	}
	if m.created == nil {
		m.created = make(map[string]Def)
		m.createdLife = make(map[string]time.Duration)
	}
	m.created[def.Name] = def
	m.createdLife[def.Name] = lifetime
	d := def
	m.prov.Put(DefNS, def.Table, core.StableIID(def.Name), &d, lifetime)
	m.prov.Multicast(AnnounceNS, &d)
	return nil
}

// Defs returns the cached index definitions covering a table.
func (m *Manager) Defs(table string) []Def { return m.defs[table] }

// AllDefs returns every index definition this node's agent currently
// knows (announced, fetched, or created here), sorted by table then
// name — the admin plane's GET /api/indexes listing.
func (m *Manager) AllDefs() []Def {
	var out []Def
	for _, table := range env.SortedKeys(m.defs) {
		defs := append([]Def(nil), m.defs[table]...)
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		out = append(out, defs...)
	}
	return out
}

// register adds a definition to the cache and inserts entries for
// every base tuple of the table already stored locally (with the
// tuple's remaining lifetime), which is what turns CREATE INDEX on
// existing data into a distributed, per-node local scan.
func (m *Manager) register(def Def) {
	m.setLastFetch(def.Table)
	for _, d := range m.defs[def.Table] {
		if d.Name == def.Name {
			return
		}
	}
	if m.defs == nil {
		m.defs = make(map[string][]Def)
	}
	m.defs[def.Table] = append(m.defs[def.Table], def)
	now := m.env.Now()
	type pending struct {
		rid      string
		iid      int64
		t        *core.Tuple
		lifetime time.Duration
	}
	var todo []pending
	m.prov.Scan(def.Table, func(it *storage.Item) bool {
		t, ok := it.Payload.(*core.Tuple)
		if !ok {
			return true
		}
		var lt time.Duration
		if !it.Expires.IsZero() {
			lt = it.Expires.Sub(now)
		}
		todo = append(todo, pending{rid: it.ResourceID, iid: it.InstanceID, t: t, lifetime: lt})
		return true
	})
	for _, p := range todo {
		m.Insert(def, p.rid, p.iid, p.t, p.lifetime)
	}
}

// OnPublish indexes one published (or renewed) base tuple under every
// index of its table. A table with no cached definitions triggers an
// async DefNS fetch, so a late-joining publisher starts indexing from
// its next renew onward.
func (m *Manager) OnPublish(table, rid string, iid int64, t *core.Tuple, lifetime time.Duration) {
	defs, known := m.defs[table]
	if !known {
		m.fetchDefs(table)
		return
	}
	for _, def := range defs {
		m.Insert(def, rid, iid, t, lifetime)
	}
}

// defMissLimit is how many consecutive tick refreshes must find a
// cached definition missing from DefNS before the cache drops it (one
// unreachable owner or lost reply must not kill a live index).
const defMissLimit = 2

// refreshDefs re-validates the cached definitions of every table
// against DefNS, dropping any that stayed gone for defMissLimit
// consecutive refreshes. This is the cache's expiry: once a dead
// creator's DefNS item ages out, every node stops re-inserting entries
// and renewing marker chains for the orphaned trie, and it dissolves
// like any other unrefreshed soft state.
func (m *Manager) refreshDefs() {
	for _, table := range env.SortedKeys(m.defs) {
		table := table
		if m.fetching[table] {
			continue
		}
		m.setFetching(table)
		m.prov.Get(DefNS, table, func(items []*storage.Item) {
			delete(m.fetching, table)
			m.setLastFetch(table)
			found := map[string]bool{}
			for _, it := range items {
				if d, ok := it.Payload.(*Def); ok {
					found[d.Name] = true
				}
			}
			kept := m.defs[table][:0]
			for _, d := range m.defs[table] {
				if found[d.Name] || m.created[d.Name] == d {
					delete(m.defMisses, d.Name)
					kept = append(kept, d)
					continue
				}
				if m.bumpDefMiss(d.Name); m.defMisses[d.Name] < defMissLimit {
					kept = append(kept, d)
					continue
				}
				delete(m.defMisses, d.Name)
			}
			if len(kept) == 0 {
				delete(m.defs, table)
				return
			}
			m.defs[table] = kept
		})
	}
}

// fetchDefs resolves a table's index definitions from the DHT, with an
// in-flight guard and a negative cache one cacheTTL long.
func (m *Manager) fetchDefs(table string) {
	if m.fetching[table] {
		return
	}
	if at, ok := m.lastFetch[table]; ok && m.env.Now().Sub(at) < m.cacheTTL {
		return
	}
	m.setFetching(table)
	m.prov.Get(DefNS, table, func(items []*storage.Item) {
		delete(m.fetching, table)
		m.setLastFetch(table)
		for _, it := range items {
			if d, ok := it.Payload.(*Def); ok && d.Validate() == nil {
				m.register(*d)
			}
		}
	})
}

// Insert places one index entry at the trie leaf currently covering
// its key: descend from the root through interior markers (skipping
// levels the marker cache has seen recently), then put the entry at
// the first prefix without one. A concurrent split can leave the entry
// one level too high; the leaf owner's next tick relocates it.
func (m *Manager) Insert(def Def, rid string, iid int64, t *core.Tuple, lifetime time.Duration) {
	k := wire.OrderedKey(t.At(def.ColIdx))
	m.place(def.Name, k, &Entry{K: k, RID: rid, IID: iid, T: t}, lifetime, 0)
}

func (m *Manager) place(name string, k uint64, e *Entry, lifetime time.Duration, depth int) {
	max := m.cfg.MaxDepth
	for depth < max && m.markerFresh(nodeRID(name, k, depth)) {
		depth++
	}
	rid := nodeRID(name, k, depth)
	if depth >= max {
		m.putEntry(rid, e, lifetime)
		return
	}
	m.prov.Get(NS, rid, func(items []*storage.Item) {
		if hasMarker(items) {
			m.sawMarker(rid)
			m.place(name, k, e, lifetime, depth+1)
			return
		}
		m.putEntry(rid, e, lifetime)
	})
}

func (m *Manager) putEntry(rid string, e *Entry, lifetime time.Duration) {
	m.prov.Put(NS, rid, entryIID(e), e, lifetime)
}

func (m *Manager) markerFresh(rid string) bool {
	at, ok := m.markerSeen[rid]
	return ok && m.env.Now().Sub(at) < m.cacheTTL
}

func (m *Manager) sawMarker(rid string) {
	if m.markerSeen == nil {
		m.markerSeen = make(map[string]time.Time)
	}
	m.markerSeen[rid] = m.env.Now()
}

// setFetching, setLastFetch, and bumpDefMiss are the lazy-allocating
// insert paths of the corresponding bookkeeping maps.
func (m *Manager) setFetching(table string) {
	if m.fetching == nil {
		m.fetching = make(map[string]bool)
	}
	m.fetching[table] = true
}

func (m *Manager) setLastFetch(table string) {
	if m.lastFetch == nil {
		m.lastFetch = make(map[string]time.Time)
	}
	m.lastFetch[table] = m.env.Now()
}

func (m *Manager) bumpDefMiss(name string) {
	if m.defMisses == nil {
		m.defMisses = make(map[string]int)
	}
	m.defMisses[name]++
}

// --- naming helpers -----------------------------------------------------

// nodeRID is the resourceID of the trie node at the given depth along
// key k's path.
func nodeRID(name string, k uint64, depth int) string {
	var sb strings.Builder
	sb.Grow(len(name) + 1 + depth)
	sb.WriteString(name)
	sb.WriteByte('|')
	for i := 0; i < depth; i++ {
		sb.WriteByte('0' + byte(bitAt(k, i)))
	}
	return sb.String()
}

// parseRID splits a trie-node resourceID back into index name and
// prefix bits.
func parseRID(rid string) (name, bits string, ok bool) {
	i := strings.IndexByte(rid, '|')
	if i < 0 {
		return "", "", false
	}
	name, bits = rid[:i], rid[i+1:]
	for j := 0; j < len(bits); j++ {
		if bits[j] != '0' && bits[j] != '1' {
			return "", "", false
		}
	}
	return name, bits, true
}

// bitAt returns bit i (0 = most significant) of an encoded key.
func bitAt(k uint64, i int) int { return int(k >> (63 - i) & 1) }

// prefixRange returns the inclusive encoded-key interval a prefix
// covers.
func prefixRange(bits string) (lo, hi uint64) {
	hi = ^uint64(0)
	for i := 0; i < len(bits); i++ {
		if bits[i] == '1' {
			lo |= 1 << (63 - i)
		} else {
			hi &^= 1 << (63 - i)
		}
	}
	return lo, hi
}

// entryIID derives the stable storage instanceID of an entry from the
// base tuple's identity, so a publisher's renew replaces the previous
// entry instead of accumulating next to it.
func entryIID(e *Entry) int64 {
	h := fnv.New64a()
	h.Write([]byte(e.RID))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(e.IID) >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}

func hasMarker(items []*storage.Item) bool {
	for _, it := range items {
		if _, ok := it.Payload.(*Marker); ok {
			return true
		}
	}
	return false
}
