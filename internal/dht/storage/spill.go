package storage

// Spill adds a disk tier under the Bounded store: quota evictions are
// captured by the evict hook and appended to a log file instead of
// being discarded, and reads transparently merge the memory and disk
// tiers. A renew (re-Store) of a spilled item promotes it back to
// memory. The log is append-only with tombstones for deletes and
// promotions; it compacts in place once dead bytes outweigh live ones.
//
// The spill tier is for real nodes (cmd/pier-node -spill-dir); the
// simulator's byte-charging model (Usage) intentionally counts only
// the memory tier.

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// spillLogName is the log file created inside the spill directory.
const spillLogName = "spill.log"

// compactMinDead is the dead-byte floor below which compaction is not
// worth the rewrite.
const compactMinDead = 64 << 10

// Record kinds in the log.
const (
	recPut       = 0 // a spilled item follows
	recTombstone = 1 // identity-only item follows; deletes a prior put
)

// Spill is the disk-backed Store: a Bounded memory tier whose
// evictions overflow to an append-compact log. Event-loop confined
// like every Store; Close must run before the owning node's transport
// stops.
type Spill struct {
	b   *Bounded
	now func() time.Time
	dir string
	f   *os.File
	end int64 // append offset

	refs      map[string]map[string]map[int64]spillRef
	exp       spillHeap
	refCount  int
	liveBytes int64
	deadBytes int64

	spilledItems int64
	spilledBytes int64
}

// spillRef locates one live spilled item in the log.
type spillRef struct {
	off     int64
	size    int64 // full record size including header
	expires time.Time
}

// NewSpill opens (or creates) the spill log in dir and replays it,
// then stacks the bounded memory tier on top. Items that expired while
// the node was down are dropped during replay.
func NewSpill(now func() time.Time, cfg BoundedConfig, dir string) (*Spill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: spill dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, spillLogName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: spill log: %w", err)
	}
	s := &Spill{
		b:    NewBounded(now, cfg),
		now:  now,
		dir:  dir,
		f:    f,
		refs: make(map[string]map[string]map[int64]spillRef),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	s.b.SetEvictHook(s.spillOut)
	return s, nil
}

// Close flushes and closes the log file. The store must not be used
// afterwards.
func (s *Spill) Close() error { return s.f.Close() }

// Store inserts into the memory tier; a spilled item with the same
// identity is promoted (its disk copy is tombstoned first, so the
// tiers never both hold an identity).
func (s *Spill) Store(it *Item) {
	if ref, ok := s.ref(it.Namespace, it.ResourceID, it.InstanceID); ok {
		s.dropRef(it.Namespace, it.ResourceID, it.InstanceID, ref)
	}
	s.b.Store(it)
}

// Retrieve merges the live items of both tiers, sorted by instanceID.
func (s *Spill) Retrieve(namespace, resourceID string) []*Item {
	out := s.b.Retrieve(namespace, resourceID)
	rids := s.refs[namespace]
	if len(rids[resourceID]) == 0 {
		return out
	}
	now := s.now()
	for _, iid := range env.SortedKeys(rids[resourceID]) {
		ref := rids[resourceID][iid]
		if !ref.expires.IsZero() && !ref.expires.After(now) {
			continue
		}
		if it, err := s.read(ref); err == nil {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InstanceID < out[j].InstanceID })
	return out
}

// Remove deletes the identity from whichever tier holds it.
func (s *Spill) Remove(namespace, resourceID string, instanceID int64) bool {
	if s.b.Remove(namespace, resourceID, instanceID) {
		return true
	}
	ref, ok := s.ref(namespace, resourceID, instanceID)
	if !ok {
		return false
	}
	s.dropRef(namespace, resourceID, instanceID, ref)
	return true
}

// Scan iterates the namespace's live items of both tiers merged in
// sorted (resourceID, instanceID) order.
func (s *Spill) Scan(namespace string, f func(*Item) bool) {
	s.scanMerged(namespace, f)
}

// ScanAll iterates every live item of both tiers in sorted order.
func (s *Spill) ScanAll(f func(*Item) bool) {
	for _, ns := range s.Namespaces() {
		stopped := false
		s.scanMerged(ns, func(it *Item) bool {
			ok := f(it)
			stopped = !ok
			return ok
		})
		if stopped {
			return
		}
	}
}

// Namespaces lists namespaces with at least one item in either tier.
func (s *Spill) Namespaces() []string {
	seen := map[string]bool{}
	for _, ns := range s.b.Namespaces() {
		seen[ns] = true
	}
	for ns, rids := range s.refs {
		if len(rids) > 0 {
			seen[ns] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ns := range seen {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}

// Len counts the namespace's items across both tiers.
func (s *Spill) Len(namespace string) int {
	n := s.b.Len(namespace)
	for _, insts := range s.refs[namespace] {
		n += len(insts)
	}
	return n
}

// TotalLen counts items across all namespaces and both tiers.
func (s *Spill) TotalLen() int { return s.b.TotalLen() + s.refCount }

// NextExpiry reports the earliest pending expiry in either tier.
func (s *Spill) NextExpiry() (time.Time, bool) {
	at, ok := s.b.NextExpiry()
	for len(s.exp) > 0 {
		e := s.exp[0]
		if ref, live := s.ref(e.ns, e.rid, e.iid); !live || ref.off != e.off {
			heap.Pop(&s.exp) // stale: promoted, removed, or rewritten
			continue
		}
		if !ok || e.at.Before(at) {
			return e.at, true
		}
		break
	}
	return at, ok
}

// SweepExpired removes expired items from both tiers and returns them.
func (s *Spill) SweepExpired() []*Item {
	out := s.b.SweepExpired()
	now := s.now()
	for len(s.exp) > 0 {
		e := s.exp[0]
		ref, live := s.ref(e.ns, e.rid, e.iid)
		if !live || ref.off != e.off {
			heap.Pop(&s.exp)
			continue
		}
		if e.at.After(now) {
			break
		}
		heap.Pop(&s.exp)
		it, err := s.read(ref)
		s.dropRef(e.ns, e.rid, e.iid, ref)
		if err == nil {
			out = append(out, it)
		}
	}
	return out
}

// Usage reports the memory tier only: spilled items are exactly the
// bytes the quota pushed out of memory.
func (s *Spill) Usage() Usage { return s.b.Usage() }

// Stats reports eviction counters plus the spill tier's.
func (s *Spill) Stats() Stats {
	st := s.b.Stats()
	st.ItemsSpilled = s.spilledItems
	st.BytesSpilled = s.spilledBytes
	st.SpilledLive = s.refCount
	return st
}

// OverHighWater implements PressureReporter via the memory tier.
func (s *Spill) OverHighWater(namespace string) bool { return s.b.OverHighWater(namespace) }

// Compact rewrites the log keeping only live records. It runs
// automatically once dead bytes outweigh live ones (and exceed a
// floor); exported for tests and admin tooling.
func (s *Spill) Compact() error {
	tmpPath := filepath.Join(s.dir, spillLogName+".tmp")
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	newRefs := make(map[string]map[string]map[int64]spillRef)
	var off int64
	var fail error
	for _, ns := range env.SortedKeys(s.refs) {
		rids := s.refs[ns]
		for _, rid := range env.SortedKeys(rids) {
			for _, iid := range env.SortedKeys(rids[rid]) {
				ref := rids[rid][iid]
				it, err := s.read(ref)
				if err != nil {
					continue // unreadable record: drop it
				}
				rec, err := encodeRecord(recPut, it)
				if err != nil {
					fail = err
					continue
				}
				if _, err := w.Write(rec); err != nil {
					fail = err
					break
				}
				nr := newRefs[ns]
				if nr == nil {
					nr = make(map[string]map[int64]spillRef)
					newRefs[ns] = nr
				}
				ir := nr[rid]
				if ir == nil {
					ir = make(map[int64]spillRef)
					nr[rid] = ir
				}
				ir[iid] = spillRef{off: off, size: int64(len(rec)), expires: ref.expires}
				off += int64(len(rec))
			}
		}
	}
	if err := w.Flush(); err != nil && fail == nil {
		fail = err
	}
	if err := tmp.Close(); err != nil && fail == nil {
		fail = err
	}
	if fail != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("storage: compact: %w", fail)
	}
	path := filepath.Join(s.dir, spillLogName)
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("storage: compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: compact: %w", err)
	}
	s.f.Close()
	s.f = f
	s.end = off
	s.liveBytes = off
	s.deadBytes = 0
	s.refs = newRefs
	s.rebuildHeap()
	return nil
}

// spillOut is the Bounded evict hook: the victim moves to disk.
func (s *Spill) spillOut(it *Item) {
	rec, err := encodeRecord(recPut, it)
	if err != nil {
		return // unencodable payload: the item is simply lost
	}
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return
	}
	ref := spillRef{off: s.end, size: int64(len(rec)), expires: it.Expires}
	s.end += ref.size
	s.liveBytes += ref.size
	s.putRef(it.Namespace, it.ResourceID, it.InstanceID, ref)
	if !it.Expires.IsZero() {
		heap.Push(&s.exp, spillExp{at: it.Expires, ns: it.Namespace, rid: it.ResourceID, iid: it.InstanceID, off: ref.off})
	}
	s.spilledItems++
	s.spilledBytes += int64(it.WireSize())
	s.maybeCompact()
}

// dropRef tombstones and forgets one spilled record.
func (s *Spill) dropRef(ns, rid string, iid int64, ref spillRef) {
	rec, err := encodeRecord(recTombstone, &Item{Namespace: ns, ResourceID: rid, InstanceID: iid})
	if err == nil {
		if _, err := s.f.WriteAt(rec, s.end); err == nil {
			s.end += int64(len(rec))
			s.deadBytes += int64(len(rec))
		}
	}
	s.deadBytes += ref.size
	s.liveBytes -= ref.size
	rids := s.refs[ns]
	delete(rids[rid], iid)
	if len(rids[rid]) == 0 {
		delete(rids, rid)
	}
	if len(rids) == 0 {
		delete(s.refs, ns)
	}
	s.refCount--
	s.maybeCompact()
}

func (s *Spill) putRef(ns, rid string, iid int64, ref spillRef) {
	rids := s.refs[ns]
	if rids == nil {
		rids = make(map[string]map[int64]spillRef)
		s.refs[ns] = rids
	}
	insts := rids[rid]
	if insts == nil {
		insts = make(map[int64]spillRef)
		rids[rid] = insts
	}
	if old, ok := insts[iid]; ok {
		s.deadBytes += old.size
		s.liveBytes -= old.size
	} else {
		s.refCount++
	}
	insts[iid] = ref
}

func (s *Spill) ref(ns, rid string, iid int64) (spillRef, bool) {
	insts := s.refs[ns][rid]
	if insts == nil {
		return spillRef{}, false
	}
	ref, ok := insts[iid]
	return ref, ok
}

// read loads and decodes the record at ref.
func (s *Spill) read(ref spillRef) (*Item, error) {
	buf := make([]byte, ref.size)
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		return nil, err
	}
	_, body, err := splitRecord(buf)
	if err != nil {
		return nil, err
	}
	m, err := wire.Unmarshal(body)
	if err != nil {
		return nil, err
	}
	it, ok := m.(*Item)
	if !ok {
		return nil, fmt.Errorf("storage: spill record is not an item")
	}
	return it, nil
}

// load replays the log sequentially, rebuilding refs. Later records
// supersede earlier ones; tombstones delete; items already expired are
// skipped (their bytes counted dead).
func (s *Spill) load() error {
	r := bufio.NewReader(s.f)
	now := s.now()
	var off int64
	for {
		hdr, body, n, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn tail (crash mid-append) loses only the final
			// record; everything before it is intact.
			break
		}
		recOff, recSize := off, int64(n)
		off += recSize
		m, err := wire.Unmarshal(body)
		if err != nil {
			s.deadBytes += recSize
			continue
		}
		it, ok := m.(*Item)
		if !ok {
			s.deadBytes += recSize
			continue
		}
		if prev, had := s.ref(it.Namespace, it.ResourceID, it.InstanceID); had {
			s.deadBytes += prev.size
			s.liveBytes -= prev.size
			rids := s.refs[it.Namespace]
			delete(rids[it.ResourceID], it.InstanceID)
			if len(rids[it.ResourceID]) == 0 {
				delete(rids, it.ResourceID)
			}
			if len(rids) == 0 {
				delete(s.refs, it.Namespace)
			}
			s.refCount--
		}
		if hdr == recTombstone || (!it.Expires.IsZero() && !it.Expires.After(now)) {
			s.deadBytes += recSize
			continue
		}
		s.liveBytes += recSize
		s.putRef(it.Namespace, it.ResourceID, it.InstanceID,
			spillRef{off: recOff, size: recSize, expires: it.Expires})
	}
	s.end = off
	s.rebuildHeap()
	return nil
}

func (s *Spill) rebuildHeap() {
	s.exp = s.exp[:0]
	for ns, rids := range s.refs {
		for rid, insts := range rids {
			for iid, ref := range insts {
				if !ref.expires.IsZero() {
					s.exp = append(s.exp, spillExp{at: ref.expires, ns: ns, rid: rid, iid: iid, off: ref.off})
				}
			}
		}
	}
	heap.Init(&s.exp)
}

func (s *Spill) maybeCompact() {
	if s.deadBytes > s.liveBytes && s.deadBytes > compactMinDead {
		s.Compact() // best-effort; the log stays valid on failure
	}
}

// scanMerged iterates the union of both tiers for one namespace in
// sorted (resourceID, instanceID) order.
func (s *Spill) scanMerged(namespace string, f func(*Item) bool) {
	rids := s.refs[namespace]
	if len(rids) == 0 {
		s.b.Scan(namespace, f)
		return
	}
	var items []*Item
	s.b.Scan(namespace, func(it *Item) bool {
		items = append(items, it)
		return true
	})
	now := s.now()
	for _, rid := range env.SortedKeys(rids) {
		for _, iid := range env.SortedKeys(rids[rid]) {
			ref := rids[rid][iid]
			if !ref.expires.IsZero() && !ref.expires.After(now) {
				continue
			}
			if it, err := s.read(ref); err == nil {
				items = append(items, it)
			}
		}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.ResourceID != b.ResourceID {
			return a.ResourceID < b.ResourceID
		}
		return a.InstanceID < b.InstanceID
	})
	for _, it := range items {
		// An earlier callback may have removed or replaced the item.
		if cur, ok := s.b.m.get(namespace, it.ResourceID, it.InstanceID); ok {
			it = cur
		} else if _, ok := s.ref(namespace, it.ResourceID, it.InstanceID); !ok {
			continue
		}
		if !f(it) {
			return
		}
	}
}

// encodeRecord builds one log record: kind byte, uvarint body length,
// wire-encoded item (identity only for tombstones).
func encodeRecord(kind byte, it *Item) ([]byte, error) {
	body, err := wire.Marshal(it)
	if err != nil {
		return nil, err
	}
	rec := append([]byte{kind}, binary.AppendUvarint(nil, uint64(len(body)))...)
	return append(rec, body...), nil
}

// splitRecord parses a full in-memory record into kind and body.
func splitRecord(rec []byte) (byte, []byte, error) {
	if len(rec) < 2 {
		return 0, nil, fmt.Errorf("storage: short spill record")
	}
	kind := rec[0]
	n, used := binary.Uvarint(rec[1:])
	if used <= 0 || int64(len(rec)-1-used) != int64(n) {
		return 0, nil, fmt.Errorf("storage: corrupt spill record")
	}
	return kind, rec[1+used:], nil
}

// readRecord reads one record from the sequential reader, returning
// kind, body, and total bytes consumed.
func readRecord(r *bufio.Reader) (byte, []byte, int, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return 0, nil, 0, err
	}
	if kind != recPut && kind != recTombstone {
		return 0, nil, 0, fmt.Errorf("storage: unknown spill record kind %d", kind)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, 0, err
	}
	if n > 1<<24 {
		return 0, nil, 0, fmt.Errorf("storage: oversized spill record")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, 0, err
	}
	lenBytes := len(binary.AppendUvarint(nil, n))
	return kind, body, 1 + lenBytes + int(n), nil
}

// spillExp orders pending disk-tier expiries.
type spillExp struct {
	at  time.Time
	ns  string
	rid string
	iid int64
	off int64
}

type spillHeap []spillExp

func (h spillHeap) Len() int           { return len(h) }
func (h spillHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h spillHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *spillHeap) Push(x any)        { *h = append(*h, x.(spillExp)) }
func (h *spillHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

var (
	_ Store            = (*Spill)(nil)
	_ PressureReporter = (*Spill)(nil)
)
