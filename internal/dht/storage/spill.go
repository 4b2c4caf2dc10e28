package storage

// The spill part of the Manager: what the quota evicts is appended to a
// log file instead of being discarded. The evicted item keeps its index
// entry, as a stub whose payload is a diskRef, so the Manager's reads
// find it where they find every other item and load it back; a renew
// (re-Store) brings it back to memory. The log is append-only with
// tombstones for removes, expiries and renews; it compacts in place
// once dead bytes outweigh live ones. Only spillLog knows the file
// format.
//
// The spill log is for real nodes (cmd/pier-node -spill-dir); the
// simulator's byte-charging model (Usage) intentionally counts only
// what is in memory.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

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

// diskRef is the payload of a stub, the index entry of an item on
// disk: where the item's put record lies in the log. It never leaves
// the package — every read hands out the loaded item instead.
type diskRef struct {
	off  int64
	size int64 // full record size including header
}

// WireSize is never asked of a stub in earnest: charge counts it as
// nothing and load replaces it before anything is sent.
func (*diskRef) WireSize() int { return 0 }

// spillLog is the append-compact log file and its byte accounting.
type spillLog struct {
	dir string
	f   *os.File
	end int64 // append offset

	live      int // put records a stub refers to
	liveBytes int64
	deadBytes int64

	spilledItems int64
	spilledBytes int64
}

// openLog opens (or creates) the spill log in dir and replays it into
// the index: later records supersede earlier ones, tombstones delete,
// and items that expired while the node was down are dropped (their
// bytes counted dead).
func (m *Manager) openLog(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: spill dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, spillLogName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("storage: spill log: %w", err)
	}
	l := &spillLog{dir: dir, f: f}
	now := m.now()
	err = l.replay(func(kind byte, it *Item, ref *diskRef) {
		if old, ok := m.get(it.Namespace, it.ResourceID, it.InstanceID); ok {
			m.unlink(old)
			l.release(old.disk())
		}
		if kind == recTombstone || it.expired(now) {
			l.deadBytes += ref.size
			return
		}
		l.retain(ref)
		it.Payload = ref // the decoded item, less its payload, is the stub
		m.put(it)
	})
	if err != nil {
		f.Close()
		return err
	}
	m.log = l
	return nil
}

// spill moves an item the quota evicted to the log, leaving a stub in
// its index entry. It reports false if the record could not be written
// (an unencodable payload, a full disk): the item is then simply lost,
// like any eviction without a log.
func (m *Manager) spill(it *Item) bool {
	l := m.log
	ref, ok := l.append(recPut, it)
	if !ok {
		return false
	}
	l.retain(ref)
	l.spilledItems++
	l.spilledBytes += int64(it.WireSize())
	m.put(&Item{Namespace: it.Namespace, ResourceID: it.ResourceID, InstanceID: it.InstanceID,
		Expires: it.Expires, Payload: ref})
	m.maybeCompact()
	return true
}

func (m *Manager) maybeCompact() {
	if l := m.log; l.deadBytes > l.liveBytes && l.deadBytes > compactMinDead {
		m.compact() // best-effort; the log stays valid on failure
	}
}

// compact rewrites the log keeping only the records the index refers
// to, in index order. It runs once dead bytes outweigh live ones (and
// exceed a floor). An entry whose record no longer reads is dropped
// from the index with it.
func (m *Manager) compact() error {
	var stubs []*Item
	for _, ns := range m.Namespaces() {
		sp := m.spaces[ns]
		if len(sp.fresh) > 0 {
			sp.merge()
		}
		for _, sl := range sp.order {
			for _, it := range sl.insts {
				if it.disk() != nil {
					stubs = append(stubs, it)
				}
			}
		}
	}
	unreadable, err := m.log.rewrite(stubs)
	for _, it := range unreadable {
		m.unlink(it)
	}
	return err
}

func (l *spillLog) retain(ref *diskRef) {
	l.live++
	l.liveBytes += ref.size
}

func (l *spillLog) release(ref *diskRef) {
	l.live--
	l.liveBytes -= ref.size
	l.deadBytes += ref.size
}

// append writes one record at the end of the log and reports where it
// lies. It reports false, with the log unchanged, if the record could
// not be encoded or written.
func (l *spillLog) append(kind byte, it *Item) (*diskRef, bool) {
	rec, err := encodeRecord(kind, it)
	if err != nil {
		return nil, false
	}
	if _, err := l.f.WriteAt(rec, l.end); err != nil {
		return nil, false
	}
	ref := &diskRef{off: l.end, size: int64(len(rec))}
	l.end += ref.size
	return ref, true
}

// tombstone marks the record ref points at, the spilled copy of it, as
// deleted.
func (l *spillLog) tombstone(it *Item, ref *diskRef) {
	id := &Item{Namespace: it.Namespace, ResourceID: it.ResourceID, InstanceID: it.InstanceID}
	if t, ok := l.append(recTombstone, id); ok {
		l.deadBytes += t.size
	}
	l.release(ref)
}

// read loads the item a stub stands for: the record its diskRef points
// at, which must be a put of an item of the stub's identity. It returns
// nil if that record does not read as one.
func (l *spillLog) read(stub *Item) *Item {
	ref := stub.disk()
	kind, body, _, err := readRecord(bufio.NewReaderSize(io.NewSectionReader(l.f, ref.off, ref.size), int(ref.size)))
	if err != nil || kind != recPut {
		return nil
	}
	m, err := wire.Unmarshal(body)
	it, ok := m.(*Item)
	if err != nil || !ok || it.Namespace != stub.Namespace || it.ResourceID != stub.ResourceID || it.InstanceID != stub.InstanceID {
		return nil
	}
	return it
}

// replay reads the log from its start, calling each with every intact
// record — its kind, its item (identity only for a tombstone) and its
// place — and cuts the file off after the last one. A torn tail (a
// crash mid-append) thus loses only the records from the tear on, and
// no later, shorter append can leave bytes of it behind for the next
// replay to parse as records: payload bytes are the publisher's.
func (l *spillLog) replay(each func(kind byte, it *Item, ref *diskRef)) error {
	r := bufio.NewReader(l.f)
	for {
		kind, body, n, err := readRecord(r)
		if err != nil {
			break // io.EOF, or the tear
		}
		ref := &diskRef{off: l.end, size: int64(n)}
		l.end += ref.size
		m, err := wire.Unmarshal(body)
		if it, ok := m.(*Item); err == nil && ok {
			each(kind, it, ref)
		} else {
			l.deadBytes += ref.size
		}
	}
	if err := l.f.Truncate(l.end); err != nil {
		return fmt.Errorf("storage: spill log: %w", err)
	}
	return nil
}

// rewrite replaces the log by one holding only the records of the given
// stubs, in that order, and repoints each stub's diskRef at its
// record's new place. Stubs whose record does not read are left out of
// it and returned, untouched. On an error nothing has changed: the old
// log stays in place and valid.
func (l *spillLog) rewrite(stubs []*Item) (unreadable []*Item, err error) {
	path := filepath.Join(l.dir, spillLogName)
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("storage: compact: %w", err)
	}
	w := bufio.NewWriter(tmp)
	var (
		kept  []*Item
		moved []diskRef
		off   int64
		fail  error
	)
	for _, stub := range stubs {
		it := l.read(stub)
		if it == nil {
			unreadable = append(unreadable, stub)
			continue
		}
		rec, err := encodeRecord(recPut, it)
		if err == nil {
			_, err = w.Write(rec)
		}
		if err != nil {
			fail = err
			break
		}
		kept = append(kept, stub)
		moved = append(moved, diskRef{off: off, size: int64(len(rec))})
		off += int64(len(rec))
	}
	if err := w.Flush(); fail == nil {
		fail = err
	}
	if fail == nil {
		fail = os.Rename(tmp.Name(), path)
	}
	if fail != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("storage: compact: %w", fail)
	}
	l.f.Close()
	l.f = tmp
	for i, stub := range kept {
		*stub.disk() = moved[i]
	}
	l.end, l.liveBytes, l.deadBytes, l.live = off, off, 0, len(kept)
	return unreadable, nil
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

// readRecord reads one record from the reader, returning kind, body,
// and total bytes consumed.
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
