package storage

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spillItem builds an item with the wire-registered test payload so it
// can round-trip through the spill log.
func spillItem(ns, rid string, iid int64, pad int, exp time.Time) *Item {
	return &Item{Namespace: ns, ResourceID: rid, InstanceID: iid,
		Payload: &itemPayload{S: strings.Repeat("x", pad)}, Expires: exp}
}

func newTestSpill(t *testing.T, cfg QuotaConfig, dir string) (*Manager, *clock) {
	t.Helper()
	c := &clock{t: time.Unix(0, 0)}
	return openTest(t, c, cfg, dir), c
}

// onDisk reports whether the identity is stored with its payload in the
// spill log.
func onDisk(s *Manager, ns, rid string, iid int64) bool {
	it, ok := s.get(ns, rid, iid)
	return ok && it.disk() != nil
}

// smallQuota returns a quota fitting exactly n items of the given pad
// whose resourceIDs are ridLen characters long.
func smallQuota(n, pad, ridLen int) int64 {
	return int64(n * spillItem("f", strings.Repeat("0", ridLen), 0, pad, probeExpiry).WireSize())
}

func TestSpillOverflowsToDiskAndMerges(t *testing.T) {
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(2, 40, 1)}}
	s, c := newTestSpill(t, cfg, t.TempDir())
	for i := int64(0); i < 5; i++ {
		s.Store(spillItem("f", fmt.Sprint(i), i, 40, c.t.Add(time.Hour)))
	}
	// Memory holds 2, disk holds 3; every item is still readable.
	if got := s.Usage().ByNamespace["f"]; got > smallQuota(2, 40, 1) {
		t.Fatalf("memory usage %d exceeds quota", got)
	}
	if s.TotalLen() != 5 {
		t.Fatalf("TotalLen = %d, want 5 across both tiers", s.TotalLen())
	}
	for i := int64(0); i < 5; i++ {
		got := s.Retrieve("f", fmt.Sprint(i))
		if len(got) != 1 || got[0].InstanceID != i {
			t.Fatalf("item %d: Retrieve = %v", i, got)
		}
	}
	st := s.Stats()
	if st.ItemsSpilled != 3 || st.SpilledLive != 3 || st.BytesSpilled == 0 {
		t.Fatalf("stats = %+v, want 3 spilled", st)
	}
	var order []string
	s.Scan("f", func(it *Item) bool {
		order = append(order, it.ResourceID)
		return true
	})
	if fmt.Sprint(order) != fmt.Sprint([]string{"0", "1", "2", "3", "4"}) {
		t.Fatalf("merged scan order = %v", order)
	}
}

func TestSpillRenewPromotesBackToMemory(t *testing.T) {
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(2, 40, 1)}}
	s, c := newTestSpill(t, cfg, t.TempDir())
	for i := int64(0); i < 4; i++ {
		s.Store(spillItem("f", fmt.Sprint(i), i, 40, c.t.Add(time.Hour)))
	}
	spilledBefore := s.Stats().SpilledLive
	if spilledBefore == 0 {
		t.Fatal("nothing spilled; test is vacuous")
	}
	// Item 0 was evicted first (oldest). Renewing it must land the
	// fresh copy in memory and tombstone the disk copy — with exactly
	// one instance visible afterwards.
	s.Store(spillItem("f", "0", 0, 40, c.t.Add(2*time.Hour)))
	got := s.Retrieve("f", "0")
	if len(got) != 1 || !got[0].Expires.Equal(c.t.Add(2*time.Hour)) {
		t.Fatalf("after renew: %v", got)
	}
	if onDisk(s, "f", "0", 0) {
		t.Fatal("renewed item not promoted to the memory tier")
	}
	if s.TotalLen() != 4 {
		t.Fatalf("TotalLen = %d, want 4 (no duplicate across tiers)", s.TotalLen())
	}
}

func TestSpillExpiry(t *testing.T) {
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 40, 4)}}
	s, c := newTestSpill(t, cfg, t.TempDir())
	s.Store(spillItem("f", "soon", 1, 40, c.t.Add(time.Minute)))
	s.Store(spillItem("f", "late", 2, 40, c.t.Add(time.Hour)))
	// "soon" (nearest expiry) was evicted to disk; NextExpiry must
	// still see it.
	at, ok := s.NextExpiry()
	if !ok || !at.Equal(c.t.Add(time.Minute)) {
		t.Fatalf("NextExpiry = %v,%v, want the spilled item's 1min", at, ok)
	}
	c.t = c.t.Add(5 * time.Minute)
	swept := s.SweepExpired()
	if len(swept) != 1 || swept[0].ResourceID != "soon" {
		t.Fatalf("sweep = %v, want the spilled item", swept)
	}
	if s.Stats().SpilledLive != 0 {
		t.Fatalf("expired spill ref not released: %+v", s.Stats())
	}
	if s.TotalLen() != 1 {
		t.Fatalf("TotalLen = %d, want 1", s.TotalLen())
	}
}

func TestSpillRestartReloadsAndDropsExpired(t *testing.T) {
	dir := t.TempDir()
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 40, 4)}}
	c := &clock{t: time.Unix(0, 0)}
	s, err := Open(c.now, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Store(spillItem("f", "dies", 1, 40, c.t.Add(time.Minute)))
	s.Store(spillItem("f", "livs", 2, 40, c.t.Add(time.Hour)))
	s.Store(spillItem("f", "memx", 3, 40, c.t.Add(time.Hour)))
	// "dies" and "livs" are on disk; "mem" is in memory and is LOST
	// on restart (memory is soft state; only the spill log persists).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	c.t = c.t.Add(10 * time.Minute) // "dies" expires while down
	s2, err := Open(c.now, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Retrieve("f", "livs"); len(got) != 1 || got[0].InstanceID != 2 {
		t.Fatalf("surviving spilled item not reloaded: %v", got)
	}
	if p, ok := got0(s2.Retrieve("f", "livs")); ok && p.Payload.WireSize() != 1+1+40 { // tag, length, bytes
		t.Fatalf("payload lost on reload: %+v", p)
	}
	if got := s2.Retrieve("f", "dies"); len(got) != 0 {
		t.Fatalf("item that expired while down came back: %v", got)
	}
	if got := s2.Retrieve("f", "memx"); len(got) != 0 {
		t.Fatalf("memory-tier item persisted across restart: %v", got)
	}
	if s2.Stats().SpilledLive != 1 {
		t.Fatalf("SpilledLive = %d, want 1", s2.Stats().SpilledLive)
	}
}

func got0(items []*Item) (*Item, bool) {
	if len(items) == 0 {
		return nil, false
	}
	return items[0], true
}

func TestSpillRemoveReachesDiskTier(t *testing.T) {
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 40, 1)}}
	s, c := newTestSpill(t, cfg, t.TempDir())
	s.Store(spillItem("f", "a", 1, 40, c.t.Add(time.Hour)))
	s.Store(spillItem("f", "b", 2, 40, c.t.Add(2*time.Hour)))
	// "a" spilled. Remove must find it on disk.
	if !s.Remove("f", "a", 1) {
		t.Fatal("Remove missed the spilled item")
	}
	if s.Remove("f", "a", 1) {
		t.Fatal("double remove reported success")
	}
	if s.TotalLen() != 1 || s.Stats().SpilledLive != 0 {
		t.Fatalf("TotalLen=%d SpilledLive=%d", s.TotalLen(), s.Stats().SpilledLive)
	}
}

func TestSpillCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 200, 1)}}
	s, c := newTestSpill(t, cfg, dir)
	// Churn the same identities so the log accumulates dead records.
	for round := 0; round < 30; round++ {
		for i := int64(0); i < 4; i++ {
			s.Store(spillItem("f", fmt.Sprint(i), i, 200, c.t.Add(time.Hour)))
		}
	}
	path := filepath.Join(dir, spillLogName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	// Every identity still resolves, from whichever tier holds it.
	for i := int64(0); i < 4; i++ {
		if got := s.Retrieve("f", fmt.Sprint(i)); len(got) != 1 {
			t.Fatalf("item %d lost by compaction: %v", i, got)
		}
	}
	if s.log.deadBytes != 0 {
		t.Fatalf("deadBytes = %d after compact, want 0", s.log.deadBytes)
	}
}

func TestSpillCompactionDropsUnreadableRecordFromEveryCount(t *testing.T) {
	dir := t.TempDir()
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 40, 1)}}
	s, c := newTestSpill(t, cfg, dir)
	for i := int64(0); i < 4; i++ {
		s.Store(spillItem("f", fmt.Sprint(i), i, 40, c.t.Add(time.Hour)))
	}
	if got := s.Stats().SpilledLive; got != 3 {
		t.Fatalf("SpilledLive = %d, want 3 of the 4 items on disk", got)
	}
	// Damage the first record (the wire tag of its item) behind the
	// store's back: compaction cannot read it and has to let it go.
	f, err := os.OpenFile(filepath.Join(dir, spillLogName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	visited := len(scanIDs(s, "f", nil))
	if s.TotalLen() != 3 || s.Len("f") != 3 || s.Stats().SpilledLive != 2 || visited != 3 {
		t.Fatalf("after compaction dropped 1 of 4 items: TotalLen=%d Len=%d SpilledLive=%d, scan visits %d; want 3, 3, 2 (one item is in memory), 3",
			s.TotalLen(), s.Len("f"), s.Stats().SpilledLive, visited)
	}
}

func TestSpillTornTailIsCutOffNotReplayedLater(t *testing.T) {
	// A log of one good record and one torn by a crash mid-append, whose
	// payload — the publisher's bytes — holds the image of a put record
	// for f/ghost exactly where the record after the next append will
	// start. If replay only sets the append offset and leaves the tail in
	// the file, the restart after that append parses the ghost.
	dir := t.TempDir()
	cfg := QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 40, 1)}}
	exp := time.Unix(3600, 0)
	rec := func(it *Item) []byte {
		b, err := encodeRecord(recPut, it)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	victim := spillItem("f", "v", 1, 40, exp) // what the test spills after the first restart
	torn := []byte{recPut, 0xff, 0xff, 0x03}  // claims 65535 bytes of body that never made it
	torn = append(torn, make([]byte, len(rec(victim))-len(torn))...)
	torn = append(torn, rec(spillItem("f", "ghost", 7, 40, exp))...)
	log := append(rec(spillItem("f", "a", 1, 40, exp)), torn...)
	if err := os.WriteFile(filepath.Join(dir, spillLogName), log, 0o644); err != nil {
		t.Fatal(err)
	}

	c := &clock{t: time.Unix(0, 0)}
	s, err := Open(c.now, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalLen() != 1 || len(s.Retrieve("f", "a")) != 1 {
		t.Fatalf("replay of the intact record: TotalLen = %d, f/a = %v", s.TotalLen(), s.Retrieve("f", "a"))
	}
	s.Store(victim)
	s.Store(spillItem("f", "w", 2, 40, exp.Add(time.Hour)))
	if !onDisk(s, "f", "v", 1) {
		t.Fatal("the victim did not spill; the test appends nothing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(c.now, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Retrieve("f", "ghost"); len(got) != 0 {
		t.Fatalf("bytes of the torn tail were replayed as a record: %v", got)
	}
	if s2.TotalLen() != 2 || len(s2.Retrieve("f", "a")) != 1 || len(s2.Retrieve("f", "v")) != 1 {
		t.Fatalf("after the second restart: TotalLen = %d, want f/a and f/v", s2.TotalLen())
	}
}

// TestSpillLogGoldenBytes pins the file format to the bytes the Spill
// store wrote before the stores were merged, so a directory written by
// an older node still replays: one put record and one tombstone.
func TestSpillLogGoldenBytes(t *testing.T) {
	const (
		put  = "0018200166016102008080c58bc6d101ca087878787878787878" // f/a/1, expires 1h after the epoch, payload "xxxxxxxx"
		tomb = "01082001660161020100"                                 // f/a/1
	)
	dir := t.TempDir()
	path := filepath.Join(dir, spillLogName)
	s, c := newTestSpill(t, QuotaConfig{Quotas: map[string]int64{"f": smallQuota(1, 8, 1)}}, dir)
	logHex := func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	s.Store(spillItem("f", "a", 1, 8, time.Unix(3600, 0)))
	s.Store(spillItem("f", "b", 2, 8, time.Unix(7200, 0)))
	if got := logHex(); got != put {
		t.Fatalf("put record\n got %s\nwant %s", got, put)
	}
	s.Remove("f", "a", 1)
	if got := logHex(); got != put+tomb {
		t.Fatalf("put record and tombstone\n got %s\nwant %s", got, put+tomb)
	}

	// And the other way: the old bytes replay.
	raw, _ := hex.DecodeString(put + tomb + put)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, c, QuotaConfig{}, dir)
	got := s2.Retrieve("f", "a")
	if s2.TotalLen() != 1 || len(got) != 1 || got[0].InstanceID != 1 || !got[0].Expires.Equal(time.Unix(3600, 0)) ||
		got[0].Payload.(*itemPayload).S != "xxxxxxxx" {
		t.Fatalf("replay of put, tombstone, put: TotalLen = %d, f/a = %+v", s2.TotalLen(), got)
	}
}
