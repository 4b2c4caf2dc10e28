package pier

// Disk-spill smoke over a real node: publish past a namespace quota so
// the expiring items overflow to the spill log, restart the node on the
// same directory, and verify the replay semantics — items that expired
// while the node was down are dropped, the still-live control survives,
// and a renew of it promotes it back off the disk tier. This is the CI
// gate for the StartNode + SpillDir wiring (the store's own behavior is
// pinned by the storage conformance and spill suites).

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
)

func waitStorage(t *testing.T, nd *RealNode, timeout time.Duration, what string, ok func(StorageStats) bool) StorageStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ss := nd.StorageStats()
		if ok(ss) {
			return ss
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: still waiting at %+v", what, ss)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestSpillSmokeRestartExpiryAndPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("starts and restarts a TCP node")
	}
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.ProviderConfig.Quota = storage.QuotaConfig{Quotas: map[string]int64{"K": 2 << 10}}
	opts.ProviderConfig.ThrottleDelay = 50 * time.Millisecond
	opts.SpillDir = dir

	nd, err := StartNode("127.0.0.1:0", env.NilAddr, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			nd.Close()
		}
	}()

	tup := func(i int) *Tuple {
		return &Tuple{Rel: "K", Vals: []Value{int64(i)}, Pad: 80}
	}
	// Short-lived batch, then a longer-lived control, then enough
	// immortal filler to blow the quota: eviction takes nearest-to-
	// expiry first, so the batch and the control are what lands on disk.
	const shortN = 6
	shortLife := 6 * time.Second
	shortDeadline := time.Now().Add(shortLife)
	for i := 0; i < shortN; i++ {
		nd.Publish("K", fmt.Sprintf("gone%d", i), int64(i), tup(i), shortLife)
	}
	nd.Publish("K", "ctl", 100, tup(100), 10*time.Minute)
	for i := 0; i < 40; i++ {
		nd.Publish("K", fmt.Sprintf("fill%02d", i), int64(200+i), tup(200+i), 0)
	}

	ss := waitStorage(t, nd, 5*time.Second, "expiring items never spilled",
		func(ss StorageStats) bool { return ss.SpilledLive >= shortN+1 })
	// On a one-node deployment every put is local, so backpressure shows
	// up as publisher-side self-throttle delays rather than wire
	// throttle replies.
	if ss.PutsDelayed == 0 {
		t.Errorf("quota pressure never engaged put backpressure: %+v", ss)
	}

	nd.Close()
	closed = true
	if d := time.Until(shortDeadline.Add(time.Second)); d > 0 {
		time.Sleep(d) // let the short-lived batch expire while down
	}

	nd2, err := StartNode("127.0.0.1:0", env.NilAddr, 2, opts)
	if err != nil {
		t.Fatalf("restart on the spill dir: %v", err)
	}
	defer nd2.Close()

	retrieve := func(rid string) int {
		n := 0
		nd2.Do(func() { n = len(nd2.Provider().Store().Retrieve("K", rid)) })
		return n
	}
	after := nd2.StorageStats()
	if after.SpilledLive == 0 {
		t.Fatalf("replay recovered no live spilled items: %+v", after)
	}
	for i := 0; i < shortN; i++ {
		if got := retrieve(fmt.Sprintf("gone%d", i)); got != 0 {
			t.Fatalf("item gone%d expired while down but survived the replay", i)
		}
	}
	if got := retrieve("ctl"); got != 1 {
		t.Fatalf("live control did not survive the restart: %d copies", got)
	}

	// A renew of the spilled control promotes it back to memory: the
	// disk copy is tombstoned and nothing needs evicting (memory is
	// nearly empty after the restart), so the disk population shrinks
	// by exactly one.
	nd2.Renew("K", "ctl", 100, tup(100), 10*time.Minute)
	waitStorage(t, nd2, 5*time.Second, "renew never promoted the control",
		func(ss StorageStats) bool {
			return ss.SpilledLive == after.SpilledLive-1 &&
				ss.ItemsSpilled == after.ItemsSpilled
		})
	if got := retrieve("ctl"); got != 1 {
		t.Fatalf("promotion left %d copies of the control, want exactly 1", got)
	}
}
