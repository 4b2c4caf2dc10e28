package provider

// Tests for put-path admission control: the putThrottleMsg codec
// (round-trip and hostile frames) and the backpressure behavior —
// owners bounce puts into over-quota namespaces, publishers honor the
// deadline with bounded deterministic backoff, and the final attempt
// always admits.

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"pier/internal/dht/storage"
	"pier/internal/env"
	"pier/internal/simnet"
	"pier/internal/wire"
	"pier/internal/wire/wiretest"
)

func TestPutThrottleWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, 5, 300, tagPutThrottleMsg, 47, "81082c75e362fefc", []wiretest.Gen{
		{Name: "putThrottleMsg", Make: func(r *rand.Rand) env.Message {
			return &putThrottleMsg{
				Item:       randItem(r),
				Attempt:    uint8(r.Intn(maxPutAttempt)),
				RetryAfter: time.Duration(wiretest.Uint64(r) >> 1),
			}
		}},
		{Name: "putMsg with attempt", Make: func(r *rand.Rand) env.Message {
			return &putMsg{Item: randItem(r), Attempt: uint8(r.Intn(maxPutAttempt))}
		}},
	})
}

// TestPutThrottleHostileFramesRejected: frames that would nil-deref,
// carry an absurd bounce counter, or announce a negative deadline must
// fail decode before reaching a handler.
func TestPutThrottleHostileFramesRejected(t *testing.T) {
	item, err := wire.Marshal(&storage.Item{Namespace: "n", ResourceID: "r", InstanceID: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := func(tag byte, tail ...byte) []byte {
		return append(append([]byte{tag}, item...), tail...)
	}
	overAttempt := binary.AppendUvarint(nil, maxPutAttempt)
	negDur := binary.AppendVarint(nil, -1)
	cases := map[string][]byte{
		"throttle nil item":        {tagPutThrottleMsg, 0},
		"throttle attempt too big": frame(tagPutThrottleMsg, append(overAttempt, 0)...),
		"throttle negative delay":  frame(tagPutThrottleMsg, append([]byte{1}, negDur...)...),
		"put attempt too big":      frame(tagPutMsg, overAttempt...),
	}
	for name, b := range cases {
		if _, err := wire.Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same frames with in-range values must decode, or the cases
	// above prove nothing.
	okDur := binary.AppendVarint(nil, int64(time.Second))
	if _, err := wire.Unmarshal(frame(tagPutThrottleMsg, append([]byte{1}, okDur...)...)); err != nil {
		t.Fatalf("valid throttle frame rejected: %v", err)
	}
	if _, err := wire.Unmarshal(frame(tagPutMsg, 1)); err != nil {
		t.Fatalf("valid put frame rejected: %v", err)
	}
}

// throttleTestQuota fits two of this suite's 64-byte-payload items
// under namespace "hot" with a single-character resourceID and an
// expiry as wide as the simulator's clock encodes.
func throttleTestQuota() int64 {
	it := &storage.Item{Namespace: "hot", ResourceID: "k", InstanceID: 0, Payload: &payload{}, Expires: simnet.Epoch.Add(time.Hour)}
	return 2 * int64(it.WireSize())
}

func TestOverQuotaPutsAreThrottledThenAdmitted(t *testing.T) {
	pcfg := DefaultConfig()
	pcfg.Quota = storage.QuotaConfig{Quotas: map[string]int64{"hot": throttleTestQuota()}}
	pcfg.ThrottleDelay = time.Second
	tn := newTestNet(t, 8, pcfg)

	owner := tn.sm.OwnerOf("hot", "k")
	pub := (owner + 1) % len(tn.provs)
	tn.envs[pub].Post(func() {
		for i := int64(0); i < 8; i++ {
			tn.provs[pub].Put("hot", "k", i, &payload{N: int(i)}, time.Hour)
		}
	})
	tn.nw.RunFor(2 * time.Minute)

	if got := tn.provs[owner].StorageStats().PutsThrottled; got == 0 {
		t.Fatal("owner never throttled an over-quota put")
	}
	if got := tn.provs[pub].StorageStats().PutsDelayed; got == 0 {
		t.Fatal("publisher never honored a throttle")
	}
	// Bounced puts are admitted on their final attempt; the quota is
	// then enforced by eviction, so the namespace holds items but
	// stays within budget.
	if got := tn.provs[owner].Store().Usage().ByNamespace["hot"]; got > throttleTestQuota() {
		t.Fatalf("owner usage %d exceeds quota %d", got, throttleTestQuota())
	}
	if tn.provs[owner].Store().Len("hot") == 0 {
		t.Fatal("no item survived admission; final attempt must store")
	}
	st := tn.provs[owner].Store().Stats()
	if st.ItemsEvicted+st.PutsDropped == 0 {
		t.Fatal("admission without eviction cannot hold the quota")
	}
}

func TestLocalPutsSelfThrottle(t *testing.T) {
	pcfg := DefaultConfig()
	pcfg.Quota = storage.QuotaConfig{Quotas: map[string]int64{"hot": throttleTestQuota()}}
	pcfg.ThrottleDelay = time.Second
	tn := newTestNet(t, 1, pcfg) // single node owns everything
	tn.envs[0].Post(func() {
		for i := int64(0); i < 8; i++ {
			tn.provs[0].Put("hot", "k", i, &payload{N: int(i)}, time.Hour)
		}
	})
	tn.nw.RunFor(time.Minute)
	ss := tn.provs[0].StorageStats()
	if ss.PutsDelayed == 0 {
		t.Fatal("local puts bypassed the self-throttle")
	}
	if got := tn.provs[0].Store().Usage().ByNamespace["hot"]; got > throttleTestQuota() {
		t.Fatalf("usage %d exceeds quota %d", got, throttleTestQuota())
	}
	if tn.provs[0].Store().Len("hot") == 0 {
		t.Fatal("self-throttled puts never admitted")
	}
}

func TestThrottleDeterministic(t *testing.T) {
	run := func() (int64, int64, int) {
		pcfg := DefaultConfig()
		pcfg.Quota = storage.QuotaConfig{Quotas: map[string]int64{"hot": throttleTestQuota()}}
		pcfg.ThrottleDelay = time.Second
		tn := newTestNet(t, 8, pcfg)
		owner := tn.sm.OwnerOf("hot", "k")
		pub := (owner + 1) % len(tn.provs)
		tn.envs[pub].Post(func() {
			for i := int64(0); i < 8; i++ {
				tn.provs[pub].Put("hot", "k", i, &payload{N: int(i)}, time.Hour)
			}
		})
		tn.nw.RunFor(2 * time.Minute)
		return tn.provs[owner].StorageStats().PutsThrottled,
			tn.provs[pub].StorageStats().PutsDelayed,
			tn.provs[owner].Store().Len("hot")
	}
	t1, d1, l1 := run()
	t2, d2, l2 := run()
	if t1 != t2 || d1 != d2 || l1 != l2 {
		t.Fatalf("throttle schedule not deterministic: (%d,%d,%d) vs (%d,%d,%d)", t1, d1, l1, t2, d2, l2)
	}
}
