package realnet

// Loopback throughput with and without write batching, for the small
// soft-state messages (miniTuple-shaped renews) that dominate PIER's
// traffic:
//
//	go test ./internal/realnet -bench BenchmarkRealnetThroughput -benchtime 100000x

import (
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// renewMsg mirrors core's miniTuple: the semi-join projection that §4.2
// rehashes in bulk (core's own types are unexported).
type renewMsg struct {
	Side     int
	RID, Key string
}

func (m *renewMsg) WireSize() int { return wire.Size(m) }

func init() {
	wire.Register(202, func(c *wire.Codec, t *renewMsg) {
		c.Int(&t.Side)
		c.String(&t.RID)
		c.String(&t.Key)
	})
}

func benchThroughput(b *testing.B, cfg Config) {
	const window = 4096
	cfg.OutboxLen = 4 * window
	cfg.InboxLen = 4 * window
	src, err := ListenConfig("127.0.0.1:0", 1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := ListenConfig("127.0.0.1:0", 2, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()

	var got atomic.Int64
	dst.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))
	m := &renewMsg{Side: 1, RID: "resource-4711", Key: "join-key-42"}

	// Warm the connection so dialing is outside the timed region.
	src.Send(dst.Addr(), m)
	waitAtLeast(b, &got, 1)

	b.ResetTimer()
	start := time.Now()
	sent := int64(1)
	for i := 0; i < b.N; i++ {
		// Cap the in-flight window so the fire-and-forget queue never
		// overflows: a throughput benchmark must not measure drops.
		if sent-got.Load() >= window {
			waitAtLeast(b, &got, sent-window/2)
		}
		src.Send(dst.Addr(), m)
		sent++
	}
	waitAtLeast(b, &got, sent)
	elapsed := time.Since(start)
	b.StopTimer()

	s := src.Stats()
	if s.Drops > 0 {
		b.Fatalf("benchmark dropped %d frames; results meaningless", s.Drops)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "frames/sec")
	if s.BatchesSent > 0 {
		b.ReportMetric(float64(s.FramesSent)/float64(s.BatchesSent), "frames/batch")
	}
	b.ReportMetric(float64(s.BytesSent)/float64(s.FramesSent), "bytes/frame")
}

func waitAtLeast(b *testing.B, got *atomic.Int64, n int64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for got.Load() < n {
		if time.Now().After(deadline) {
			b.Fatalf("receiver stuck at %d/%d frames", got.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkRealnetThroughput compares frames/sec on loopback TCP.
// "binary/frame-per-write" is the syscall-per-frame baseline: a
// one-byte flush threshold ends every batch after its first frame.
func BenchmarkRealnetThroughput(b *testing.B) {
	b.Run("binary/frame-per-write", func(b *testing.B) {
		benchThroughput(b, Config{MaxBatchBytes: 1})
	})
	b.Run("binary/batched", func(b *testing.B) {
		benchThroughput(b, Config{})
	})
}
