package realnet

// Failure-path coverage for the transport's fire-and-forget semantics:
// the soft-state design tolerates dropped messages and dead connections,
// so every failure here must end in silent drops and live nodes — never
// blocked sends, panics, or delivered garbage.

import (
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

func listen(t *testing.T, seed int64) *Node {
	t.Helper()
	n, err := Listen("127.0.0.1:0", seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestPeerDropMidStream kills the receiving node while the sender keeps
// transmitting: sends must keep returning immediately and be accounted
// as drops once the connection error surfaces.
func TestPeerDropMidStream(t *testing.T) {
	a := listen(t, 1)
	b := listen(t, 2)
	var got atomic.Int64
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	a.Send(b.Addr(), &echoMsg{N: 0})
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() == 0 {
		t.Fatal("first message never arrived")
	}

	b.Close()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		a.Send(b.Addr(), &echoMsg{N: i})
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("sends to a dead peer took %v", d)
	}
	// The writer tears the peer down on the first write error; later
	// sends re-dial, fail, and drop.
	deadline = time.Now().Add(5 * time.Second)
	for a.Stats().Drops == 0 && time.Now().Before(deadline) {
		a.Send(b.Addr(), &echoMsg{N: -1})
		time.Sleep(5 * time.Millisecond)
	}
	if a.Stats().Drops == 0 {
		t.Fatal("sends to a dead peer were never counted as drops")
	}
}

// TestTruncatedFrameDropsConnection feeds the node a frame whose length
// prefix promises more bytes than ever arrive: nothing may be delivered,
// the connection must die, and the node must keep serving others.
func TestTruncatedFrameDropsConnection(t *testing.T) {
	n := listen(t, 1)
	var got atomic.Int64
	n.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	conn, err := net.Dial("tcp", string(n.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise a 100-byte frame, deliver 3 bytes, half-close.
	frame := binary.AppendUvarint(nil, 100)
	frame = append(frame, 1, 2, 3)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	if !connClosedWithin(conn, 5*time.Second) {
		t.Fatal("node kept the connection after a truncated frame")
	}
	if got.Load() != 0 {
		t.Fatalf("truncated frame delivered %d messages", got.Load())
	}
	assertStillServing(t, n, &got)
}

// TestMalformedFrameDropsConnection sends a well-framed payload whose
// body is garbage (unknown message tag).
func TestMalformedFrameDropsConnection(t *testing.T) {
	n := listen(t, 1)
	var got atomic.Int64
	n.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	conn, err := net.Dial("tcp", string(n.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte{1, 'x', 99} // addr "x", unknown tag 99
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if !connClosedWithin(conn, 5*time.Second) {
		t.Fatal("node kept the connection after a malformed frame")
	}
	if got.Load() != 0 {
		t.Fatalf("malformed frame delivered %d messages", got.Load())
	}
	assertStillServing(t, n, &got)
}

// TestTrailingBytesInFrameDropsConnection frames a valid message plus
// trailing garbage: a desynced stream must not deliver, even when a
// prefix happens to decode.
func TestTrailingBytesInFrameDropsConnection(t *testing.T) {
	n := listen(t, 1)
	var got atomic.Int64
	n.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	conn, err := net.Dial("tcp", string(n.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := wire.Append([]byte{1, 'x'}, &echoMsg{N: 1}) // sender address, message
	payload = append(payload, 0xEE)                           // valid frame + one stray byte
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if !connClosedWithin(conn, 5*time.Second) {
		t.Fatal("node kept the connection after a frame with trailing bytes")
	}
	if got.Load() != 0 {
		t.Fatalf("desynced frame delivered %d messages", got.Load())
	}
	assertStillServing(t, n, &got)
}

// TestCorruptCountDoesNotBalloonMemory frames a message whose container
// count claims far more elements than the frame carries: the decoder
// must fail on the length guard without committing large allocations,
// and the node must keep serving.
func TestCorruptCountDoesNotBalloonMemory(t *testing.T) {
	n := listen(t, 1)
	var got atomic.Int64
	n.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	conn, err := net.Dial("tcp", string(n.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte{1, 'x'}                        // sender address
	payload = append(payload, 52)                    // can.neighborUpdate tag (linked via the can import)
	payload = binary.AppendUvarint(payload, 200<<20) // hostile zone count, far beyond the payload
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if !connClosedWithin(conn, 5*time.Second) {
		t.Fatal("node kept the connection after a hostile element count")
	}
	if got.Load() != 0 {
		t.Fatal("hostile frame delivered a message")
	}
	assertStillServing(t, n, &got)
}

// TestOversizedFrameRejected announces a frame beyond maxFrameBytes:
// the node must drop the connection without buffering the body.
func TestOversizedFrameRejected(t *testing.T) {
	n := listen(t, 1)
	var got atomic.Int64
	n.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	conn, err := net.Dial("tcp", string(n.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	if !connClosedWithin(conn, 5*time.Second) {
		t.Fatal("node kept the connection after an oversized frame header")
	}
	if got.Load() != 0 {
		t.Fatal("oversized frame delivered a message")
	}
	assertStillServing(t, n, &got)
}

// TestReconnectAfterClose restarts the receiver on the same port: the
// sender's cached connection dies, and fresh sends must reach the
// replacement node.
func TestReconnectAfterClose(t *testing.T) {
	a := listen(t, 1)
	b := listen(t, 2)
	addr := b.Addr()
	var gotOld atomic.Int64
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { gotOld.Add(1) }))

	a.Send(addr, &echoMsg{N: 1})
	deadline := time.Now().Add(5 * time.Second)
	for gotOld.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if gotOld.Load() == 0 {
		t.Fatal("message to original node never arrived")
	}
	b.Close()

	// Rebind the same port with a fresh node.
	var b2 *Node
	var err error
	for i := 0; i < 50; i++ {
		b2, err = Listen(string(addr), 3)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer b2.Close()
	var gotNew atomic.Int64
	b2.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) { gotNew.Add(1) }))

	// The first sends after the restart die on the stale connection;
	// fire-and-forget means we just keep renewing, like soft state does.
	deadline = time.Now().Add(10 * time.Second)
	for gotNew.Load() == 0 && time.Now().Before(deadline) {
		a.Send(addr, &echoMsg{N: 2})
		time.Sleep(10 * time.Millisecond)
	}
	if gotNew.Load() == 0 {
		t.Fatal("sender never reconnected to the restarted node")
	}
}

// TestDialFailureCountsAsDrop: a refused connection drops the queued
// message and accounts for it (asynchronously — dials happen on the
// writer goroutine, never on the Send path).
func TestDialFailureCountsAsDrop(t *testing.T) {
	a := listen(t, 1)
	a.Send("127.0.0.1:1", &echoMsg{N: 1})
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Drops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Stats().Drops == 0 {
		t.Fatal("refused dial not counted as a drop")
	}
}

// TestBatchingCoalesces queues a burst and checks the writer folded it
// into one write, and that the counters reconcile end-to-end. The burst
// fills the peer's outbox before its writer goroutine starts, so the
// writer finds every frame already queued whatever the scheduler does.
func TestBatchingCoalesces(t *testing.T) {
	const burst = 400
	a := listen(t, 1)
	b := listen(t, 2)
	var got atomic.Int64
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	p := &peer{out: make(chan *frame, burst), dead: make(chan struct{})}
	a.mu.Lock()
	a.peers[b.Addr()] = p
	a.mu.Unlock()
	for i := 0; i < burst; i++ {
		a.Send(b.Addr(), &echoMsg{N: i})
	}
	a.wg.Add(1)
	go a.writer(b.Addr(), p)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := a.Stats()
		if got.Load()+int64(s.Drops) >= burst && s.FramesSent+s.Drops >= burst {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s := a.Stats()
	if s.FramesSent+s.Drops != burst {
		t.Fatalf("FramesSent %d + Drops %d != burst %d", s.FramesSent, s.Drops, burst)
	}
	if s.FramesSent != burst || s.BatchesSent != 1 {
		t.Fatalf("no coalescing: %d frames in %d batches, want %d in 1", s.FramesSent, s.BatchesSent, burst)
	}
	rs := b.Stats()
	if rs.FramesRecv != s.FramesSent || rs.BytesRecv != s.BytesSent {
		t.Fatalf("receiver saw %d frames / %d bytes, sender sent %d / %d",
			rs.FramesRecv, rs.BytesRecv, s.FramesSent, s.BytesSent)
	}
}

// TestUnencodableMessageDropped: a message type without a wire codec is
// dropped frame-by-frame without poisoning the connection — exactly one
// drop, exactly one frame sent, and the encodable frame arrives on the
// connection the unencodable one was queued for.
func TestUnencodableMessageDropped(t *testing.T) {
	a := listen(t, 1)
	b := listen(t, 2)
	var got atomic.Int64
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { got.Add(1) }))

	p, err := a.peer(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	a.Send(b.Addr(), rawMsg{})        // no codec: dropped
	a.Send(b.Addr(), &echoMsg{N: 42}) // same connection still healthy
	deadline := time.Now().Add(5 * time.Second)
	// FramesSent is counted after the flush returns, so it can trail the
	// receiver's handler.
	for (got.Load() == 0 || a.Stats().FramesSent == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatalf("got %d messages, want just the encodable one", got.Load())
	}
	if s := a.Stats(); s.Drops != 1 || s.FramesSent != 1 {
		t.Fatalf("Drops=%d FramesSent=%d, want 1 and 1", s.Drops, s.FramesSent)
	}
	select {
	case <-p.dead:
		t.Fatal("connection that carried the unencodable frame was torn down")
	default:
	}
}

type rawMsg struct{}

func (rawMsg) WireSize() int { return 0 }

func connClosedWithin(conn net.Conn, d time.Duration) bool {
	conn.SetReadDeadline(time.Now().Add(d))
	_, err := conn.Read(make([]byte, 1))
	return err == io.EOF || (err != nil && !isTimeout(err))
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

func assertStillServing(t *testing.T, n *Node, got *atomic.Int64) {
	t.Helper()
	peer, err := Listen("127.0.0.1:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	before := got.Load()
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == before && time.Now().Before(deadline) {
		peer.Send(n.Addr(), &echoMsg{N: 7})
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() == before {
		t.Fatal("node stopped serving after a bad connection")
	}
}
