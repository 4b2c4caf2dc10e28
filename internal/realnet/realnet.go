// Package realnet runs PIER nodes over real TCP sockets. It implements
// the same env.Env contract as the simulator, so the node stack is
// byte-for-byte the code the simulator executes — the paper's deployment
// story (§5.2: "The simulator and the implementation use the same code
// base", §5.8).
//
// Frames are encoded with the binary wire codec (pier/internal/wire):
// a uvarint length prefix, the sender's address, and one tagged message.
// The per-peer writer goroutine coalesces its outbound queue into
// batches — it keeps draining the queue into one buffer and issues a
// single write when the queue goes empty or the batch reaches
// maxBatchBytes — so a burst of small soft-state messages (renews,
// miniTuples, partial aggregates) costs one syscall instead of one per
// frame.
//
// Each node owns one listener, one event-loop goroutine that serializes
// all node logic, and one writer goroutine per peer connection. Only the
// connection readers ever wait for room in the loop's queue, so
// backpressure lands on TCP. Sends are fire-and-forget: connection
// errors, full outbound queues, and malformed or oversized inbound
// frames drop messages (or connections), exactly the behavior the
// soft-state design tolerates.
package realnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// Transport limits.
const (
	// maxFrameBytes rejects inbound frames larger than this; the
	// connection carrying one is dropped.
	maxFrameBytes = 16 << 20

	// maxBatchBytes flushes the write batch once it holds at least this
	// many bytes.
	maxBatchBytes = 64 << 10

	// outboxLen is the per-peer outbound queue; sends beyond it drop.
	outboxLen = 1024

	// inboxLen bounds the inbound frames waiting for the event loop;
	// connection readers block beyond it.
	inboxLen = 4096
)

// Stats is a snapshot of the transport counters. It is exactly the
// env.LinkStats shape so the layers above can read it without an
// internal/realnet import (self-sends are delivered in-process and not
// counted in FramesSent).
type Stats = env.LinkStats

// frame is the on-wire unit: the sender's address and one message.
type frame struct {
	From env.Addr
	Msg  env.Message
}

// Node implements env.Env over TCP.
type Node struct {
	addr    env.Addr
	ln      net.Listener
	handler env.Handler
	rng     *rand.Rand

	// posted is the event loop's one FIFO, and wake (capacity 1) says
	// it is not empty. A connection reader first takes one of the
	// inboxLen slots, which the loop frees as it runs the frame.
	postMu sync.Mutex
	posted []func()
	wake   chan struct{}
	slots  chan struct{}

	mu       sync.Mutex
	peers    map[env.Addr]*peer
	accepted map[net.Conn]bool
	done     chan struct{}
	ctx      context.Context // canceled on Close; aborts in-flight dials
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	framesSent  atomic.Uint64
	batchesSent atomic.Uint64
	bytesSent   atomic.Uint64
	framesRecv  atomic.Uint64
	bytesRecv   atomic.Uint64
	drops       atomic.Uint64

	closeOnce sync.Once
}

// peer is one outbound connection. The writer goroutine dials lazily,
// so sends enqueue without ever blocking on the network. conn is set by
// the writer (under Node.mu, for Close) once the dial succeeds. dead is
// closed at teardown so racing sends count their frames as drops
// instead of enqueueing into an abandoned channel.
type peer struct {
	out  chan *frame
	dead chan struct{}
	conn net.Conn
}

// Listen starts a node listening on addr (e.g. "127.0.0.1:0"). The
// returned node's event loop runs until Close.
func Listen(addr string, seed int64) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		addr:     env.Addr(ln.Addr().String()),
		ln:       ln,
		wake:     make(chan struct{}, 1),
		slots:    make(chan struct{}, inboxLen),
		rng:      rand.New(rand.NewSource(seed)),
		peers:    make(map[env.Addr]*peer),
		accepted: make(map[net.Conn]bool),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	n.wg.Add(2)
	go n.loop()
	go n.accept()
	return n, nil
}

// SetHandler registers the message handler; call before traffic flows.
func (n *Node) SetHandler(h env.Handler) { n.handler = h }

// Addr implements env.Env.
func (n *Node) Addr() env.Addr { return n.addr }

// Now implements env.Env.
func (n *Node) Now() time.Time { return time.Now() }

// Rand implements env.Env. Like every env call, it is confined to the
// event loop: the *rand.Rand is not safe for concurrent use.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Stats returns a snapshot of the transport counters.
func (n *Node) Stats() Stats {
	return Stats{
		FramesSent:  n.framesSent.Load(),
		BatchesSent: n.batchesSent.Load(),
		BytesSent:   n.bytesSent.Load(),
		FramesRecv:  n.framesRecv.Load(),
		BytesRecv:   n.bytesRecv.Load(),
		Drops:       n.drops.Load(),
	}
}

// LinkStats implements env.LinkStatsProvider, exposing the transport
// counters to the layers above (pier.Node's accessor and the admin
// plane) without an internal/realnet import.
func (n *Node) LinkStats() env.LinkStats { return n.Stats() }

// After implements env.Env: the callback is posted to the node's event
// loop, where a Stop made before it runs still cancels it.
func (n *Node) After(d time.Duration, f func()) env.Timer {
	t := &realTimer{}
	t.t = time.AfterFunc(d, func() {
		n.Post(func() {
			if !t.stopped.Load() {
				f()
			}
		})
	})
	return t
}

type realTimer struct {
	t       *time.Timer
	stopped atomic.Bool
}

func (t *realTimer) Stop() {
	t.stopped.Store(true)
	t.t.Stop()
}

// Post implements env.Env: it never blocks, on the loop or off it.
func (n *Node) Post(f func()) {
	n.postMu.Lock()
	n.posted = append(n.posted, f)
	n.postMu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// Do runs f on the node's event loop and waits for it — the safe way for
// application goroutines to touch node state.
func (n *Node) Do(f func()) {
	ch := make(chan struct{})
	n.Post(func() {
		defer close(ch)
		f()
	})
	select {
	case <-ch:
	case <-n.done:
	}
}

// Send implements env.Env: fire-and-forget delivery over a lazily
// dialed, cached TCP connection.
func (n *Node) Send(to env.Addr, m env.Message) {
	if to == n.addr {
		// Loopback without a socket, like the simulator's 0-latency self
		// path.
		n.Post(func() {
			if n.handler != nil {
				n.handler.HandleMessage(n.addr, m)
			}
		})
		return
	}
	p, err := n.peer(to)
	if err != nil {
		n.drops.Add(1)
		return
	}
	select {
	case <-p.dead:
		// Teardown already drained the queue; enqueueing now would lose
		// the frame uncounted.
		n.drops.Add(1)
	case p.out <- &frame{From: n.addr, Msg: m}:
		// The enqueue can race teardown: if dead was already closed the
		// drain may have finished before our frame landed. Pull one
		// frame back and count it; if the queue is empty the drain saw
		// ours and counted it. Either way every frame is accounted.
		select {
		case <-p.dead:
			select {
			case <-p.out:
				n.drops.Add(1)
			default:
			}
		default:
		}
	default:
		// Queue full: drop, as a congested datagram network would.
		n.drops.Add(1)
	}
}

// peer returns the cached peer for to, creating it (and its writer
// goroutine, which dials asynchronously) on first use. It never blocks
// on the network: frames queue while the dial is in flight.
func (n *Node) peer(to env.Addr) (*peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.peers[to]; ok {
		return p, nil
	}
	select {
	case <-n.done:
		return nil, errors.New("realnet: node closed")
	default:
	}
	p := &peer{out: make(chan *frame, outboxLen), dead: make(chan struct{})}
	n.peers[to] = p
	n.wg.Add(1)
	go n.writer(to, p)
	return p, nil
}

// retainBytes caps how much buffer capacity the per-peer writer and
// per-connection reader keep between frames: one near-maxFrameBytes
// message must not pin tens of megabytes per peer for the lifetime of a
// connection that otherwise carries tiny soft-state traffic.
const retainBytes = 1 << 20

// shrink returns the buffer emptied, dropping it entirely when its
// high-water capacity exceeds retainBytes.
func shrink(buf []byte) []byte {
	if cap(buf) > retainBytes {
		return nil
	}
	return buf[:0]
}

// bufPool recycles frame buffers across every connection and peer of
// the process: readers borrow one per inbound frame, writers hold one
// as their batch buffer and one as their encode scratch. Pointer-shaped
// entries keep Put allocation-free.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// getBuf borrows a pooled buffer with length n (growing it if the
// pooled capacity is short).
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putBuf returns a buffer to the pool unless its high-water capacity
// exceeds retainBytes — one giant frame must not park megabytes in the
// pool for the lifetime of the process.
func putBuf(bp *[]byte) {
	if cap(*bp) > retainBytes {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// binaryWriter buffers encoded frames and flushes them as one write. It
// frames with the wire codec: uvarint payload length, then sender
// address, then the tagged message. Its batch buffer and encode
// scratch come from bufPool, so short-lived peers do not each grow
// their own buffers from zero; every frame is encoded into the reused
// scratch — there is no intermediate Marshal allocation.
type binaryWriter struct {
	conn     net.Conn
	max      int
	bufp     *[]byte // pooled batch buffer
	scratchp *[]byte // pooled per-frame encode scratch
}

func newBinaryWriter(conn net.Conn, max int) *binaryWriter {
	return &binaryWriter{conn: conn, max: max, bufp: getBuf(0), scratchp: getBuf(0)}
}

// appendFrame adds f to the batch; it reports false for a frame that
// could not be encoded or is oversized, which is dropped without
// touching the stream.
func (w *binaryWriter) appendFrame(f *frame) bool {
	e := wire.Writer((*w.scratchp)[:0])
	e.Addr(&f.From)
	e.Message(&f.Msg)
	payload := e.Bytes()
	*w.scratchp = shrink(payload) // recycle the buffer for the next frame
	if e.Err() != nil {
		return false // unencodable message: drop the frame, keep the stream
	}
	if len(payload) > w.max {
		return false // oversized: the receiver would reject it anyway
	}
	*w.bufp = binary.AppendUvarint(*w.bufp, uint64(len(payload)))
	*w.bufp = append(*w.bufp, payload...)
	return true
}

func (w *binaryWriter) buffered() int { return len(*w.bufp) }

func (w *binaryWriter) flush() (int, error) {
	if len(*w.bufp) == 0 {
		return 0, nil
	}
	bytes, err := w.conn.Write(*w.bufp)
	*w.bufp = shrink(*w.bufp)
	return bytes, err
}

// release returns the pooled buffers; the writer must not be used after.
func (w *binaryWriter) release() {
	putBuf(w.bufp)
	putBuf(w.scratchp)
	w.bufp, w.scratchp = nil, nil
}

// writer dials the peer and drains its outbound queue into batched
// writes. On any exit it unregisters the peer and counts every frame
// still queued as a drop, so Stats reconcile.
func (n *Node) writer(to env.Addr, p *peer) {
	defer n.wg.Done()
	teardown := func() {
		n.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		if n.peers[to] == p {
			delete(n.peers, to)
		}
		n.mu.Unlock()
		close(p.dead)
		for {
			select {
			case <-p.out:
				n.drops.Add(1)
			default:
				return
			}
		}
	}
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(n.ctx, "tcp", string(to))
	if err != nil {
		teardown()
		return
	}
	n.mu.Lock()
	p.conn = conn
	n.mu.Unlock()
	select {
	case <-n.done:
		// Closed while dialing: Close() may have missed the conn.
		teardown()
		return
	default:
	}
	fw := newBinaryWriter(conn, maxFrameBytes)
	defer fw.release()
	for {
		select {
		case f := <-p.out:
			frames := n.fillBatch(fw, f, p)
			bytes, err := fw.flush()
			n.bytesSent.Add(uint64(bytes))
			if err != nil {
				// Frames of a failed batch may be partially on the wire;
				// count them all as drops — fire-and-forget either way.
				n.drops.Add(uint64(frames))
				teardown()
				return
			}
			if frames > 0 {
				n.framesSent.Add(uint64(frames))
				n.batchesSent.Add(1)
			}
		case <-n.done:
			teardown()
			return
		}
	}
}

// fillBatch encodes f and keeps draining the queue until the batch is
// full or the queue is empty — coalescing without added latency. It
// reports how many frames entered the batch.
func (n *Node) fillBatch(fw *binaryWriter, f *frame, p *peer) (frames int) {
	appendOne := func(f *frame) {
		ok := fw.appendFrame(f)
		// Encoded (or dropped) either way, the writer held the last
		// reference to the outbound message: this is the recycle point
		// for pooled messages. The loopback self path never reaches
		// here — it delivers the pointer, and the consumer recycles.
		if rec, pooled := f.Msg.(env.Recycler); pooled {
			rec.Recycle()
		}
		if ok {
			frames++
		} else {
			n.drops.Add(1)
		}
	}
	appendOne(f)
	for fw.buffered() < maxBatchBytes {
		select {
		case f2 := <-p.out:
			appendOne(f2)
		default:
			return frames
		}
	}
	return frames
}

// binaryReader decodes one frame per readFrame call; any error ends the
// connection.
type binaryReader struct {
	br  *bufio.Reader
	max int
	// dec persists across frames so its intern table accumulates the
	// connection's repeated strings (relation names, namespaces,
	// addresses) and decodes them allocation-free.
	dec wire.Codec
}

func newBinaryReader(conn net.Conn, max int) *binaryReader {
	r := &binaryReader{br: bufio.NewReader(conn), max: max}
	r.dec.SetIntern(wire.NewIntern(0))
	return r
}

// readFrame reads and decodes one frame.
//
// Buffer ownership rule: the frame buffer is borrowed from bufPool for
// exactly the duration of this call. io.ReadFull fills it *before* any
// pool bookkeeping touches it (the previous code shrank the retained
// buffer while the frame slice still aliased it — harmless when the
// buffer was private to this connection, a corruption bug now that
// buffers are shared through a pool), and it goes back to the pool only
// after decode has detached everything it keeps: String/Value copy or
// intern, and StringBytes borrowers must copy anything retained.
// Nothing in the decoded message aliases the buffer once readFrame
// returns, so the handler downstream may run at any later time.
func (r *binaryReader) readFrame() (*frame, int, error) {
	length, err := binary.ReadUvarint(r.br)
	if err != nil {
		return nil, 0, err
	}
	if length > uint64(r.max) {
		return nil, 0, fmt.Errorf("realnet: frame of %d bytes exceeds cap %d", length, r.max)
	}
	bp := getBuf(int(length))
	defer putBuf(bp)
	buf := *bp
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, 0, err
	}
	d := &r.dec
	d.Reset(buf)
	f := &frame{}
	d.Addr(&f.From)
	d.Message(&f.Msg)
	if err := d.Err(); err != nil {
		return nil, 0, err
	}
	if left := d.Remaining(); left != 0 {
		// A valid message followed by garbage means the stream is
		// desynced or the sender is corrupt; delivering would mask it.
		return nil, 0, fmt.Errorf("realnet: %d trailing bytes in frame", left)
	}
	n := len(buf) + uvarintLen(length)
	return f, n, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (n *Node) accept() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		n.accepted[conn] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.reader(conn)
	}
}

func (n *Node) reader(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	fr := newBinaryReader(conn, maxFrameBytes)
	for {
		f, bytes, err := fr.readFrame()
		if err != nil {
			// Truncated, malformed, or oversized input: drop the
			// connection. The peer re-dials; lost messages are soft
			// state.
			return
		}
		n.framesRecv.Add(1)
		n.bytesRecv.Add(uint64(bytes))
		select {
		case n.slots <- struct{}{}:
		case <-n.done:
			return
		}
		n.Post(func() {
			<-n.slots
			if n.handler != nil {
				n.handler.HandleMessage(f.From, f.Msg)
			}
		})
	}
}

// loop runs the FIFO in arrival order: what a run posts — a scan's next
// slice — comes after every frame that was queued before it.
func (n *Node) loop() {
	defer n.wg.Done()
	var ran []func()
	for {
		select {
		case <-n.wake:
			ran = n.run(ran)
		case <-n.done:
			n.run(ran) // what is already queued, then exit
			return
		}
	}
}

// run runs what has been posted so far and returns it emptied, for
// reuse; what it posts waits for the next wake-up.
func (n *Node) run(ran []func()) []func() {
	clear(ran)
	n.postMu.Lock()
	fifo := n.posted
	n.posted = ran[:0]
	n.postMu.Unlock()
	for _, f := range fifo {
		f()
	}
	return fifo
}

// Close shuts the node down: listener, connections, event loop.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.cancel() // abort in-flight dials
		n.ln.Close()
		n.mu.Lock()
		for _, p := range n.peers {
			if p.conn != nil {
				p.conn.Close()
			}
		}
		for c := range n.accepted {
			c.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
}
