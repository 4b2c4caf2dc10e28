package realnet

import (
	"sync"
	"testing"
	"time"

	"pier/internal/dht/can"
	"pier/internal/env"
	"pier/internal/wire"
)

type echoMsg struct{ N int }

func (m *echoMsg) WireSize() int { return wire.Size(m) }

func init() {
	wire.Register(201, func(c *wire.Codec, m *echoMsg) { c.Int(&m.N) })
}

func TestFrameRoundTrip(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan int, 1)
	b.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		if from != a.Addr() {
			t.Errorf("from = %v, want %v", from, a.Addr())
		}
		got <- m.(*echoMsg).N
	}))
	a.Send(b.Addr(), &echoMsg{N: 42})
	select {
	case n := <-got:
		if n != 42 {
			t.Fatalf("got %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

func TestSelfSendLoopsBack(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	got := make(chan int, 1)
	a.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
		got <- m.(*echoMsg).N
	}))
	a.Send(a.Addr(), &echoMsg{N: 7})
	select {
	case n := <-got:
		if n != 7 {
			t.Fatalf("got %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-send never delivered")
	}
}

func TestAfterAndDo(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	fired := false
	a.After(20*time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	time.Sleep(100 * time.Millisecond)
	ok := false
	a.Do(func() {
		mu.Lock()
		ok = fired
		mu.Unlock()
	})
	if !ok {
		t.Fatal("timer callback never ran on loop")
	}
	tm := a.After(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	tm.Stop()
	time.Sleep(50 * time.Millisecond)
}

func TestCANJoinOverTCP(t *testing.T) {
	// The critical cross-package path: CAN protocol messages (with maps,
	// zones, nested types) must survive wire framing.
	mk := func(seed int64) (*Node, *can.Router) {
		n, err := Listen("127.0.0.1:0", seed)
		if err != nil {
			t.Fatal(err)
		}
		r := can.New(n, can.DefaultConfig())
		n.SetHandler(env.HandlerFunc(func(from env.Addr, m env.Message) {
			r.HandleMessage(from, m)
		}))
		return n, r
	}
	n0, r0 := mk(1)
	defer n0.Close()
	n1, r1 := mk(2)
	defer n1.Close()

	n0.Do(func() { r0.Join(env.NilAddr) })
	n1.Do(func() { r1.Join(n0.Addr()) })

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ready := false
		n1.Do(func() { ready = r1.Ready() })
		if ready {
			vol := 0.0
			n0.Do(func() { vol += can.TotalVolume(r0.Zones()) })
			n1.Do(func() { vol += can.TotalVolume(r1.Zones()) })
			if vol < 0.99 || vol > 1.01 {
				t.Fatalf("zones cover %v after TCP join", vol)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("CAN join over TCP never completed")
}

func TestCloseIsIdempotentAndTerminates(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) {}))
	a.Send(b.Addr(), &echoMsg{N: 1}) // open a connection pair
	time.Sleep(100 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		a.Close()
		a.Close() // idempotent
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs (leaked reader/writer goroutines)")
	}
}

func TestSendToUnreachableAddressDoesNotBlock(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	a.Send("127.0.0.1:1", &echoMsg{N: 1}) // port 1: refused immediately
	if time.Since(start) > 3*time.Second {
		t.Fatal("send blocked too long on unreachable peer")
	}
}

// TestLoopNeverBlocksOnItself: work the event loop hands itself — a
// Post, a self-send — must not wait for room in the inbox, or a loop
// that fills it deadlocks on its own queue.
func TestLoopNeverBlocksOnItself(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = inboxLen + 100 // more than the inbox holds
	posts, sends := 0, 0     // touched on the loop only
	a.SetHandler(env.HandlerFunc(func(env.Addr, env.Message) { sends++ }))
	returned := make(chan struct{})
	go func() {
		a.Do(func() {
			for i := 0; i < n; i++ {
				a.Post(func() { posts++ })
				a.Send(a.Addr(), &echoMsg{N: i})
			}
		})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Do never returned: the loop blocked posting to itself")
	}
	a.Do(func() {
		if posts != n || sends != n {
			t.Errorf("ran %d posts and %d self-sends, want %d each", posts, sends, n)
		}
	})
}

// TestStopIsFinal: a timer that fired while the loop was busy has its
// callback queued; a Stop made on the loop before it runs still cancels
// it, as in the simulator.
func TestStopIsFinal(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ran := false // touched on the loop only
	a.Do(func() {
		tm := a.After(time.Millisecond, func() { ran = true })
		time.Sleep(20 * time.Millisecond) // the fire is queued behind this
		tm.Stop()
	})
	time.Sleep(20 * time.Millisecond)
	a.Do(func() {
		if ran {
			t.Error("a timer stopped on the loop ran its callback")
		}
	})
}

// TestPostKeepsEachPostersOrder: goroutines posting at once, the loop
// among them, each see their work run in the order they posted it.
func TestPostKeepsEachPostersOrder(t *testing.T) {
	a, err := Listen("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const posters, posts = 8, 200
	var next [posters + 1]int // touched on the loop only
	post := func(p int) {
		for i := 0; i < posts; i++ {
			i := i
			a.Post(func() {
				if next[p] != i {
					t.Errorf("poster %d: post %d ran as number %d", p, i, next[p])
				}
				next[p]++
			})
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			post(p)
		}(p)
	}
	a.Do(func() { post(posters) })
	wg.Wait()
	a.Do(func() {
		for p, n := range next {
			if n != posts {
				t.Errorf("poster %d: %d of %d posts ran", p, n, posts)
			}
		}
	})
}
