package dht

import (
	"testing"
	"time"

	"pier/internal/simnet"
	"pier/internal/topology"
)

func oneNode() (*simnet.Network, *simnet.NodeEnv) {
	nw := simnet.New(topology.NewFullMeshInfinite(), 1)
	return nw, nw.AddNode()
}

// TestCallEndsOnceWhicheverComesFirst: a request ends exactly once, with
// the reply's value when the reply beats the timeout and with the zero
// value when it does not; whatever comes second runs nothing.
func TestCallEndsOnceWhicheverComesFirst(t *testing.T) {
	nw, e := oneNode()
	var c Calls[string]
	var ends []string
	done := func(v string) { ends = append(ends, v) }

	replied := c.Start(e, time.Second, done)
	if !c.Reply(replied, "answer") {
		t.Fatal("a reply to an outstanding request found nothing")
	}
	timedOut := c.Start(e, time.Second, done)
	nw.RunFor(2 * time.Second)
	if c.Reply(timedOut, "late") || c.Reply(replied, "again") {
		t.Fatal("a reply after the request ended found it")
	}
	nw.RunFor(2 * time.Second)
	if len(ends) != 2 || ends[0] != "answer" || ends[1] != "" {
		t.Fatalf("ends %q, want [answer \"\"]", ends)
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d requests left registered", len(c.pending))
	}
}

// TestTableIsReleasedWhenEmpty: a burst of requests leaves no table
// behind, since a map keeps its peak size after its entries go.
func TestTableIsReleasedWhenEmpty(t *testing.T) {
	nw, e := oneNode()
	var c Calls[int]
	var ns []uint64
	for i := 0; i < 200; i++ {
		ns = append(ns, c.Start(e, time.Second, func(int) {}))
	}
	for _, n := range ns[:100] {
		c.Reply(n, 1)
	}
	if c.pending == nil {
		t.Fatal("the table went while requests were outstanding")
	}
	nw.RunFor(2 * time.Second)
	if c.pending != nil {
		t.Fatal("the table outlived its requests")
	}
}

// TestReplyStopsTheTimer: an answered request leaves no timer queued.
func TestReplyStopsTheTimer(t *testing.T) {
	nw, e := oneNode()
	var c Calls[int]
	before := nw.Pending()
	n := c.Start(e, time.Minute, func(int) {})
	if nw.Pending() != before+1 {
		t.Fatalf("Start queued %d events, want 1", nw.Pending()-before)
	}
	c.Reply(n, 1)
	if nw.Pending() != before {
		t.Fatalf("%d events queued after the reply, want %d", nw.Pending(), before)
	}
}

// TestSmallestAnsweredNonceIsReused: a request takes the smallest nonce
// whose request was answered, and a timed-out nonce never comes back, so
// its late reply cannot reach a newer request.
func TestSmallestAnsweredNonceIsReused(t *testing.T) {
	nw, e := oneNode()
	var c Calls[int]
	nop := func(int) {}
	var n [4]uint64
	for i := range n {
		n[i] = c.Start(e, time.Second, nop)
	}
	if n != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("first nonces %v, want 1-4", n)
	}
	c.Reply(3, 0)
	c.Reply(2, 0)
	if a, b, f := c.Start(e, time.Second, nop), c.Start(e, time.Second, nop), c.Start(e, time.Second, nop); a != 2 || b != 3 || f != 5 {
		t.Fatalf("after answers to 3 and 2 the next nonces are %d %d %d, want 2 3 5", a, b, f)
	}
	nw.RunFor(2 * time.Second) // every request times out
	for i := 0; i < 300; i++ {
		m := c.Start(e, time.Second, nop)
		if m <= 5 {
			t.Fatalf("timed-out nonce %d came back", m)
		}
		if c.Reply(1, 0) {
			t.Fatal("a late reply reached a newer request")
		}
		if !c.Reply(m, 0) {
			t.Fatal("a reply missed its request")
		}
		if i > 0 && m != 6 {
			t.Fatalf("request %d took nonce %d with 6 answered and free", i, m)
		}
	}
	if c.nonce != 6 {
		t.Fatalf("the last fresh nonce is %d, want 6: answered requests drew fresh nonces", c.nonce)
	}
}
