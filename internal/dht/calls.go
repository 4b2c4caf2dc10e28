package dht

import (
	"math/bits"
	"time"

	"pier/internal/env"
)

// Calls matches replies to the requests a node has outstanding: the
// callbacks of the paper's lookup and get (§3.2, Table 1). Each request
// carries a nonce its reply echoes, and ends exactly once: with the
// reply's value, or with T's zero value at its timeout. A reply after
// the timeout finds nothing. The zero value is ready to use; like all
// node state it belongs to the node's event loop.
//
// A request takes the smallest nonce whose request was answered, or
// else a fresh one. Nonces travel as varints, so while fewer than 128
// requests are in flight a request's nonce is one byte however many
// came before it. A timed-out nonce is never reused: its reply may
// still be on its way, and must not reach a newer request.
type Calls[T any] struct {
	nonce uint64 // the last fresh nonce taken
	// free marks the one-byte nonces (1-127) whose requests were
	// answered: bit n%64 of word n/64.
	free [2]uint64
	// pending holds pointers, since a slot of a pointer is half that of
	// a call, and is released when it empties: a map keeps its peak
	// size after the requests end.
	pending map[uint64]*call[T]
}

type call[T any] struct {
	done  func(T)
	timer env.Timer
}

// Start registers a request that done ends and returns its nonce.
func (c *Calls[T]) Start(e env.Env, timeout time.Duration, done func(T)) uint64 {
	n := c.reuse()
	if c.pending == nil {
		c.pending = make(map[uint64]*call[T])
	}
	c.pending[n] = &call[T]{done, e.After(timeout, func() {
		if cl, ok := c.take(n); ok {
			var zero T
			cl.done(zero)
		}
	})}
	return n
}

// reuse takes the smallest answered nonce, or else a fresh one.
func (c *Calls[T]) reuse() uint64 {
	for w, bs := range c.free {
		if bs != 0 {
			b := bits.TrailingZeros64(bs)
			c.free[w] &^= 1 << b
			return uint64(w*64 + b)
		}
	}
	c.nonce++
	return c.nonce
}

// Reply ends request n with v, reporting whether it was still
// outstanding. Its nonce is free for the next request, done's included.
func (c *Calls[T]) Reply(n uint64, v T) bool {
	cl, ok := c.take(n)
	if ok {
		cl.timer.Stop()
		if n < 128 {
			c.free[n/64] |= 1 << (n % 64)
		}
		cl.done(v)
	}
	return ok
}

func (c *Calls[T]) take(n uint64) (*call[T], bool) {
	cl, ok := c.pending[n]
	delete(c.pending, n)
	if len(c.pending) == 0 {
		c.pending = nil
	}
	return cl, ok
}
