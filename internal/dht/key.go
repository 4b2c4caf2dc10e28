// Package dht defines the key space and the routing-layer API shared by
// the DHT implementations (CAN in internal/dht/can, Chord in
// internal/dht/chord), mirroring the paper's factoring of DHT
// functionality into a routing layer, a storage manager, and a provider
// (§3.2).
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// Key identifies an object in the DHT. Per §3.2.3, the key is computed by
// hashing the object's namespace and resourceID; items sharing both map
// to the same node.
type Key [20]byte

// KeyOf returns the DHT key for (namespace, resourceID).
func KeyOf(namespace, resourceID string) Key {
	h := sha1.New()
	h.Write([]byte(namespace))
	h.Write([]byte{0}) // unambiguous separator
	h.Write([]byte(resourceID))
	var k Key
	copy(k[:], h.Sum(nil))
	return k
}

// Point maps the key into a d-dimensional CAN coordinate, using one
// derived hash per dimension (§3.1.1 footnote: "we typically use d
// separate hash functions, one for each CAN dimension").
func (k Key) Point(dims int) []uint32 {
	p := make([]uint32, dims)
	// Hash from the stack: Owns and Lookup call Point on every put and get.
	var buf [len(k) + 1]byte
	copy(buf[:], k[:])
	for i := range p {
		buf[len(k)] = byte(i)
		h := sha1.Sum(buf[:])
		p[i] = binary.BigEndian.Uint32(h[:4])
	}
	return p
}

// Ring maps the key onto Chord's 64-bit identifier circle.
func (k Key) Ring() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// String returns a short hex form for logs.
func (k Key) String() string { return fmt.Sprintf("%x", k[:6]) }
