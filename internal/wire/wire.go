// Package wire is the binary wire codec for PIER's real-network
// transport, the one encoding every node, CLI and experiment speaks. The
// simulator never serializes (it passes pointers and charges WireSize
// against the receiver's link); the real transport frames every message
// with this explicit, registry-driven encoding, sized for PIER's small
// soft-state messages (renews, miniTuples, partial aggregates):
//
//   - every message type registers a one-byte type tag plus hand-written
//     encode/decode functions (Register) next to its definition;
//   - a message on the wire is its tag followed by its body; tag 0 is a
//     nil message, so nested env.Message fields (multicast payloads,
//     stored items) encode recursively;
//   - integers are varints (zigzag for signed), floats are fixed 8-byte
//     little-endian, strings and slices carry uvarint length prefixes.
//
// # Tag space
//
// Tags are allocated centrally so independent packages cannot collide:
//
//	0        nil message
//	1..15    pier/internal/core messages (queryMsg, resultMsg, ...)
//	16..23   pier/internal/core expressions (Col, Const, ...)
//	24..31   pier/internal/core/bloom
//	32..47   pier/internal/dht/storage and /provider
//	48..63   pier/internal/dht/can
//	64..79   pier/internal/dht/chord
//	80..89   pier/internal/dht/multicast
//	90..99   package pier (catalog, ...)
//	100..109 pier/internal/stats (statistics catalog)
//	110..119 pier/internal/index (Prefix Hash Tree range indexes)
//	120..129 pier/internal/trace (query tracing spans)
//	200..255 applications and tests
//
// # Borrowed decode
//
// Decoders on the receive hot path can avoid the copy-per-string cost
// of the straightforward API. StringBytes returns a sub-slice of the
// frame buffer ("borrowed": valid only until the transport recycles the
// buffer, which realnet does as soon as the frame's decode returns);
// Detach copies a borrowed slice for anything retained past that point.
// SetIntern installs a bounded deduplication table that makes String
// (and Value's string case) allocation-free for every string already
// seen on the connection — relation names, namespaces, and addresses
// repeat on essentially every frame. Interned strings are ordinary Go
// strings (string([]byte) copies), so retaining them never aliases a
// recycled buffer.
//
// # Relation to WireSize
//
// WireSize() remains the simulator's charging model: it includes
// env.HeaderSize bytes of transport header for most messages and counts
// a tuple's Pad as real payload bytes. The binary encoding is never
// charged against links, but it is kept comparable: for any message
// whose env.Addr fields each encode in at most env.AddrSize bytes and
// whose integer values fit in int32, the encoded form (including the
// type tag) is at most WireSize() + env.HeaderSize bytes. The codec
// property tests assert exactly this relation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"pier/internal/env"
)

// EncodeFunc appends one message body (no tag) to the encoder.
type EncodeFunc func(*Encoder, env.Message)

// DecodeFunc reads one message body (no tag) from the decoder.
type DecodeFunc func(*Decoder) env.Message

type entry struct {
	name string
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	byTag  [256]*entry
	byType = map[reflect.Type]byte{}
)

// Register installs the codec for one concrete message type, identified
// on the wire by tag. proto is a value of the concrete type (typically a
// nil-free pointer such as &miniTuple{}). Tag 0 is reserved for nil.
// Register panics on tag or type collisions — codecs are wired up in
// package init functions.
func Register(tag byte, proto env.Message, enc EncodeFunc, dec DecodeFunc) {
	if tag == 0 {
		panic("wire: tag 0 is reserved for nil messages")
	}
	t := reflect.TypeOf(proto)
	name := t.String()
	if e := byTag[tag]; e != nil {
		panic(fmt.Sprintf("wire: tag %d already registered to %s (adding %s)", tag, e.name, name))
	}
	if prev, ok := byType[t]; ok {
		panic(fmt.Sprintf("wire: type %s already registered with tag %d", name, prev))
	}
	byTag[tag] = &entry{name: name, enc: enc, dec: dec}
	byType[t] = tag
}

// Registered reports the tags that have codecs installed, for tests that
// want to enumerate the full message vocabulary.
func Registered() []byte {
	var tags []byte
	for tag, e := range byTag {
		if e != nil {
			tags = append(tags, byte(tag))
		}
	}
	return tags
}

// Marshal encodes a message (tag + body). A nil message encodes as the
// single byte 0.
func Marshal(m env.Message) ([]byte, error) {
	e := Encoder{}
	e.Message(m)
	return e.buf, e.err
}

// Append encodes a message onto buf, returning the extended buffer.
func Append(buf []byte, m env.Message) ([]byte, error) {
	e := Encoder{buf: buf}
	e.Message(m)
	return e.buf, e.err
}

// Unmarshal decodes one message occupying the whole of b.
func Unmarshal(b []byte) (env.Message, error) {
	d := Decoder{buf: b}
	m := d.Message()
	if d.err == nil && d.off != len(d.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(d.buf)-d.off)
	}
	return m, d.err
}

// Encoder appends a message's binary form to an internal buffer. Errors
// (unregistered types, unsupported values) are sticky; the first one is
// reported by Err and by Marshal.
type Encoder struct {
	buf []byte
	err error
}

// NewEncoder returns an encoder appending to buf — pass a recycled
// buffer (sliced to length 0) to avoid per-message allocations on hot
// paths.
func NewEncoder(buf []byte) Encoder { return Encoder{buf: buf} }

// Err returns the first error the encoder hit.
func (e *Encoder) Err() error { return e.err }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Fail records an encoding error (for codec implementations).
func (e *Encoder) Fail(msg string) {
	if e.err == nil {
		e.err = errors.New("wire: " + msg)
	}
}

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// Len appends a slice/map length as an unsigned varint; Decoder.Len
// reads it back with an allocation guard.
func (e *Encoder) Len(n int) { e.Uvarint(uint64(n)) }

// Float64 appends a fixed 8-byte little-endian float.
func (e *Encoder) Float64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// Fixed64 appends a fixed 8-byte little-endian word — used for
// high-entropy values (Bloom filter words) where varints only expand.
func (e *Encoder) Fixed64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Addr appends a node address.
func (e *Encoder) Addr(a env.Addr) { e.String(string(a)) }

// Duration appends a time.Duration as a signed varint of nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Varint(int64(d)) }

// Time appends an instant as a zero flag plus Unix nanoseconds. The
// monotonic reading and location are not preserved; decoded times
// compare Equal to the original.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.Bool(true)
		return
	}
	e.Bool(false)
	e.Varint(t.UnixNano())
}

// Value tags for Encoder.Value / Decoder.Value.
const (
	valNil byte = iota
	valFalse
	valTrue
	valInt
	valFloat
	valString
)

// Value appends a column value: nil, bool, int64, float64, or string —
// the scalar vocabulary of core.Value. Other dynamic types are an
// encoding error.
func (e *Encoder) Value(v any) {
	switch v := v.(type) {
	case nil:
		e.Byte(valNil)
	case bool:
		if v {
			e.Byte(valTrue)
		} else {
			e.Byte(valFalse)
		}
	case int64:
		e.Byte(valInt)
		e.Varint(v)
	case float64:
		e.Byte(valFloat)
		e.Float64(v)
	case string:
		e.Byte(valString)
		e.String(v)
	default:
		e.Fail(fmt.Sprintf("unsupported value type %T", v))
	}
}

// Message appends a message as tag + body. Nil (including typed nil
// pointers) encodes as tag 0. Unregistered types are an encoding error.
func (e *Encoder) Message(m env.Message) {
	if m == nil {
		e.Byte(0)
		return
	}
	t := reflect.TypeOf(m)
	if t.Kind() == reflect.Pointer && reflect.ValueOf(m).IsNil() {
		e.Byte(0)
		return
	}
	tag, ok := byType[t]
	if !ok {
		e.Fail("unregistered message type " + t.String())
		return
	}
	e.Byte(tag)
	byTag[tag].enc(e, m)
}

// Decoder reads a message's binary form from a buffer. Errors (malformed
// varints, truncated input, unknown tags) are sticky: after the first
// error every read returns a zero value and Err reports the cause.
type Decoder struct {
	buf    []byte
	off    int
	depth  int
	err    error
	intern *Intern
}

// maxNesting bounds recursive Message decoding: a hostile frame of
// repeated nested-message tags must fail cleanly instead of overflowing
// the goroutine stack (a fatal, process-killing error). Legitimate PIER
// messages nest a handful of levels (flood envelope → item → tuple;
// expression trees a few dozen at worst).
const maxNesting = 100

// NewDecoder returns a decoder over b (for codec tests; transports use
// Unmarshal).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error the decoder hit.
func (d *Decoder) Err() error { return d.err }

// Fail records a decoding error (for codec implementations).
func (d *Decoder) Fail(msg string) {
	if d.err == nil {
		d.err = errors.New("wire: " + msg)
	}
}

func (d *Decoder) remaining() int { return len(d.buf) - d.off }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail("truncated message")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("malformed uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("malformed varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Float64 reads a fixed 8-byte little-endian float.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.Fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return f
}

// Fixed64 reads a fixed 8-byte little-endian word.
func (d *Decoder) Fixed64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.Fail("truncated fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Len reads a slice/map length and bounds it against the remaining
// input (every element costs at least one byte), so a corrupted count
// cannot claim more elements than the sender paid bytes for. Decoders
// building containers of multi-byte elements should combine this with
// SliceCap (grow-by-append) or LenMin so a hostile count cannot amplify
// a frame into a much larger allocation.
func (d *Decoder) Len() int { return d.LenMin(1) }

// LenMin reads a length whose elements each occupy at least perElem
// encoded bytes, bounding count*perElem against the remaining input.
func (d *Decoder) LenMin(perElem int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if perElem < 1 {
		perElem = 1
	}
	if n > uint64(d.remaining()/perElem) {
		d.Fail(fmt.Sprintf("%d elements of >=%d bytes exceed remaining %d bytes", n, perElem, d.remaining()))
		return 0
	}
	return int(n)
}

// Remaining reports the undecoded bytes left — transports use it to
// reject frames with trailing garbage after a valid message.
func (d *Decoder) Remaining() int { return d.remaining() }

// SliceCap bounds the initial capacity of an n-element container built
// by a decoder: start at most here and grow by append, so a corrupted
// count fails on truncation before large memory is committed.
func SliceCap(n int) int {
	if n > 4096 {
		return 4096
	}
	return n
}

// String reads a length-prefixed string. With an intern table installed
// (SetIntern) the returned string is the table's canonical copy and the
// read allocates nothing for strings seen before on this table.
func (d *Decoder) String() string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.intern != nil {
		return d.intern.Get(b)
	}
	return string(b)
}

// StringBytes reads a length-prefixed string as a borrowed sub-slice of
// the decode buffer: no copy, no allocation. The slice is valid only as
// long as the buffer itself — for realnet frames, until the frame's
// decode returns and the transport recycles the buffer. Decoders must
// Detach (or string-copy) anything retained beyond that; everything
// else in this package that returns strings already copies or interns.
func (d *Decoder) StringBytes() []byte {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Detach copies a borrowed slice (StringBytes) into a fresh allocation
// that is safe to retain after the frame buffer is recycled.
func Detach(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// SetIntern installs a string-deduplication table consulted by String
// (and therefore Addr and Value). Transports install one per connection
// so repeated strings decode without allocating; pass nil to remove.
func (d *Decoder) SetIntern(in *Intern) { d.intern = in }

// Reset re-points the decoder at b, clearing offset, error, and nesting
// depth but keeping the intern table — the per-connection reuse path.
func (d *Decoder) Reset(b []byte) {
	d.buf = b
	d.off = 0
	d.depth = 0
	d.err = nil
}

// internMaxLen bounds the length of strings worth interning: short
// identifiers (relation names, namespaces, host:port addresses) repeat
// across frames; long payload strings rarely do and would bloat the
// table.
const internMaxLen = 128

// Intern is a bounded string-deduplication table. Lookup by []byte key
// costs no allocation (the compiler recognizes the string(b) map-index
// form), so a hit returns the canonical string for free; a miss copies
// once and remembers the copy until the table fills. An Intern is not
// goroutine-safe — use one per connection, like the Decoder it feeds.
type Intern struct {
	m map[string]string
	// vals holds the same canonical strings pre-boxed as interface
	// values: tuple columns are []any, so without this every repeated
	// string column would still pay one interface allocation per
	// decode even though the string itself was interned.
	vals map[string]any
	max  int
}

// NewIntern returns a table holding at most max entries (0 means a
// 4096-entry default). Once full it stops learning but keeps serving
// hits, so a hostile peer streaming unique strings degrades to the
// copy-per-string baseline instead of growing memory.
func NewIntern(max int) *Intern {
	if max <= 0 {
		max = 4096
	}
	return &Intern{
		m:    make(map[string]string, 64),
		vals: make(map[string]any, 64),
		max:  max,
	}
}

// Get returns the canonical string equal to b, learning it if the table
// has room and b is short enough to be a plausible identifier.
func (in *Intern) Get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxLen && len(in.m) < in.max {
		in.m[s] = s
	}
	return s
}

// GetValue returns the canonical string equal to b boxed in an
// interface value, caching the boxed form so a repeated string column
// decodes with neither a string copy nor an interface allocation.
func (in *Intern) GetValue(b []byte) any {
	if len(b) == 0 {
		return "" // boxes without allocating (zero-length special case)
	}
	if v, ok := in.vals[string(b)]; ok {
		return v
	}
	s := in.Get(b)
	v := any(s)
	if len(s) <= internMaxLen && len(in.vals) < in.max {
		in.vals[s] = v
	}
	return v
}

// Len reports how many strings the table has learned.
func (in *Intern) Len() int { return len(in.m) }

// Addr reads a node address.
func (d *Decoder) Addr() env.Addr { return env.Addr(d.String()) }

// Duration reads a time.Duration.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Varint()) }

// Time reads an instant written by Encoder.Time.
func (d *Decoder) Time() time.Time {
	if d.Bool() {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}

// Value reads a column value written by Encoder.Value.
func (d *Decoder) Value() any {
	switch tag := d.Byte(); tag {
	case valNil:
		return nil
	case valFalse:
		return false
	case valTrue:
		return true
	case valInt:
		return d.Varint()
	case valFloat:
		return d.Float64()
	case valString:
		if d.intern != nil {
			return d.intern.GetValue(d.StringBytes())
		}
		return d.String()
	default:
		d.Fail(fmt.Sprintf("unknown value tag %d", tag))
		return nil
	}
}

// Message reads a message written by Encoder.Message. Tag 0 yields nil.
func (d *Decoder) Message() env.Message {
	tag := d.Byte()
	if d.err != nil || tag == 0 {
		return nil
	}
	e := byTag[tag]
	if e == nil {
		d.Fail(fmt.Sprintf("unknown message tag %d", tag))
		return nil
	}
	d.depth++
	if d.depth > maxNesting {
		d.Fail(fmt.Sprintf("message nesting exceeds %d levels", maxNesting))
		return nil
	}
	m := e.dec(d)
	d.depth--
	return m
}
