// Package wire is the binary wire codec for PIER's real-network
// transport, the one encoding every node, CLI and experiment speaks, and
// the ruler the simulator charges by. Every message type is described
// once, by a function that names its fields in wire order; one Codec runs
// that function in three modes — append the bytes, read the bytes, count
// the bytes — so the encoder, the decoder and WireSize() cannot drift
// apart:
//
//   - every message type registers a one-byte type tag plus its field
//     function (Register) next to its definition;
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
// A registered type's WireSize() is Size(m): its field function run in
// count mode, allocating nothing. One relation holds for every message,
// and the codec property tests, the fuzz target and the simulator
// agreement test assert it as an equality:
//
//	m.WireSize() == len(Marshal(m)) + PadSize(m)
//
// PadSize is the pad a message declares (Codec.Pad: a tuple's Pad models
// payload bytes nobody evaluates, §5.1's 1 KB result tuples). The pad
// travels as one varint — no user of Pad needs the bytes on a real link —
// and count mode charges the bytes it stands for, so the simulator, the
// storage quotas and the statistics catalog see the modelled tuple while
// a TCP frame stays small. The simulator adds env.HeaderSize per send for
// what lies below the codec. A message with no wire tag (test messages,
// the bare-simulator walker) keeps a literal WireSize(), which count mode
// charges as is when it finds one nested in a registered message.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"time"

	"pier/internal/env"
)

// MaxPad is the largest pad a frame may declare: realnet's default
// MaxFrameBytes. The pad is charged but never sent, so without a bound a
// 20-byte frame could claim 1<<62 bytes of some node's storage quota.
const MaxPad = 16 << 20

type entry struct {
	name   string
	typ    uintptr // typeKey of the registered pointer type
	alloc  func() env.Message
	fields func(*Codec, env.Message)
}

// byTag is indexed by wire tag. byType finds the same entries by message
// type: an open-addressed table keyed by the type's address, because a
// map[reflect.Type] lookup (20 ns) would cost more than counting a small
// message does.
var (
	byTag  [256]*entry
	byType [512]*entry
)

func typeKey(t reflect.Type) uintptr { return reflect.ValueOf(t).Pointer() }

// typeSlot returns the byType slot holding key, or the empty slot where
// it belongs.
func typeSlot(key uintptr) **entry {
	i := key >> 4 % uintptr(len(byType))
	for byType[i] != nil && byType[i].typ != key {
		i = (i + 1) % uintptr(len(byType))
	}
	return &byType[i]
}

// Register installs the description of one concrete message type *T,
// identified on the wire by tag: fields names the type's fields in wire
// order, each through a Codec primitive, and is the type's encoder,
// decoder and size. Where decoding does more than mirror encoding
// (hostile-input guards) fields says so under c.Decoding(). Tag 0 is
// reserved for nil. Register panics on tag or type collisions —
// descriptions are wired up in package init functions.
func Register[T any, P interface {
	*T
	env.Message
}](tag byte, fields func(*Codec, P)) {
	RegisterAlloc(tag, func() P { return new(T) }, fields)
}

// RegisterAlloc is Register for a type whose decoded instances come from
// alloc (a pool of recycled shells) instead of new(T).
func RegisterAlloc[T any, P interface {
	*T
	env.Message
}](tag byte, alloc func() P, fields func(*Codec, P)) {
	if tag == 0 {
		panic("wire: tag 0 is reserved for nil messages")
	}
	t := reflect.TypeFor[P]()
	key := typeKey(t)
	slot := typeSlot(key)
	if e := byTag[tag]; e != nil {
		panic(fmt.Sprintf("wire: tag %d already registered to %s (adding %s)", tag, e.name, t))
	}
	if *slot != nil {
		panic(fmt.Sprintf("wire: type %s already registered", t))
	}
	*slot = &entry{
		name:  t.String(),
		typ:   key,
		alloc: func() env.Message { return alloc() },
		fields: func(c *Codec, m env.Message) {
			p := m.(P)
			if p == nil {
				c.put(0) // a typed nil pointer is a nil message
				return
			}
			if c.mode != reading {
				c.put(tag)
			}
			fields(c, p)
		},
	}
	byTag[tag] = *slot
}

// Registered reports the tags that have descriptions installed, for
// tests that want to enumerate the full message vocabulary.
func Registered() []byte {
	var tags []byte
	for tag, e := range byTag {
		if e != nil {
			tags = append(tags, byte(tag))
		}
	}
	return tags
}

// codecs recycles the Codec behind Marshal, Append, Size and PadSize:
// a Codec reaches the field functions through a function value, so one
// declared on the stack would escape and cost an allocation per call.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

func run(mode mode, buf []byte, m env.Message) (out []byte, n, pad int, err error) {
	c := codecs.Get().(*Codec)
	*c = Codec{mode: mode, buf: buf}
	c.putMessage(m)
	out, n, pad, err = c.buf, c.n, c.pad, c.err
	c.buf = nil
	codecs.Put(c)
	return
}

// Marshal encodes a message (tag + body). A nil message encodes as the
// single byte 0.
func Marshal(m env.Message) ([]byte, error) { return Append(nil, m) }

// Append encodes a message onto buf, returning the extended buffer.
func Append(buf []byte, m env.Message) ([]byte, error) {
	out, _, _, err := run(writing, buf, m)
	return out, err
}

// Size is the WireSize() of every registered type: m's field function
// in count mode, which sums what Marshal would write plus the declared
// pad, allocates nothing and sorts nothing.
func Size(m env.Message) int {
	_, n, _, _ := run(counting, nil, m)
	return n
}

// PadSize reports the pad bytes m declares (its own and its nested
// messages'): the part of WireSize() that Marshal does not write.
func PadSize(m env.Message) int {
	_, _, pad, _ := run(counting, nil, m)
	return pad
}

// Unmarshal decodes one message occupying the whole of b.
func Unmarshal(b []byte) (env.Message, error) {
	c := Codec{buf: b}
	m := c.readMessage()
	if c.err == nil && c.off != len(c.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after message", len(c.buf)-c.off)
	}
	return m, c.err
}

type mode uint8

const (
	reading  mode = iota // the zero Codec reads; Reset points it at a frame
	writing              // append to buf
	counting             // sum into n; buf untouched
)

// Codec runs field functions. Every primitive takes a pointer to the
// field: writing appends the field's encoding, counting adds its encoded
// length, reading stores the decoded value through the pointer. Errors
// (unregistered types, malformed varints, truncated input, unknown tags)
// are sticky: after the first, reads store zero values and Err reports
// the cause.
type Codec struct {
	buf    []byte // writing: the bytes so far; reading: the input
	off    int    // reading: position in buf
	n      int    // counting: bytes so far, declared pad included
	pad    int    // counting: the declared pad within n
	depth  int    // reading: message nesting
	mode   mode
	err    error
	intern *Intern
}

// Writer returns a Codec appending to buf — pass a recycled buffer
// (sliced to length 0) to avoid per-message allocations on hot paths.
func Writer(buf []byte) Codec { return Codec{mode: writing, buf: buf} }

// Reset re-points the codec at b for reading, clearing offset, error,
// and nesting depth but keeping the intern table — the per-connection
// reuse path.
func (c *Codec) Reset(b []byte) {
	*c = Codec{buf: b, intern: c.intern}
}

// SetIntern installs a string-deduplication table consulted by String
// (and therefore Addr and Value) when reading. Transports install one
// per connection so repeated strings decode without allocating; pass nil
// to remove.
func (c *Codec) SetIntern(in *Intern) { c.intern = in }

// Decoding reports whether the codec is reading: field functions put
// what only a decoder does (rejecting values no honest sender writes,
// bounding allocations) under it.
func (c *Codec) Decoding() bool { return c.mode == reading }

// Counting reports whether the codec is summing sizes: a field function
// may then skip what only a deterministic encoding needs (sorting map
// keys), since a sum does not depend on order.
func (c *Codec) Counting() bool { return c.mode == counting }

// Err returns the first error the codec hit.
func (c *Codec) Err() error { return c.err }

// Bytes returns the encoded buffer.
func (c *Codec) Bytes() []byte { return c.buf }

// Remaining reports the undecoded bytes left — transports use it to
// reject frames with trailing garbage after a valid message.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Fail records an error (for field functions).
func (c *Codec) Fail(msg string) {
	if c.err == nil {
		c.err = errors.New("wire: " + msg)
	}
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// put writes or counts one raw byte.
func (c *Codec) put(b byte) {
	if c.mode == writing {
		c.buf = append(c.buf, b)
	} else {
		c.n++
	}
}

func (c *Codec) get() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.buf) {
		c.Fail("truncated message")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

// Byte is one raw byte.
func (c *Codec) Byte(b *byte) {
	if c.mode == reading {
		*b = c.get()
	} else {
		c.put(*b)
	}
}

// Bool is a boolean as one byte.
func (c *Codec) Bool(b *bool) {
	switch {
	case c.mode == reading:
		*b = c.get() != 0
	case *b:
		c.put(1)
	default:
		c.put(0)
	}
}

// Uvarint is an unsigned varint. The counting path is spelled so that the
// compiler inlines it (uvarintLen written out keeps the function under
// the inlining budget): the simulator counts every message it sends, and
// most of what it counts is varints.
func (c *Codec) Uvarint(v *uint64) {
	if c.mode == counting {
		c.n += (bits.Len64(*v|1) + 6) / 7
	} else {
		c.uvarint(v)
	}
}

func (c *Codec) uvarint(v *uint64) {
	if c.mode == writing {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.Fail("malformed varint")
		return
	}
	c.off += n
	*v = x
}

// Varint is a signed (zigzag) varint.
func (c *Codec) Varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	c.Uvarint(&u)
	if c.mode == reading {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int is an int as a signed varint: Signed(c, v), written out because
// the compiler inlines this form and not a call to the generic one.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Varint(&x)
	if c.mode == reading {
		*v = int(x)
	}
}

// Signed is any signed integer type (enums, time.Duration as
// nanoseconds) as a signed varint.
func Signed[T ~int | ~int8 | ~int16 | ~int32 | ~int64](c *Codec, v *T) {
	x := int64(*v)
	c.Varint(&x)
	if c.mode == reading {
		*v = T(x)
	}
}

// Unsigned is any unsigned integer type as an unsigned varint; a value
// too wide for T is truncated on read.
func Unsigned[T ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, v *T) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.mode == reading {
		*v = T(x)
	}
}

// Pad is a declared pad: payload bytes the message stands for but nobody
// evaluates (see "Relation to WireSize"). It travels as one signed
// varint; counting also charges the pad itself; reading rejects a
// negative pad and one above MaxPad, either of which corrupts the byte
// accounting of everything that trusts WireSize().
func (c *Codec) Pad(v *int) {
	c.Int(v)
	switch {
	case c.mode == counting:
		c.n += *v
		c.pad += *v
	case c.mode == reading && (*v < 0 || *v > MaxPad):
		c.Fail(fmt.Sprintf("pad of %d bytes outside [0, %d]", *v, MaxPad))
	}
}

// Len is a slice or map length n as an unsigned varint, returned for the
// caller's loop. Reading returns the decoded length instead, bounded
// against the remaining input at minBytes (at least 1) encoded bytes per
// element, so a corrupted count cannot claim more elements than the
// sender paid bytes for. Decoders building containers whose elements are
// larger in memory than on the wire should also start at SliceCap and
// grow by append, so a hostile count cannot amplify a frame into a much
// larger allocation.
func (c *Codec) Len(n, minBytes int) int {
	v := uint64(n)
	c.Uvarint(&v)
	if c.mode != reading {
		return n
	}
	if c.err != nil {
		return 0
	}
	if v > uint64(c.Remaining()/minBytes) {
		c.Fail(fmt.Sprintf("%d elements of >=%d bytes exceed remaining %d bytes", v, minBytes, c.Remaining()))
		return 0
	}
	return int(v)
}

// SliceCap bounds the initial capacity of an n-element container built
// by a decoder: start at most here and grow by append, so a corrupted
// count fails on truncation before large memory is committed.
func SliceCap(n int) int {
	if n > 4096 {
		return 4096
	}
	return n
}

// Slice is a length-prefixed slice, elem coding one element in place
// ((*Codec).Int, (*Codec).String, Required[*T], or a function naming a
// struct element's fields). Reading bounds the count as Len does, grows
// the slice by append from SliceCap, and leaves a zero-length slice nil.
func Slice[T any](c *Codec, s *[]T, minBytes int, elem func(*Codec, *T)) {
	n := c.Len(len(*s), minBytes)
	if c.mode != reading {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	if n == 0 {
		return
	}
	out := make([]T, 0, SliceCap(n))
	for i := 0; i < n && c.err == nil; i++ {
		var zero T
		out = append(out, zero)
		elem(c, &out[i])
	}
	*s = out
}

// Words is a length-prefixed slice of fixed 8-byte little-endian words —
// high-entropy values (Bloom filter words, sketch hashes) where varints
// only expand. The element size is exact, so reading allocates the slice
// at once and counting is O(1).
func (c *Codec) Words(w *[]uint64) {
	n := c.Len(len(*w), 8)
	switch c.mode {
	case writing:
		for _, x := range *w {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, x)
		}
	case counting:
		c.n += 8 * n
	default:
		if n == 0 {
			return
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(c.buf[c.off:])
			c.off += 8
		}
		*w = out
	}
}

// Fixed64 is a fixed 8-byte little-endian word.
func (c *Codec) Fixed64(v *uint64) {
	switch c.mode {
	case writing:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	case counting:
		c.n += 8
	default:
		*v = 0
		if c.err != nil {
			return
		}
		if c.Remaining() < 8 {
			c.Fail("truncated fixed64")
			return
		}
		*v = binary.LittleEndian.Uint64(c.buf[c.off:])
		c.off += 8
	}
}

// Float64 is a fixed 8-byte little-endian float.
func (c *Codec) Float64(f *float64) {
	v := math.Float64bits(*f)
	c.Fixed64(&v)
	if c.mode == reading {
		*f = math.Float64frombits(v)
	}
}

// String is a length-prefixed string. Reading with an intern table
// installed (SetIntern) stores the table's canonical copy and allocates
// nothing for strings seen before on this table.
func (c *Codec) String(s *string) {
	switch c.mode {
	case writing:
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
	case counting:
		c.n += uvarintLen(uint64(len(*s))) + len(*s)
	default:
		if b := c.StringBytes(); c.intern != nil {
			*s = c.intern.Get(b)
		} else {
			*s = string(b)
		}
	}
}

// Addr is a node address, coded as a string.
func (c *Codec) Addr(a *env.Addr) { c.String((*string)(a)) }

// StringBytes reads a length-prefixed string as a borrowed sub-slice of
// the decode buffer: no copy, no allocation. The slice is valid only as
// long as the buffer itself — for realnet frames, until the frame's
// decode returns and the transport recycles the buffer. Decoders must
// Detach (or string-copy) anything retained beyond that; everything
// else in this package that returns strings already copies or interns.
func (c *Codec) StringBytes() []byte {
	// Len(0, 1) written out: this is the decoder's innermost call.
	if c.err != nil {
		return nil
	}
	n, k := binary.Uvarint(c.buf[c.off:])
	if k <= 0 {
		c.Fail("malformed varint")
		return nil
	}
	lo := c.off + k
	if n > uint64(len(c.buf)-lo) {
		c.Fail(fmt.Sprintf("string of %d bytes exceeds remaining %d bytes", n, len(c.buf)-lo))
		return nil
	}
	c.off = lo + int(n)
	return c.buf[lo:c.off:c.off]
}

// Detach copies a borrowed slice (StringBytes) into a fresh allocation
// that is safe to retain after the frame buffer is recycled.
func Detach(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Time is an instant as a zero flag plus Unix nanoseconds. The monotonic
// reading and location are not preserved; decoded times compare Equal to
// the original.
func (c *Codec) Time(t *time.Time) {
	var zero bool
	var ns int64
	if c.mode != reading {
		zero, ns = t.IsZero(), t.UnixNano()
	}
	if c.Bool(&zero); !zero {
		c.Varint(&ns)
	}
	if c.mode == reading {
		*t = time.Time{}
		if !zero {
			*t = time.Unix(0, ns)
		}
	}
}

// Value tags for Codec.Value.
const (
	valNil byte = iota
	valFalse
	valTrue
	valInt
	valFloat
	valString
)

// Value is a column value: nil, bool, int64, float64, or string — the
// scalar vocabulary of core.Value. Other dynamic types are an encoding
// error.
func (c *Codec) Value(v *any) {
	if c.mode != reading {
		switch x := (*v).(type) {
		case nil:
			c.put(valNil)
		case bool:
			if x {
				c.put(valTrue)
			} else {
				c.put(valFalse)
			}
		case int64:
			c.put(valInt)
			c.Varint(&x)
		case float64:
			c.put(valFloat)
			c.Float64(&x)
		case string:
			c.put(valString)
			c.String(&x)
		default:
			c.Fail(fmt.Sprintf("unsupported value type %T", x))
		}
		return
	}
	switch tag := c.get(); tag {
	case valNil:
		*v = nil
	case valFalse:
		*v = false
	case valTrue:
		*v = true
	case valInt:
		var x int64
		c.Varint(&x)
		*v = x
	case valFloat:
		var x float64
		c.Float64(&x)
		*v = x
	case valString:
		if b := c.StringBytes(); c.intern != nil {
			*v = c.intern.GetValue(b)
		} else {
			*v = string(b)
		}
	default:
		*v = nil
		c.Fail(fmt.Sprintf("unknown value tag %d", tag))
	}
}

// maxNesting bounds recursive message decoding: a hostile frame of
// repeated nested-message tags must fail cleanly instead of overflowing
// the goroutine stack (a fatal, process-killing error). Legitimate PIER
// messages nest a handful of levels (flood envelope → item → tuple;
// expression trees a few dozen at worst).
const maxNesting = 100

// Message is a nested message of any registered type as tag + body. Nil
// (including typed nil pointers) is tag 0. Writing an unregistered type
// is an error; counting charges it its own WireSize().
func (c *Codec) Message(m *env.Message) {
	if c.mode == reading {
		*m = c.readMessage()
	} else {
		c.putMessage(*m)
	}
}

func (c *Codec) putMessage(m env.Message) {
	if m == nil {
		c.put(0)
		return
	}
	t := reflect.TypeOf(m)
	switch e := *typeSlot(typeKey(t)); {
	case e != nil:
		e.fields(c, m)
	case t.Kind() == reflect.Pointer && reflect.ValueOf(m).IsNil():
		c.put(0)
	case c.mode == counting:
		c.n += m.WireSize()
	default:
		c.Fail("unregistered message type " + t.String())
	}
}

func (c *Codec) readMessage() env.Message {
	tag := c.get()
	if c.err != nil || tag == 0 {
		return nil
	}
	e := byTag[tag]
	if e == nil {
		c.Fail(fmt.Sprintf("unknown message tag %d", tag))
		return nil
	}
	c.depth++
	if c.depth > maxNesting {
		c.Fail(fmt.Sprintf("message nesting exceeds %d levels", maxNesting))
		return nil
	}
	m := e.alloc()
	e.fields(c, m)
	c.depth--
	return m
}

// Required is a nested message held in a field of one static type F — a
// concrete *T or an interface such as core.Expr — at a position the
// receiver dereferences unconditionally: reading fails the frame on tag
// 0 or on a message that is not an F.
func Required[F env.Message](c *Codec, f *F) { nested(c, f, true) }

// Optional is Required for a position where nil is legitimate and stays
// nil (optional filters, index access paths).
func Optional[F env.Message](c *Codec, f *F) { nested(c, f, false) }

func nested[F env.Message](c *Codec, f *F, required bool) {
	if c.mode != reading {
		c.putMessage(*f)
		return
	}
	m := c.readMessage()
	if c.err != nil {
		return
	}
	if m == nil {
		if required {
			c.Fail("missing required " + reflect.TypeFor[F]().String())
		}
		return
	}
	x, ok := m.(F)
	if !ok {
		c.Fail("message is not a " + reflect.TypeFor[F]().String())
		return
	}
	*f = x
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
