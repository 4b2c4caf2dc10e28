package core

// The tuple-path measurement hook: benchmark/layers.go reads the
// shipping discipline's allocations per frame and decode rate from it
// (tcp-scan's core.encode/decode_allocs_per_frame and
// core.decode_tuples_per_s) through exported API, without reaching into
// the engine's unexported message types, and
// TestTuplePathPooledAllocRatio holds the two disciplines' ratio. Two
// disciplines are measured over the same frame:
//
//   - baseline: the pre-pooling path — every frame Marshal-ed into a
//     fresh buffer and Unmarshal-ed by a fresh decoder with no intern
//     table, the decoded shell left for the GC.
//   - pooled: the shipping path — frames appended to a reused scratch
//     buffer (what realnet's batch writer does) and decoded by a
//     persistent interned decoder into pooled shells that are recycled
//     after use.
//
// Allocation counts per frame are deterministic for a pinned frame
// shape, so they can gate in CI; tuple rates are wall-clock and are
// informational.

import (
	"fmt"
	"runtime"
	"time"

	"pier/internal/env"
	"pier/internal/wire"
)

// TuplePathCost is one measured codec discipline of the result-frame
// hot path.
type TuplePathCost struct {
	Pooled         bool // pooled+interned shipping path, vs per-frame Marshal/Unmarshal
	TuplesPerFrame int
	FrameBytes     int // encoded size of the measured frame
	// EncodeAllocs and DecodeAllocs are heap allocations per frame,
	// measured like testing.AllocsPerRun (GOMAXPROCS pinned to 1).
	EncodeAllocs float64
	DecodeAllocs float64
	// EncodeTuplesPerSec and DecodeTuplesPerSec are wall-clock rates:
	// they track host load as well as code, so they are informational.
	EncodeTuplesPerSec float64
	DecodeTuplesPerSec float64
}

// benchFrame builds the measured result frame: small-int and
// repeated-string columns exercise exactly the paths the pooled
// discipline optimizes (slab decode, string interning, pre-boxed
// values). Float and large-int columns pay one inherent interface-box
// allocation in both disciplines — Value is []any — so including them
// would dilute the comparison without distinguishing the disciplines.
func benchFrame(tuplesPerFrame int) *resultMsg {
	hosts := []string{"host-a", "host-b", "host-c", "host-d"}
	rm := &resultMsg{ID: 7}
	for i := 0; i < tuplesPerFrame; i++ {
		rm.Tuples = append(rm.Tuples, &Tuple{
			Rel:  "result",
			Vals: []Value{int64(i % 97), hosts[i%len(hosts)], "us-west", int64(i % 7)},
			Pad:  64,
		})
	}
	return rm
}

// MeasureTuplePath measures one codec discipline over a frame of
// tuplesPerFrame tuples, timing throughput over the given number of
// frame round-trips.
func MeasureTuplePath(tuplesPerFrame, frames int, pooled bool) (TuplePathCost, error) {
	rm := benchFrame(tuplesPerFrame)
	b, err := wire.Marshal(rm)
	if err != nil {
		return TuplePathCost{}, err
	}
	c := TuplePathCost{Pooled: pooled, TuplesPerFrame: tuplesPerFrame, FrameBytes: len(b)}

	var encode, decode func() error
	if pooled {
		scratch := make([]byte, 0, 2*len(b))
		encode = func() error {
			var err error
			scratch, err = wire.Append(scratch[:0], rm)
			return err
		}
		var dec wire.Codec
		dec.SetIntern(wire.NewIntern(0))
		decode = func() error {
			var m env.Message
			dec.Reset(b)
			dec.Message(&m)
			if err := dec.Err(); err != nil {
				return err
			}
			m.(*resultMsg).Recycle()
			return nil
		}
	} else {
		encode = func() error {
			_, err := wire.Marshal(rm)
			return err
		}
		decode = func() error {
			_, err := wire.Unmarshal(b)
			return err
		}
	}

	if c.EncodeAllocs, c.EncodeTuplesPerSec, err = measureOp(encode, tuplesPerFrame, frames); err != nil {
		return c, fmt.Errorf("encode: %w", err)
	}
	if c.DecodeAllocs, c.DecodeTuplesPerSec, err = measureOp(decode, tuplesPerFrame, frames); err != nil {
		return c, fmt.Errorf("decode: %w", err)
	}
	return c, nil
}

// measureOp warms f (validating it), counts its steady-state
// allocations per call, then times frames calls for the wall-clock
// tuple rate.
func measureOp(f func() error, tuplesPerFrame, frames int) (allocs, perSec float64, err error) {
	if err = f(); err != nil {
		return 0, 0, err
	}
	allocs = allocsPerRun(100, func() { _ = f() })
	start := time.Now()
	for i := 0; i < frames; i++ {
		_ = f()
	}
	if el := time.Since(start); el > 0 {
		perSec = float64(frames*tuplesPerFrame) / el.Seconds()
	}
	return allocs, perSec, nil
}

// allocsPerRun mirrors testing.AllocsPerRun without pulling the
// testing package into a non-test build: GOMAXPROCS is pinned to 1 for
// the duration so concurrent goroutines cannot pollute the malloc
// counter, and the average over runs smooths amortized growth (pool
// refills, map rehashes) into the steady-state figure.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm outside the measurement
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}
