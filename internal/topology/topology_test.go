package topology

import (
	"testing"
	"time"
)

func TestFullMeshDefaults(t *testing.T) {
	m := NewFullMesh()
	if got := m.Latency(0, 1); got != 100*time.Millisecond {
		t.Errorf("Latency = %v, want 100ms", got)
	}
	if got := m.Latency(3, 3); got != 0 {
		t.Errorf("self latency = %v, want 0", got)
	}
	if got := m.InboundBandwidth(0); got != 10e6 {
		t.Errorf("bandwidth = %v, want 10e6", got)
	}
}

func TestFullMeshInfinite(t *testing.T) {
	m := NewFullMeshInfinite()
	if got := m.InboundBandwidth(5); got != 0 {
		t.Errorf("bandwidth = %v, want 0 (unlimited)", got)
	}
}

func TestTransitStubSymmetryAndSelf(t *testing.T) {
	ts := NewTransitStub(7)
	for a := 0; a < 50; a++ {
		if ts.Latency(a, a) != 0 {
			t.Fatalf("self latency nonzero for %d", a)
		}
		for b := a + 1; b < 50; b++ {
			if ts.Latency(a, b) != ts.Latency(b, a) {
				t.Fatalf("asymmetric latency %d<->%d", a, b)
			}
		}
	}
}

func TestTransitStubLatencyClasses(t *testing.T) {
	ts := NewTransitStub(7)
	sawIntra, sawInter := false, false
	for a := 0; a < 200 && !(sawIntra && sawInter); a++ {
		for b := a + 1; b < 200; b++ {
			l := ts.Latency(a, b)
			switch {
			case l == 2*time.Millisecond:
				sawIntra = true
			case l >= 20*time.Millisecond:
				sawInter = true
			default:
				t.Fatalf("unexpected latency %v between %d and %d", l, a, b)
			}
		}
	}
	if !sawIntra || !sawInter {
		t.Fatalf("latency classes missing: intra=%v inter=%v", sawIntra, sawInter)
	}
}

func TestTransitStubMeanNearPaper(t *testing.T) {
	// §5.7: "the average end-to-end delay between two nodes in the
	// transit stub topology is about 170 ms".
	ts := NewTransitStub(7)
	mean := ts.MeanLatency(4096, 20000, 1)
	if mean < 120*time.Millisecond || mean > 220*time.Millisecond {
		t.Fatalf("mean latency %v outside [120ms,220ms]", mean)
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	a, b := NewTransitStub(3), NewTransitStub(3)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if a.Latency(i, j) != b.Latency(i, j) {
				t.Fatalf("same seed differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransitStubBoundedLatency(t *testing.T) {
	ts := NewTransitStub(11)
	// Clique domains + gateways: at most a few transit hops.
	for a := 0; a < 128; a++ {
		for b := 0; b < 128; b++ {
			if l := ts.Latency(a, b); l > 500*time.Millisecond {
				t.Fatalf("latency %v between %d,%d implausibly large", l, a, b)
			}
		}
	}
}
