package pier

import (
	"reflect"
	"testing"

	"pier/internal/topology"
)

// settableValues counts the exported leaf fields of a config type,
// descending into nested config structs.
func settableValues(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			n += settableValues(f.Type)
		default:
			n++
		}
	}
	return n
}

// TestOptionsKnobCensus pins how many values Options lets a caller set.
// Each one is a field, a doc comment and a default to resolve, and
// doubles the configurations tests have to cover; a knob that only
// ever takes one value belongs in a constant of its package.
func TestOptionsKnobCensus(t *testing.T) {
	const want = 15
	if got := settableValues(reflect.TypeOf(Options{})); got != want {
		t.Fatalf("Options has %d settable values, want %d: adding (or removing) a knob means "+
			"editing this number in review, like CI's size ceiling", got, want)
	}
}

// TestIndexConfigReportsResolvedDefaults: at DefaultOptions the index
// agent reports the split threshold and depth limit it runs with, not
// the zero values it was given — the access-path choice prices index
// scans with the reported split threshold.
func TestIndexConfigReportsResolvedDefaults(t *testing.T) {
	sn := NewSimNetwork(1, topology.NewFullMesh(), 1, DefaultOptions())
	if cfg := sn.Nodes[0].Indexes().Config(); cfg.SplitThreshold != 16 || cfg.MaxDepth != 24 {
		t.Fatalf("Indexes().Config() = split %d, depth %d; want 16, 24", cfg.SplitThreshold, cfg.MaxDepth)
	}
}
