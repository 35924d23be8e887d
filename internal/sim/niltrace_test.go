package sim

import (
	"errors"
	"testing"

	"repro/internal/network"
)

// A nil trace must come back as the typed ErrNilTrace, not a panic: the
// experiment engine aggregates per-job errors and a panicking replay
// would take the whole worker pool down with it. A nil program is
// rejected the same way by the replay entry.
func TestRunNilTraceTypedError(t *testing.T) {
	if _, err := Compile(nil); !errors.Is(err, ErrNilTrace) {
		t.Fatalf("Compile(nil trace) = %v, want ErrNilTrace", err)
	}
	if _, err := RunProgram(network.Testbed(4).Platform(), nil); err == nil {
		t.Fatal("RunProgram(nil program) succeeded")
	}
}
