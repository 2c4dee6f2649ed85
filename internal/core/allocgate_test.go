package core

import (
	"testing"

	"repro/internal/bench"
)

// giantAllocsPerRun is the measured heap-allocation count of one
// scratch-reusing Runner run on a 10^4-value giant function. It is a
// ceiling: a change that allocates more per run fails here, and a change
// that allocates less should lower it.
const giantAllocsPerRun = 80

// TestGiantRunAllocations pins the allocations of a whole pipeline run on a
// giant strict-SSA function. Every stage sizes its memory up front or
// reuses the Runner's scratch, so the count does not grow with the number
// of values, program points or spills.
func TestGiantRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector skews allocation counts")
	}
	f := bench.GenGiant("giant", 1, 10_000, 51)
	runner := NewRunner()
	cfg := Config{Registers: 8}
	got := testing.AllocsPerRun(5, func() {
		if _, err := runner.Run(f, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs per run", got)
	if got > giantAllocsPerRun {
		t.Errorf("a Runner run on the 10^4-value giant function allocates %v times, pinned at %d",
			got, giantAllocsPerRun)
	}
}
