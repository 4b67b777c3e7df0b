package main

import (
	"math"
	"testing"
	"time"
)

// TestProbeComputesItsSum checks that the probe does the fixed work it is
// timed for.
func TestProbeComputesItsSum(t *testing.T) {
	if got := probeWork(); got != probeSum {
		t.Fatalf("probeWork() = %d, want %d", got, probeSum)
	}
}

// TestScaleFollowsTheProbe checks that set-up time is scaled by the
// reference over the median probe rep of the whole run.
func TestScaleFollowsTheProbe(t *testing.T) {
	// A host half as fast as the reference.
	p := &hostProbe{reps: []float64{2 * refProbeMs, 1.9 * refProbeMs, 2.1 * refProbeMs}}
	if got := p.scale(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("scale = %g, want 0.5", got)
	}
	s := &setupTimes{measure: func() (time.Duration, error) { return 10 * time.Millisecond, nil }}
	res := newResult()
	if err := s.report(res, p); err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["setup_s"].Value; math.Abs(got-0.005) > 1e-12 {
		t.Errorf("setup_s = %g, want 0.005", got)
	}
	if raw := res.Extra["raw.setup_s"]; raw.Value != 0.01 || raw.Samples != setupRepeats {
		t.Errorf("raw.setup_s = %+v, want 0.01 over %d samples", raw, setupRepeats)
	}
}
