package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestPrintSurvivesInfiniteExtras prints a result whose extra figures hold
// +Inf, as a phase's p99 does when more than 1% of its arrivals failed.
func TestPrintSurvivesInfiniteExtras(t *testing.T) {
	res := newResult()
	res.Attempted = 1
	res.set("setup_s", 0.5, "s", 3)
	res.extra("phase.step-1.p99_ms", math.Inf(1), "ms", 100)
	var out bytes.Buffer
	if err := res.Print(&out, []string{"setup_s"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] != true {
		t.Errorf("summary line = %v", last)
	}
	if !strings.Contains(out.String(), `"phase.step-1.p99_ms":{"value":null`) {
		t.Errorf("infinite extra not written as null:\n%s", out.String())
	}
}
