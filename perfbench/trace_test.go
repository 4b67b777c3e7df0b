package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Req: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},  // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 25},
	}
	got := SelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestTracerRoundTripsThroughFile(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(7, 0, "request")
	child := tr.Start(7, root, "sandbox.run")
	tr.Attr(child, "steps", 42)
	tr.End(child)
	tr.Label(root, "backend", "sql")
	tr.End(root)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spans, tr.Spans) {
		t.Fatalf("read back %+v, wrote %+v", spans, tr.Spans)
	}
	if s := spans[1]; s.Parent != root || s.Req != 7 || s.Attrs["steps"] != 42 || s.End < s.Start {
		t.Fatalf("child span %+v", s)
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metric names the benchmark prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, workloads []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: BENCHMARK.json unit %q, reported unit %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer = %v, benchmark reports %v", layers, perLayer)
	}
	if want := []string{"matrix", "serve-small", "serve-large"}; !reflect.DeepEqual(workloads, want) {
		t.Errorf("workloads = %v, want %v", workloads, want)
	}
}
