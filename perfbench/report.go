package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Metric is one reported number with its unit and the count of samples
// behind it.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Result is everything one run reports.
type Result struct {
	Provenance map[string]any    `json:"provenance"`
	Metrics    map[string]Metric `json:"metrics"`
	// Extra holds figures printed for the reader that BENCHMARK.json does
	// not gate: capacity, p99 latencies, the fail ratio and per-phase detail.
	Extra     map[string]Metric `json:"extra,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailKinds map[string]int    `json:"fail_kinds,omitempty"`
}

// MarshalJSON writes a value that is not finite as null: a phase's p99 is
// +Inf when more than 1% of its arrivals failed or were abandoned.
func (m Metric) MarshalJSON() ([]byte, error) {
	type plain Metric
	if !math.IsInf(m.Value, 0) && !math.IsNaN(m.Value) {
		return json.Marshal(plain(m))
	}
	return json.Marshal(struct {
		Value   *float64 `json:"value"`
		Unit    string   `json:"unit"`
		Samples int      `json:"samples"`
	}{nil, m.Unit, m.Samples})
}

func newResult() *Result {
	return &Result{Provenance: map[string]any{}, Metrics: map[string]Metric{}, Extra: map[string]Metric{}, Correct: true}
}

func (r *Result) set(name string, v float64, unit string, samples int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

func (r *Result) extra(name string, v float64, unit string, samples int) {
	r.Extra[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

func (r *Result) fail(kind string, n int) {
	if n == 0 {
		return
	}
	if r.FailKinds == nil {
		r.FailKinds = map[string]int{}
	}
	r.FailKinds[kind] += n
	r.Failed += n
}

// Print writes the human-readable table, the full result as one JSON line,
// and, last, the summary line holding exactly the metrics in names.
func (r *Result) Print(w io.Writer, names []string) error {
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Fprintf(w, "%-34s %14.6g %-10s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	var extras []string
	for n := range r.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		m := r.Extra[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-10s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v fail_kinds=%v\n", r.Attempted, r.Failed, r.Correct, r.FailKinds)
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", full)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type summary struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, n := range names {
		s.Metrics[n] = value{r.Metrics[n].Value, r.Metrics[n].Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of vs (which it sorts).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
