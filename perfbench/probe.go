package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on shared machines whose speed drifts: the same
// `nemoeval -all` pass takes anywhere from 2.3 s to 6 s on the same 2-core
// VM, depending on the hour. Set-up time, a few milliseconds to tens of
// milliseconds of process start, dataset build and first request, drifts
// with it. A run therefore also times a fixed computation of the
// benchmark's own, the probe, in fresh processes between its phases or
// passes, and reports setup_s scaled by refProbeMs over the probe's median
// in that run, as if the run had gone at the reference speed. The raw
// figure and the scale are printed beside it.

// refProbeMs is the probe's median rep on the reference machine, a 2-core
// Intel Xeon VM at 2.1 GHz: a host at that speed has scale 1.
const refProbeMs = 140.0

// A probe worker makes probeReps timed reps; in each, every processor
// calls probeWork probeCalls times.
const (
	probeReps  = 4
	probeCalls = 4
)

// probeSum is what one probeWork call returns; a probe that computes
// anything else is rejected.
const probeSum = 200060000

// probeWork is a fixed mix of what the program's layers spend their time
// on: small allocations, string keys, map inserts and lookups, sorting,
// and the garbage collection these leave behind.
func probeWork() int {
	type rec struct {
		key  string
		val  int
		tail []int
	}
	const n = 20000
	byKey := make(map[string]*rec)
	recs := make([]*rec, 0, n)
	for i := 0; i < n; i++ {
		k := "node-" + strconv.Itoa(i*7919%20011)
		r := &rec{key: k, val: i, tail: make([]int, i%8)}
		byKey[k] = r
		recs = append(recs, r)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].key < recs[b].key })
	sum := 0
	for i := 0; i < 2*n; i++ {
		if r, ok := byKey["node-"+strconv.Itoa(i)]; ok {
			sum += r.val + len(r.tail)
		}
	}
	return sum
}

// probeRep runs probeWork probeCalls times on every processor at once and
// returns how long that took.
func probeRep() (time.Duration, error) {
	procs := runtime.GOMAXPROCS(0)
	wrong := make([]int, procs) // the last wrong sum each goroutine saw
	var wg sync.WaitGroup
	start := time.Now()
	for i := range wrong {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for c := 0; c < probeCalls; c++ {
				if s := probeWork(); s != probeSum {
					wrong[i] = s
				}
			}
		}(i)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range wrong {
		if s != 0 {
			return 0, fmt.Errorf("probe computed %d, want %d", s, probeSum)
		}
	}
	return d, nil
}

// probePass is the -worker probe body: the wall time of probeReps reps,
// in ms.
func probePass() ([]float64, error) {
	var out []float64
	for i := 0; i < probeReps; i++ {
		d, err := probeRep()
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// hostProbe collects a run's probe reps.
type hostProbe struct {
	o    *options
	reps []float64 // ms
}

// take runs one probe worker.
func (p *hostProbe) take() error {
	out, err := spawnWorker(p.o, "probe")
	if err != nil {
		return err
	}
	var reps []float64
	if err := json.Unmarshal(out, &reps); err != nil || len(reps) == 0 {
		return fmt.Errorf("probe worker: %v, output %q", err, out)
	}
	p.reps = append(p.reps, reps...)
	return nil
}

// scale is refProbeMs over the median rep: below 1 on a host slower than
// the reference, above 1 on a faster one.
func (p *hostProbe) scale() float64 {
	return refProbeMs / median(p.reps)
}

// report prints the run's probe figures among the extras.
func (p *hostProbe) report(res *Result) {
	res.extra("host.probe_ms", median(p.reps), "ms", len(p.reps))
	res.extra("host.scale", p.scale(), "ratio", len(p.reps))
	res.Provenance["ref_probe_ms"] = refProbeMs
}
