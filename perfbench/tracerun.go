package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/prompt"
)

// runTraced is the -trace 1 run: it drives the stream through netqueryd
// (serve-*), the untraced worker and the traced worker, then derives the
// per-layer metrics from the span file.
func runTraced(o *options, w *serveWorkload, res *Result) error {
	var rtt []int64
	var st *Stream
	if w != nil {
		st = w.stream(o.seed, w.traceCount)
		st.References = References(w.builder(), st.Programs)
		var err error
		if rtt, err = sequentialHTTP(o, w, st, res); err != nil {
			return err
		}
		if err := openLoopHigh(o, w, res); err != nil {
			return err
		}
	} else {
		for _, n := range []string{"service.http_us", "service.shed_ratio", "loadgen.lag_p99_ms", "loadgen.backlog_max"} {
			res.set(n, 0, unitOf(n), 0)
		}
	}

	raw, err := spawnWorker(o, "untraced")
	if err != nil {
		return err
	}
	var un untracedOut
	if err := json.Unmarshal(raw, &un); err != nil {
		return err
	}
	if _, err := spawnWorker(o, "traced"); err != nil {
		return err
	}
	raw, err = spawnWorker(o, "profile")
	if err != nil {
		return err
	}
	var prof []*profileOut
	if err := json.Unmarshal(raw, &prof); err != nil {
		return err
	}
	spans, err := ReadSpans(spanPath(o))
	if err != nil {
		return err
	}
	roots := rootSpans(spans)
	n := len(un.OpNS)
	if len(roots) != n || len(prof) != n {
		return fmt.Errorf("operations: traced worker ran %d, untraced %d, profile %d", len(roots), n, len(prof))
	}
	res.Attempted += 2 * n

	// Both workers must agree with the references (serve) or with each
	// other (matrix); a disagreement is a failed output check.
	for i, r := range roots {
		if w != nil {
			ref := st.References[st.Requests[i].Prog]
			if un.Status[i] != ref.Status || (ref.Status == http.StatusOK && un.Result[i] != ref.Result) {
				res.fail(failMismatch, 1)
			}
			if int(r.Attrs["status"]) != ref.Status {
				res.fail(failMismatch, 1)
			}
		} else if (r.Attrs["pass"] == 1) != un.Pass[i] {
			res.fail(failMismatch, 1)
		}
	}
	if res.FailKinds[failMismatch] > 0 {
		res.Correct = false
	}

	if err := layerMetrics(spans, roots, un, prof, res); err != nil {
		return err
	}
	if w != nil {
		var d []float64
		for i := range rtt {
			d = append(d, float64(rtt[i]-un.OpNS[i])/1e3)
		}
		res.set("service.http_us", median(d), "us", len(d))
	}
	res.Provenance["traced_ops"] = n
	res.Provenance["span_file"] = spanPath(o)
	return nil
}

func rootSpans(spans []Span) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerMetrics reports each layer's mean self time over the operations
// that reached it, plus the ratios and counts beside them. Builtin,
// federate and instruction figures come from the profile worker's run of
// the same operation.
func layerMetrics(spans []Span, roots []Span, un untracedOut, prof []*profileOut, res *Result) error {
	self := SelfTimes(spans)
	backendOf := map[int]string{}
	for _, r := range roots {
		backendOf[r.Req] = r.Labels["backend"]
	}
	sums, counts := map[string]float64{}, map[string]int{}
	add := func(name string, v float64) { sums[name] += v; counts[name]++ }
	var layerNS float64
	var steps []float64
	goldenHits, goldenCalls := 0, 0
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		ns := float64(self[s.ID])
		layerNS += float64(s.End - s.Start)
		b := backendOf[s.Req]
		switch s.Name {
		case "nemoeval.acquire":
			add(s.Name+"."+b, ns)
		case "sandbox.run":
			p := prof[s.Req]
			if p == nil {
				return fmt.Errorf("operation %d ran its program in the traced worker only", s.Req)
			}
			add(s.Name+"."+b, ns)
			add("nql.builtin."+b, float64(p.BuiltinNS))
			add("nql.vm_self."+b, float64(p.RunNS-p.BuiltinNS))
			steps = append(steps, float64(p.Steps))
			if b == "federated" && p.FederateNS > 0 {
				add("federate.exec", float64(p.FederateNS))
			}
		case "nemoeval.golden":
			goldenCalls++
			goldenHits += int(s.Attrs["hit"])
			add(s.Name, ns)
		default:
			add(s.Name, ns)
		}
	}
	avg := func(name string) (float64, int) {
		if counts[name] == 0 {
			return 0, 0
		}
		return sums[name] / float64(counts[name]), counts[name]
	}
	setNS := func(metric, span string) {
		v, c := avg(span)
		div := 1e3
		if unitOf(metric) == "ms" {
			div = 1e6
		}
		res.set(metric, v/div, unitOf(metric), c)
	}
	setNS("analysis.vet_us", "analysis.vet")
	setNS("service.admission_us", "service.admission")
	setNS("sandbox.compile_us", "sandbox.compile")
	setNS("service.encode_us", "service.encode")
	setNS("prompt.build_us", "prompt.build")
	setNS("llm.generate_us", "llm.generate")
	setNS("nemoeval.golden_ms", "nemoeval.golden")
	setNS("nemoeval.compare_us", "nemoeval.compare")
	setNS("federate.exec_ms", "federate.exec")
	for _, b := range prompt.AllBackends {
		setNS("nemoeval.acquire_ms."+b, "nemoeval.acquire."+b)
		setNS("sandbox.run_ms."+b, "sandbox.run."+b)
		setNS("nql.vm_self_ms."+b, "nql.vm_self."+b)
		setNS("nql.builtin_ms."+b, "nql.builtin."+b)
	}
	res.set("nql.steps", mean(steps), "count", len(steps))
	res.set("nemoeval.golden_hit_ratio", ratio(goldenHits, goldenCalls), "ratio", goldenCalls)
	res.set("service.vet_hit_ratio", ratio(int(un.VetHits), int(un.VetHits+un.VetMisses)), "ratio", int(un.VetHits+un.VetMisses))
	res.set("sandbox.cache_hit_ratio", ratio(int(un.ProgHits), int(un.ProgHits+un.ProgMisses)), "ratio", int(un.ProgHits+un.ProgMisses))

	var opNS, rootNS float64
	for _, v := range un.OpNS {
		opNS += float64(v)
	}
	for _, r := range roots {
		rootNS += float64(r.End - r.Start)
	}
	n := len(roots)
	res.set("service.unaccounted_us", (opNS-layerNS)/float64(n)/1e3, "us", n)
	res.set("trace.overhead_ratio", rootNS/opNS, "ratio", n)
	res.set("runtime.alloc_mb_per_op", un.AllocBytes/float64(n)/(1<<20), "MiB", n)
	res.set("runtime.gc_cpu_ratio", un.GCCPU/un.TotalCPU, "ratio", n)
	return nil
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	for _, b := range prompt.AllBackends {
		name = strings.TrimSuffix(name, "."+b)
	}
	for _, u := range [][2]string{{"_us", "us"}, {"_ms", "ms"}, {"_ratio", "ratio"}, {"_per_op", "MiB"}} {
		if strings.HasSuffix(name, u[0]) {
			return u[1]
		}
	}
	return "count"
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sequentialHTTP sends the stream to a fresh netqueryd one request at a
// time and returns each round trip's duration.
func sequentialHTTP(o *options, w *serveWorkload, st *Stream, res *Result) ([]int64, error) {
	srv, _, err := startServer(o.netqueryd, w)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := requireCold(srv.url); err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	rtt := make([]int64, len(st.Requests))
	for i := range st.Requests {
		start := time.Now()
		out := Outcome{Sent: true}
		resp, err := client.Post(srv.url+"/v1/query", "application/json", bytes.NewReader(st.Body(i)))
		if err == nil {
			out.Body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				out.Status = resp.StatusCode
			}
		}
		rtt[i] = int64(time.Since(start))
		res.Attempted++
		if kind := Classify(out, st.References[st.Requests[i].Prog]); kind != "" {
			res.fail(kind, 1)
		}
	}
	return rtt, nil
}

// openLoopHigh drives the workload's high rate at a fresh netqueryd for
// the generator's validity figures and the shed ratio.
func openLoopHigh(o *options, w *serveWorkload, res *Result) error {
	p := w.plan()[1]
	st := w.stream(o.seed+1, p.n)
	refs := References(w.builder(), st.Programs)
	srv, _, err := startServer(o.netqueryd, w)
	if err != nil {
		return err
	}
	defer srv.stop()
	gen := NewGenerator(srv.url+"/v1/query", o.conns, 2*w.limit+time.Second)
	defer gen.Close()
	arrivals := Schedule(p.rate, p.n, func(i int) ([]byte, int) { return st.Body(i), st.Requests[i].Prog })
	ph := gen.Run(context.Background(), arrivals)
	ps := summarise(ph, arrivals, refs, p.rate, w.limit)
	res.Attempted += ps.attempted
	for k, n := range ps.kinds {
		res.fail(k, n)
	}
	res.set("service.shed_ratio", ratio(ps.kinds[failShed], ps.attempted), "ratio", ps.attempted)
	res.set("loadgen.lag_p99_ms", ps.lagP99, "ms", ps.attempted)
	res.set("loadgen.backlog_max", float64(ps.backlogMax), "count", ps.attempted)
	res.Provenance["open_loop_rate_per_s"] = p.rate
	return nil
}
