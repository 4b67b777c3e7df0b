package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/limiter"
	"repro/internal/llm"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/service"
)

// The traced run executes one request stream three ways, each in a fresh
// process so all three pass through the same cache states in the same
// order:
//
//   - the real netqueryd over HTTP, one request at a time (serve-* only);
//   - an untraced worker calling the layer's own entry point once per
//     operation (Service.Do, or Evaluator.EvaluateModel for matrix);
//   - a traced worker calling the same layers' public functions in the
//     order the program composes them, each inside a span.
//
// Per-layer self times come from the traced worker's span file; the
// untraced worker gives the whole-operation time they must reconcile with.

// perLayer names the per-layer metrics BENCHMARK.json lists, in order.
var perLayer = append([]string{
	"service.http_us", "service.unaccounted_us", "service.shed_ratio",
	"analysis.vet_us", "service.vet_hit_ratio", "service.admission_us",
	"sandbox.compile_us", "sandbox.cache_hit_ratio",
}, append(byBackend("nemoeval.acquire_ms", "sandbox.run_ms", "nql.vm_self_ms", "nql.builtin_ms"),
	"nql.steps", "federate.exec_ms", "service.encode_us",
	"prompt.build_us", "llm.generate_us", "nemoeval.golden_ms", "nemoeval.golden_hit_ratio", "nemoeval.compare_us",
	"runtime.alloc_mb_per_op", "runtime.gc_cpu_ratio",
	"loadgen.lag_p99_ms", "loadgen.backlog_max",
	"trace.overhead_ratio",
)...)

func byBackend(names ...string) []string {
	var out []string
	for _, n := range names {
		for _, b := range prompt.AllBackends {
			out = append(out, n+"."+b)
		}
	}
	return out
}

// untracedOut is what the untraced worker prints.
type untracedOut struct {
	OpNS       []int64  `json:"op_ns"`
	Status     []int    `json:"status"` // serve: HTTP status the error maps to
	Result     []string `json:"result"` // serve: rendered result of a 200
	Pass       []bool   `json:"pass"`   // matrix: record verdicts
	AllocBytes float64  `json:"alloc_bytes"`
	GCCPU      float64  `json:"gc_cpu_s"`
	TotalCPU   float64  `json:"total_cpu_s"`
	VetHits    uint64   `json:"vet_hits"`
	VetMisses  uint64   `json:"vet_misses"`
	ProgHits   uint64   `json:"prog_hits"`
	ProgMisses uint64   `json:"prog_misses"`
}

// runWorker runs one in-process pass (untraced, traced, profile, or one
// matrix set-up) and prints its output as JSON.
func runWorker(o *options) error {
	switch o.worker {
	case "untraced":
		out, err := untracedPass(o)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	case "traced":
		t, err := tracedPass(o)
		if err != nil {
			return err
		}
		return t.Write(spanPath(o))
	case "profile":
		return json.NewEncoder(os.Stdout).Encode(profilePass(o))
	case "setup":
		start := time.Now()
		buildMatrixDatasets()
		return json.NewEncoder(os.Stdout).Encode(time.Since(start))
	case "probe":
		reps, err := probePass()
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(reps)
	}
	return fmt.Errorf("unknown worker %q", o.worker)
}

func spanPath(o *options) string {
	return filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// runtimeCounters reads cumulative heap allocation, GC CPU and total CPU.
func runtimeCounters() (alloc, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// serviceConfig configures Service as netqueryd does for w: the dataset
// and admissionFlags, and cmd/netqueryd's flag defaults for the rest.
// TestServiceConfigMatchesNetqueryd checks the defaults against
// `netqueryd -h`.
func serviceConfig(w *serveWorkload) service.Config {
	b, name := service.TrafficBuilder(w.nodes, w.edges, datasetSeed)
	return service.Config{
		Dataset: b, DatasetName: name,
		TenantRPS: 1e6, TenantBurst: 1e6, TenantConcurrency: 64, // = admissionFlags
		DefaultTimeout: 2 * time.Second, MaxTimeout: 10 * time.Second,
		BreakerThreshold: 5, BreakerCooldown: time.Second,
		SLOAvailability: 0.999, SLOLatencyTarget: 0.99, SLOLatencyThreshold: 250 * time.Millisecond,
		FlightCapacity: 256, FlightSampleEvery: 64, FlightSlowFactor: 4,
	}
}

func newService(w *serveWorkload) (*service.Service, error) {
	return service.New(serviceConfig(w))
}

// statusOf maps a Service.Do error onto netqueryd's HTTP status.
func statusOf(err error) int {
	var shed *service.ShedError
	var vet *service.VetError
	var qe *service.QueryError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &shed):
		return http.StatusTooManyRequests
	case errors.As(err, &vet):
		return http.StatusBadRequest
	case errors.As(err, &qe) && errors.Is(qe, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &qe):
		return http.StatusUnprocessableEntity
	}
	return http.StatusServiceUnavailable
}

func untracedPass(o *options) (*untracedOut, error) {
	out := &untracedOut{}
	a0, g0, c0 := runtimeCounters()
	if w, ok := serveWorkloads[o.workload]; ok {
		svc, err := newService(w)
		if err != nil {
			return nil, err
		}
		st := w.stream(o.seed, w.traceCount)
		for i := range st.Requests {
			req := st.ServiceRequest(i)
			start := time.Now()
			resp, err := svc.Do(context.Background(), req)
			out.OpNS = append(out.OpNS, int64(time.Since(start)))
			out.Status = append(out.Status, statusOf(err))
			res := ""
			if err == nil {
				res = resp.Result
			}
			out.Result = append(out.Result, res)
		}
		out.VetHits, out.VetMisses, _ = svc.VetCacheStats()
	} else {
		for _, rec := range matrixRecordsInOrder() {
			start := time.Now()
			r := rec.ev.EvaluateModel(rec.model, rec.q, rec.backend, rec.trial, 0)
			out.OpNS = append(out.OpNS, int64(time.Since(start)))
			out.Pass = append(out.Pass, r.Pass)
		}
	}
	a1, g1, c1 := runtimeCounters()
	out.AllocBytes, out.GCCPU, out.TotalCPU = a1-a0, g1-g0, c1-c0
	out.ProgHits, out.ProgMisses, _ = sandbox.CacheStats()
	return out, nil
}

// matrixRecord is one code-generation record of the Table 2 matrix.
type matrixRecord struct {
	ev      *nemoeval.Evaluator
	model   llm.Model
	q       queries.Query
	backend string
	trial   int
}

// matrixRecordsInOrder lists the code-generation records of Table 2 (both
// applications, every model, backend, query and trial) in the serial
// runner's order. The strawman baseline, which runs no generated code, is
// left out.
func matrixRecordsInOrder() []matrixRecord {
	var out []matrixRecord
	for _, app := range []string{queries.AppTraffic, queries.AppMALT} {
		ev := nemoeval.NewEvaluator(nemoeval.DatasetFor(app))
		suite := queries.Traffic()
		if app == queries.AppMALT {
			suite = queries.MALT()
		}
		for _, name := range llm.ModelNames {
			sim, err := llm.NewSim(name)
			if err != nil {
				panic(err)
			}
			for _, backend := range prompt.Backends {
				for _, q := range suite {
					for t := 1; t <= trials(name); t++ {
						out = append(out, matrixRecord{ev: ev, model: sim, q: q, backend: backend, trial: t})
					}
				}
			}
		}
	}
	return out
}

// runPolicy is the sandbox policy every traced run uses.
func runPolicy(ctx context.Context) sandbox.Policy {
	policy := sandbox.DefaultPolicy
	policy.Context = ctx
	return policy
}

// profileOut is what the profile worker measures for one operation: the
// profiled run's time, its host time in builtins, federate operator-tree
// time and the exact instruction count.
type profileOut struct {
	RunNS      int64 `json:"run_ns"`
	BuiltinNS  int64 `json:"builtin_ns"`
	FederateNS int64 `json:"federate_ns"`
	Steps      int64 `json:"steps"`
}

// profileRun executes prog on globals under a VM and an operator profile.
func profileRun(prog *nql.Program, globals map[string]nql.Value) *profileOut {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) // netqueryd's -default-timeout
	defer cancel()
	vmProf := nql.NewVMProfile()
	prof := obs.NewProfile()
	policy := runPolicy(obs.WithProfile(ctx, prof))
	policy.Profile = vmProf
	start := time.Now()
	sandbox.RunProgram(prog, globals, policy)
	out := &profileOut{RunNS: int64(time.Since(start))}
	rep := vmProf.Report()
	for _, b := range rep.Builtins {
		out.BuiltinNS += b.NS
	}
	for _, c := range rep.Opcodes {
		out.Steps += c.Count
	}
	for _, op := range prof.Flatten() {
		if op.Depth == 0 {
			out.FederateNS += op.WallNS
		}
	}
	return out
}

// profilePass runs every operation's program once more, in its own
// process, on a fresh instance and under the profilers. The traced worker
// runs without them, so profiler overhead and the reruns' garbage stay out
// of every span. An operation whose program never runs gets null.
func profilePass(o *options) []*profileOut {
	var out []*profileOut
	if w, ok := serveWorkloads[o.workload]; ok {
		st := w.stream(o.seed, w.traceCount)
		build := w.builder()
		vetCache := map[Program]bool{}
		for _, r := range st.Requests {
			p := st.Programs[r.Prog]
			var pr *profileOut
			if p.QueryID != "" || !vetCached(vetCache, p) {
				if prog, err := sandbox.Compile(p.Source()); err == nil {
					pr = profileRun(prog, build().Bindings(p.Backend))
				}
			}
			out = append(out, pr)
		}
		return out
	}
	promptInst := map[*nemoeval.Evaluator]*nemoeval.Instance{}
	for _, rec := range matrixRecordsInOrder() {
		inst := promptInstance(promptInst, rec.ev)
		var pr *profileOut
		resp, err := rec.model.Generate(llm.Request{Prompt: prompt.BuildCodePrompt(inst.Wrapper, rec.backend, rec.q.Text), Attempt: rec.trial})
		if err == nil {
			if prog, err := sandbox.Compile(resp.Text); err == nil {
				pr = profileRun(prog, rec.ev.Build().Bindings(rec.backend))
			}
		}
		out = append(out, pr)
	}
	return out
}

// vetCached reports whether netqueryd's vet rejects raw program p,
// caching the verdict per backend and source as the service does.
func vetCached(cache map[Program]bool, p Program) bool {
	rejected, hit := cache[p]
	if !hit {
		rejected = vetRejects(p.Backend, p.Src)
		cache[p] = rejected
	}
	return rejected
}

// promptInstance returns the instance whose wrapper prompts for ev's
// records, building it once.
func promptInstance(cache map[*nemoeval.Evaluator]*nemoeval.Instance, ev *nemoeval.Evaluator) *nemoeval.Instance {
	inst, ok := cache[ev]
	if !ok {
		inst = ev.Build()
		cache[ev] = inst
	}
	return inst
}

func tracedPass(o *options) (*Tracer, error) {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return nil, err
	}
	t := NewTracer()
	if w, ok := serveWorkloads[o.workload]; ok {
		tracedServe(t, w, o.seed)
	} else {
		tracedMatrix(t)
	}
	return t, nil
}

// tracedServe follows Service.Do's order: vet (raw programs, cached per
// backend and source) → admission → dataset acquire → compile → run →
// encode.
func tracedServe(t *Tracer, w *serveWorkload, seed int64) {
	st := w.stream(seed, w.traceCount)
	build := w.builder()
	vetCache := map[Program]bool{}
	buckets := map[string]*limiter.Bucket{}
	gauges := map[string]*limiter.Gauge{}
	for i, r := range st.Requests {
		p := st.Programs[r.Prog]
		root := t.Start(i, 0, "request")
		t.Label(root, "backend", p.Backend)
		status := serveShadow(t, i, root, p, r.Tenant, build, vetCache, buckets, gauges)
		t.Attr(root, "status", int64(status))
		t.End(root)
	}
}

func serveShadow(t *Tracer, req, root int, p Program, tenant string, build nemoeval.InstanceBuilder,
	vetCache map[Program]bool, buckets map[string]*limiter.Bucket, gauges map[string]*limiter.Gauge) int {
	if p.QueryID == "" {
		id := t.Start(req, root, "analysis.vet")
		rejected := vetCached(vetCache, p)
		t.End(id)
		if rejected {
			return http.StatusBadRequest
		}
	}

	id := t.Start(req, root, "service.admission")
	b, ok := buckets[tenant]
	if !ok {
		b = limiter.NewBucket(1e6, 1e6, time.Now())
		buckets[tenant] = b
		gauges[tenant] = limiter.NewGauge(64)
	}
	admitted, _ := b.TryTake(1, time.Now())
	admitted = admitted && gauges[tenant].Acquire()
	t.End(id)
	if !admitted {
		return http.StatusTooManyRequests
	}
	defer gauges[tenant].Release()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second) // netqueryd's -default-timeout
	defer cancel()
	id = t.Start(req, root, "nemoeval.acquire")
	globals := build().Bindings(p.Backend)
	t.End(id)

	id = t.Start(req, root, "sandbox.compile")
	prog, err := sandbox.Compile(p.Source())
	t.End(id)
	if err != nil {
		return http.StatusUnprocessableEntity
	}

	id = t.Start(req, root, "sandbox.run")
	res := sandbox.RunProgram(prog, globals, runPolicy(ctx))
	t.End(id)
	if !res.OK() {
		if errors.Is(res.Err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return http.StatusUnprocessableEntity
	}

	id = t.Start(req, root, "service.encode")
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(struct {
		Result   string `json:"result"`
		Stdout   string `json:"stdout,omitempty"`
		Backend  string `json:"backend"`
		Dataset  string `json:"dataset"`
		Duration int64  `json:"duration_ms"`
	}{nql.Repr(res.Value), res.Stdout, p.Backend, "traffic", res.Duration.Milliseconds()})
	t.End(id)
	return http.StatusOK
}

// tracedMatrix follows Evaluator.EvaluateModel's order: prompt → generate
// → golden (cached per backend and source) → acquire → compile → run →
// compare.
func tracedMatrix(t *Tracer) {
	goldenSeen := map[string]bool{}
	promptInst := map[*nemoeval.Evaluator]*nemoeval.Instance{}
	for i, rec := range matrixRecordsInOrder() {
		root := t.Start(i, 0, "request")
		t.Label(root, "backend", rec.backend)
		pass := matrixShadow(t, i, root, rec, goldenSeen, promptInst)
		t.Attr(root, "pass", b2i(pass))
		t.End(root)
	}
}

func matrixShadow(t *Tracer, req, root int, rec matrixRecord, goldenSeen map[string]bool,
	promptInst map[*nemoeval.Evaluator]*nemoeval.Instance) bool {
	inst := promptInstance(promptInst, rec.ev)
	id := t.Start(req, root, "prompt.build")
	p := prompt.BuildCodePrompt(inst.Wrapper, rec.backend, rec.q.Text)
	t.End(id)

	id = t.Start(req, root, "llm.generate")
	resp, err := rec.model.Generate(llm.Request{Prompt: p, Attempt: rec.trial})
	t.End(id)
	if err != nil {
		return false
	}

	key := rec.backend + "\x00" + rec.q.Golden[rec.backend]
	id = t.Start(req, root, "nemoeval.golden")
	goldVal, goldInst, gerr := rec.ev.RunGolden(rec.q, rec.backend)
	t.End(id)
	t.Attr(id, "hit", b2i(goldenSeen[key]))
	goldenSeen[key] = true
	if gerr != nil {
		return false
	}

	id = t.Start(req, root, "nemoeval.acquire")
	genInst := rec.ev.Build()
	globals := genInst.Bindings(rec.backend)
	t.End(id)

	id = t.Start(req, root, "sandbox.compile")
	prog, err := sandbox.Compile(resp.Text)
	t.End(id)
	if err != nil {
		return false
	}

	id = t.Start(req, root, "sandbox.run")
	res := sandbox.RunProgram(prog, globals, runPolicy(context.Background()))
	t.End(id)
	if !res.OK() {
		return false
	}

	id = t.Start(req, root, "nemoeval.compare")
	pass := nemoeval.ResultEqual(goldVal, res.Value) && nemoeval.StateEqual(rec.backend, goldInst, genInst)
	t.End(id)
	return pass
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// spawnWorker runs this binary as a worker in a fresh process.
func spawnWorker(o *options, kind string) ([]byte, error) {
	cmd := exec.Command(o.self, "-worker", kind, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-trace-out", o.traceOut)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s worker: %v: %s", kind, err, stderr.String())
	}
	return out, nil
}
