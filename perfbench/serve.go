package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/nemoeval"
	"repro/internal/service"
)

// serveWorkload fixes one netqueryd workload. Rates, ladder and limit are
// constants chosen from one calibration run; they never adapt per run.
type serveWorkload struct {
	nodes, edges int
	catalog      bool          // catalog query_id requests instead of raw programs
	limit        time.Duration // p99 latency limit for capacity
	low, high    float64       // fixed rates (req/s) for the latency metrics
	lowN, highN  int           // requests sent at the low and the high rate
	ladder       []float64     // ascending rates probed for capacity
	// stepSeconds is the length of one ladder step. The ladder only gets
	// the part of --seconds the two fixed phases leave.
	stepSeconds float64
	traceCount  int // requests in a traced run
}

// Admission flags loose enough that policy never sheds the offered ladder;
// admission still runs on every request.
var admissionFlags = []string{"-tenant-rps", "1000000", "-tenant-burst", "1000000", "-tenant-concurrency", "64"}

// fixedRounds is how many alternating rounds the low and high phases are
// split into.
const fixedRounds = 4

// datasetSeed is netqueryd's traffic generator seed: the paper-scale
// dataset the generated programs were written against. The benchmark seed
// drives the request stream only.
const datasetSeed = 42

// setupRepeats is the least number of times a run measures set-up; it
// reports the median. setupBatch repeats run before the run's work and
// after each of its phases or passes: on a shared host a set-up of tens of
// milliseconds reads differently from one second to the next, and
// spreading the repeats over the run keeps the median off one moment.
const (
	setupRepeats = 11
	setupBatch   = 3
)

// setupTimes collects a run's set-up samples.
type setupTimes struct {
	samples []float64 // seconds
	measure func() (time.Duration, error)
}

// take measures n more set-ups.
func (s *setupTimes) take(n int) error {
	for i := 0; i < n; i++ {
		d, err := s.measure()
		if err != nil {
			return err
		}
		s.samples = append(s.samples, d.Seconds())
	}
	return nil
}

// report tops the samples up to setupRepeats and sets setup_s to their
// median, scaled to the reference speed.
func (s *setupTimes) report(res *Result, p *hostProbe) error {
	if err := s.take(setupRepeats - len(s.samples)); err != nil {
		return err
	}
	raw := median(s.samples)
	res.set("setup_s", raw*p.scale(), "s", len(s.samples))
	res.extra("raw.setup_s", raw, "s", len(s.samples))
	return nil
}

var serveWorkloads = map[string]*serveWorkload{
	"serve-small": {
		nodes: 80, edges: 80,
		limit: 250 * time.Millisecond,
		low:   350, high: 1200,
		lowN: 2625, highN: 10800, // 7.5 s and 9 s
		ladder:      []float64{2450, 2700, 3000, 3300, 3650, 4000, 4400, 4850},
		stepSeconds: 1.5,
		traceCount:  2000,
	},
	"serve-large": {
		// Each phase runs whole permutations of the 96 catalog programs,
		// so it sees every program equally often. A request's latency
		// depends on which heavy requests overlap it, so the high phase
		// averages over three permutations. The fixed phases take 34 s,
		// so the ladder needs a longer --seconds.
		nodes: 1000, edges: 8000, catalog: true,
		limit: time.Second,
		low:   12, high: 16,
		lowN: 2 * 96, highN: 3 * 96, // 16 s and 18 s
		ladder:      []float64{36, 40, 44, 48, 53, 58, 64},
		stepSeconds: 5,
		traceCount:  192,
	},
}

func (w *serveWorkload) builder() nemoeval.InstanceBuilder {
	b, _ := service.TrafficBuilder(w.nodes, w.edges, datasetSeed)
	return b
}

func (w *serveWorkload) stream(seed int64, n int) *Stream {
	if w.catalog {
		return catalogStream(seed, n)
	}
	return rawStream(seed, n)
}

// phasePlan is one fixed-rate phase of a serve run.
type phasePlan struct {
	label string
	rate  float64
	n     int
}

func (p phasePlan) seconds() float64 { return float64(p.n) / p.rate }

// plan lists the low and high phases and every ladder step. Catalog
// ladder steps round to whole permutations.
func (w *serveWorkload) plan() []phasePlan {
	block := 1.0
	if w.catalog {
		block = float64(len(catalogPrograms()))
	}
	ps := []phasePlan{{"low", w.low, w.lowN}, {"high", w.high, w.highN}}
	for _, r := range w.ladder {
		n := int(block * math.Max(1, math.Round(r*w.stepSeconds/block)))
		ps = append(ps, phasePlan{fmt.Sprintf("step-%g", r), r, n})
	}
	return ps
}

// server is one running netqueryd process.
type server struct {
	cmd     *exec.Cmd
	url     string
	stderr  bytes.Buffer
	stopped bool
	rssMiB  float64
}

// startServer launches netqueryd and returns once /healthz answers,
// with the time that took.
func startServer(bin string, w *serveWorkload) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	args := append([]string{"-addr", addr, "-nodes", strconv.Itoa(w.nodes), "-edges", strconv.Itoa(w.edges),
		"-seed", strconv.Itoa(datasetSeed)}, admissionFlags...)
	s := &server{url: "http://" + addr}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = childAttr()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < time.Minute {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("netqueryd did not answer /healthz within a minute: %s", s.stderr.String())
}

// stop drains and reaps the process, once, and returns its peak resident
// memory in MiB (ru_maxrss, the high-water mark /proc reports as VmHWM).
func (s *server) stop() float64 {
	if !s.stopped {
		s.stopped = true
		// A failed signal means the process already exited; Wait reaps it
		// either way, and its exit status says nothing about the run.
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		_ = s.cmd.Wait()
		s.rssMiB = maxRSSMiB(s.cmd)
	}
	return s.rssMiB
}

// childAttr makes a child process die with the benchmark, so an
// interrupted run leaves no program running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func maxRSSMiB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// procCPU is the user + system time process pid has used, from
// /proc/<pid>/stat, in clock ticks of 10 ms.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, is in parentheses and may hold spaces;
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %v", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// cacheCounters reads the hit/miss counters of the plan, program and vet
// caches from /metricsz.
func cacheCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || !strings.HasSuffix(f[0], "_total") || !strings.Contains(f[0], "_cache_") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cache counters on /metricsz")
	}
	return out, sc.Err()
}

// requireCold rejects a server whose caches have already seen traffic.
func requireCold(url string) error {
	counters, err := cacheCounters(url)
	if err != nil {
		return err
	}
	for name, v := range counters {
		if v != 0 {
			return fmt.Errorf("run starts warm: %s = %g before the first request", name, v)
		}
	}
	return nil
}

// phaseStats summarises one phase against the workload's limit.
type phaseStats struct {
	attempted, failed int
	kinds             map[string]int
	p50, p99          float64 // ms from due time; a failure counts as +Inf
	lagP99            float64 // ms
	backlogMax        int
	meets             bool
}

func summarise(ph *Phase, arrivals []Arrival, refs []Reference, rate float64, limit time.Duration) phaseStats {
	st := phaseStats{kinds: map[string]int{}, backlogMax: ph.BacklogMax}
	var lat, lag []float64
	for i, o := range ph.Outcomes {
		kind := Classify(o, refs[arrivals[i].Ref])
		if kind != "" {
			st.kinds[kind]++
		}
		if !o.Sent {
			lat = append(lat, math.Inf(1))
			continue
		}
		st.attempted++
		if kind != "" {
			st.failed++
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(o.Latency))
		}
		lag = append(lag, ms(o.Lag))
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lagP99 = quantile(lag, 0.99)
	// The backlog grew if its median rose from the first third of the phase
	// to the last by more arrivals than fall due in an eighth of the
	// latency limit (and at least 3).
	n := len(arrivals)
	grew := ph.Abandoned > 0 || ph.BacklogGrowth() > math.Max(3, rate*limit.Seconds()/8)
	ok := float64(n-st.failed-ph.Abandoned) >= 0.999*float64(n)
	st.meets = ok && !grew && st.p99 <= ms(limit)
	return st
}

// runServe measures one serve workload end to end with tracing off.
func runServe(w *serveWorkload, o *options, res *Result) error {
	plan := w.plan()
	total := 0
	for _, p := range plan {
		total += p.n
	}
	st := w.stream(o.seed, total)
	st.References = References(w.builder(), st.Programs)

	// Set-up samples come from extra netqueryd processes started and
	// stopped between phases, and from the server the run uses.
	setup := &setupTimes{measure: func() (time.Duration, error) {
		s, d, err := startServer(o.netqueryd, w)
		if err == nil {
			s.stop()
		}
		return d, err
	}}
	// Probe batches run before the first phase and after each fixed-rate
	// round, while the server is idle.
	probe := &hostProbe{o: o}
	if err := setup.take(setupBatch); err != nil {
		return err
	}
	if err := probe.take(); err != nil {
		return err
	}
	srv, d, err := startServer(o.netqueryd, w)
	if err != nil {
		return err
	}
	defer srv.stop()
	setup.samples = append(setup.samples, d.Seconds())
	if err := requireCold(srv.url); err != nil {
		return err
	}

	gen := NewGenerator(srv.url+"/v1/query", o.conns, 2*w.limit+time.Second)
	defer gen.Close()
	// schedule lays out n requests of the stream from first on at rate.
	schedule := func(rate float64, first, n int) []Arrival {
		return Schedule(rate, n, func(i int) ([]byte, int) {
			return st.Body(first + i), st.Requests[first+i].Prog
		})
	}
	// send runs one schedule, lets its last responses clear before the
	// next one starts, and takes a batch of set-up samples.
	send := func(arrivals []Arrival) (*Phase, error) {
		ph := gen.Run(context.Background(), arrivals)
		if ph.MaxConns > o.conns {
			return nil, fmt.Errorf("generator had %d requests in flight, more than %d connections", ph.MaxConns, o.conns)
		}
		time.Sleep(100 * time.Millisecond)
		return ph, setup.take(setupBatch)
	}
	// account summarises one phase and adds it to the result.
	account := func(p phasePlan, label string, ph *Phase, arrivals []Arrival) phaseStats {
		ps := summarise(ph, arrivals, st.References, p.rate, w.limit)
		res.Attempted += ps.attempted
		for k, n := range ps.kinds {
			if k != failAbandoned {
				res.fail(k, n)
			}
		}
		res.extra("phase."+label+".p99_ms", ps.p99, "ms", len(arrivals))
		res.extra("phase."+label+".backlog_growth", ph.BacklogGrowth(), "count", len(arrivals))
		return ps
	}
	runPhase := func(p phasePlan, label string, arrivals []Arrival) (phaseStats, error) {
		ph, err := send(arrivals)
		if err != nil {
			return phaseStats{}, err
		}
		return account(p, label, ph, arrivals), nil
	}

	// The low and high phases alternate in fixedRounds rounds, so a host
	// stall of a few seconds reaches only part of either phase. Each phase
	// keeps its own segment of the stream.
	begin := time.Now()
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var parts [2][]*Phase
	var sent [2][]Arrival
	segment := [2]int{0, plan[0].n}
	for r := 0; r < fixedRounds; r++ {
		for i, p := range plan[:2] {
			from, to := p.n*r/fixedRounds, p.n*(r+1)/fixedRounds
			arrivals := schedule(p.rate, segment[i]+from, to-from)
			ph, err := send(arrivals)
			if err == nil {
				err = probe.take()
			}
			if err != nil {
				return err
			}
			parts[i] = append(parts[i], ph)
			sent[i] = append(sent[i], arrivals...)
		}
	}
	// netqueryd's CPU over the fixed phases: it idles between rounds.
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	low := account(plan[0], plan[0].label, mergePhases(parts[0]), sent[0])
	high := account(plan[1], plan[1].label, mergePhases(parts[1]), sent[1])
	offset := plan[0].n + plan[1].n // next unsent request of the stream
	// The ladder runs in the time the fixed phases leave and stops at the
	// first step that would overrun it. It is complete once a step misses
	// twice (the knee) or every step met the conditions; otherwise the
	// capacity it reports is a lower bound.
	budget := o.seconds - time.Since(begin).Seconds()
	capacity, steps, complete := 0.0, 0, true
	ladder := func() error {
		for _, p := range plan[2:] {
			if budget < p.seconds() {
				complete = false
				return nil
			}
			budget -= p.seconds()
			arrivals := schedule(p.rate, offset, p.n)
			offset += p.n
			ps, err := runPhase(p, p.label, arrivals)
			if err == nil && !ps.meets && budget >= p.seconds() {
				// A host stall can make a step below the knee miss once;
				// a step above the knee misses every time. Retry the same
				// arrivals once before calling the knee.
				budget -= p.seconds()
				ps, err = runPhase(p, p.label+".retry", arrivals)
			} else if err == nil && !ps.meets {
				complete = false
			}
			if err != nil {
				return err
			}
			steps++
			if !ps.meets {
				return nil
			}
			capacity = p.rate
		}
		return nil
	}
	if err := ladder(); err != nil {
		return err
	}
	if capacity == 0 {
		// No ladder step met the conditions, or none ran; fall back to the
		// fixed rates that met them, so the figure stays a measured rate.
		for _, c := range []struct {
			ps   phaseStats
			rate float64
		}{{low, w.low}, {high, w.high}} {
			if c.ps.meets {
				capacity = c.rate
			}
		}
	}
	if err := setup.report(res, probe); err != nil {
		return err
	}
	rss := srv.stop()
	if res.FailKinds[failMismatch] > 0 {
		res.Correct = false
	}
	ops := plan[0].n + plan[1].n
	res.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(ops), "ms", ops)
	res.extra("lat_p50_ms.low", low.p50, "ms", plan[0].n)
	res.extra("lat_p50_ms.high", high.p50, "ms", plan[1].n)
	probe.report(res)
	res.extra("lat_p99_ms.low", low.p99, "ms", plan[0].n)
	res.extra("lat_p99_ms.high", high.p99, "ms", plan[1].n)
	res.set("peak_rss_mb", rss, "MiB", 1)
	res.set("ok_ratio", 1-float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
	res.extra("capacity_rps", capacity, "req/s", steps)
	res.extra("capacity_complete", float64(b2i(complete)), "bool", steps)
	res.extra("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
	res.extra("loadgen.lag_p99_ms.low", low.lagP99, "ms", plan[0].n)
	res.extra("loadgen.lag_p99_ms.high", high.lagP99, "ms", plan[1].n)
	res.extra("loadgen.backlog_max.high", float64(high.backlogMax), "count", plan[1].n)
	res.Provenance["rates_per_s"] = map[string]any{"low": w.low, "high": w.high, "ladder": w.ladder}
	res.Provenance["latency_limit_ms"] = ms(w.limit)
	res.Provenance["admission_flags"] = strings.Join(admissionFlags, " ")
	res.Provenance["dataset"] = fmt.Sprintf("traffic nodes=%d edges=%d seed=%d", w.nodes, w.edges, datasetSeed)
	res.Provenance["programs"] = len(st.Programs)
	return nil
}
