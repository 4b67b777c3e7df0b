package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"time"

	"repro/internal/nemoeval"
	"repro/internal/queries"
	"repro/internal/traffic"
)

// matrixRecords is the number of evaluation records one `nemoeval -all`
// pass produces; the stdout pin guarantees every checked pass did the
// same work.
const matrixRecords = 2100

// minPasses is the least number of passes a matrix run makes.
const minPasses = 3

// strawmanSizes are the traffic graphs the strawman baseline builds, one
// per model context window (nemoeval's strawmanConfigFor).
var strawmanSizes = []traffic.Config{
	{Nodes: 20, Edges: 20, Seed: 42},
	{Nodes: 45, Edges: 45, Seed: 42},
}

// buildMatrixDatasets builds every dataset one pass evaluates against and
// one instance of each, which is what the pass pays before its first
// record.
func buildMatrixDatasets() {
	for _, app := range []string{queries.AppTraffic, queries.AppMALT} {
		nemoeval.DatasetFor(app)()
	}
	for _, cfg := range strawmanSizes {
		nemoeval.TrafficDataset(cfg)()
	}
}

// pass is one `nemoeval -all` process.
type pass struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMiB float64
	ok     bool
}

// runPass runs `nemoeval -all` at its default worker count, nproc.
func runPass(bin string) (pass, error) {
	cmd := exec.Command(bin, "-all")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return pass{}, fmt.Errorf("nemoeval -all: %v: %s", err, stderr.String())
	}
	wall := time.Since(start)
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return pass{wall: wall, cpu: cpu, rssMiB: maxRSSMiB(cmd), ok: MatrixOK(stdout.Bytes())}, nil
}

// runMatrix measures full `nemoeval -all` passes, each in a fresh process,
// until the run's time is spent.
func runMatrix(o *options, res *Result) error {
	// Each set-up repeat runs in a fresh process, as every pass pays it:
	// repeats in one heap would leave garbage for later builds to collect.
	setup := &setupTimes{measure: func() (time.Duration, error) {
		out, err := spawnWorker(o, "setup")
		if err != nil {
			return 0, err
		}
		var d time.Duration
		if err := json.Unmarshal(out, &d); err != nil {
			return 0, fmt.Errorf("setup worker: %v", err)
		}
		return d, nil
	}}
	// Set-up and probe batches run before the first pass and after each.
	probe := &hostProbe{o: o}
	between := func() error {
		if err := setup.take(setupBatch); err != nil {
			return err
		}
		return probe.take()
	}
	if err := between(); err != nil {
		return err
	}

	begin := time.Now()
	var walls, cpus, rss []float64
	// Start another pass only while it is expected to end within the run.
	for len(walls) < minPasses || time.Since(begin).Seconds()+median(walls)/1000 <= o.seconds {
		p, err := runPass(o.nemoeval)
		if err != nil {
			return err
		}
		if err := between(); err != nil {
			return err
		}
		res.Attempted++
		if !p.ok {
			res.fail(failMismatch, 1)
			res.Correct = false
		}
		walls = append(walls, ms(p.wall))
		cpus = append(cpus, ms(p.cpu)/matrixRecords)
		rss = append(rss, p.rssMiB)
	}
	if err := setup.report(res, probe); err != nil {
		return err
	}
	n := len(walls)
	res.set("cpu_ms_per_op", median(cpus), "ms", n)
	res.set("peak_rss_mb", median(rss), "MiB", n)
	res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	probe.report(res)
	res.extra("records_per_s", matrixRecords/(median(walls)/1000), "records/s", n)
	res.extra("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	res.Provenance["records_per_pass"] = matrixRecords
	res.Provenance["workers"] = "nemoeval's default (nproc)"
	return nil
}
