// Command perfbench is the repository's benchmark. It drives the real
// binaries (cmd/nemoeval, cmd/netqueryd) through three workloads, checks
// every output, and prints each metric with its unit and sample count; the
// last line of stdout is a one-line JSON summary. With -trace 1 it instead
// runs the same work through the layers' public functions inside its own
// spans and reports per-layer figures. See README.md.
//
// Usage:
//
//	perfbench -workload matrix|serve-small|serve-large -seed N -seconds S -trace 0|1
//	          [-bin .bench_build/bin]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// endToEnd and perLayer name the metrics BENCHMARK.json lists, in order.
var endToEnd = []string{"setup_s", "cpu_ms_per_op", "peak_rss_mb", "ok_ratio"}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	bin       string
	nemoeval  string
	netqueryd string
	conns     int
	traceOut  string
	worker    string
	self      string // this binary, which runs the workers
}

func main() {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "matrix, serve-small or serve-large")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead")
	flag.StringVar(&o.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding nemoeval and netqueryd")
	flag.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "traces"), "directory for span files")
	flag.StringVar(&o.worker, "worker", "", "internal: run one in-process pass (untraced, traced, profile or setup) and print it")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.nemoeval = filepath.Join(o.bin, "nemoeval")
	o.netqueryd = filepath.Join(o.bin, "netqueryd")
	o.conns = runtime.NumCPU()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.self = self

	if o.worker != "" {
		if err := runWorker(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	res := newResult()
	res.Provenance["workload"] = o.workload
	res.Provenance["seed"] = o.seed
	res.Provenance["seconds"] = o.seconds
	res.Provenance["trace"] = o.trace
	res.Provenance["commit"] = commit()
	res.Provenance["nproc"] = runtime.NumCPU()
	res.Provenance["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.Provenance["go"] = runtime.Version()
	res.Provenance["generator_conns"] = o.conns

	w, serve := serveWorkloads[o.workload]
	if !serve && o.workload != "matrix" {
		return fmt.Errorf("unknown workload %q (have matrix, serve-small, serve-large)", o.workload)
	}
	for _, bin := range []string{o.nemoeval, o.netqueryd} {
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("missing program binary: %v", err)
		}
	}
	var err error
	names := endToEnd
	switch {
	case o.trace:
		names = perLayer
		err = runTraced(o, w, res)
	case serve:
		err = runServe(w, o, res)
	default:
		err = runMatrix(o, res)
	}
	if err != nil {
		return err
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	return res.Print(os.Stdout, names)
}

// commit names the source revision when the checkout is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
