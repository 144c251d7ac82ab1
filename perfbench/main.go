// Command perfbench is the repository's benchmark: it runs one workload of
// the STRATA use-case pipeline for a fixed time, checks the program's
// outputs against reference computations, and prints every metric by name
// and unit, ending with one JSON line.
//
//	perfbench --workload fig7-saturate --seed 1 --seconds 30 --trace 0
//
// With --compare it instead runs two independent sets of ten runs of every
// workload of BENCHMARK.json and reports whether they agree within the
// bounds there. Run both through run.sh, which builds everything first.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runOpts are the settings of one run.
type runOpts struct {
	seed       int64
	seconds    time.Duration
	traceEvery int // 0: untraced
	workDir    string
	binDir     string
	// parallelism overrides the in-process workloads' stage parallelism
	// (0 keeps runtime.NumCPU()); 1 gives the single-threaded baseline.
	parallelism int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
	binDir := flag.String("bin", filepath.Join(buildDir, "bin"), "directory holding strata-broker and strata-worker")
	cmpMode := flag.Bool("compare", false, "run two independent sets of ten runs of every workload and compare them; --seed is the first seed")
	parallelism := flag.Int("parallelism", 0, "stage parallelism of the in-process workloads (default: the number of CPUs)")
	flag.Parse()

	if *cmpMode {
		bf, err := readBenchmarkFile("BENCHMARK.json")
		if err != nil {
			return err
		}
		return compare(os.Stdout, bf, *binDir, *seed)
	}

	runWorkload, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	// Scratch state (key-value stores, the remote log) lives under the
	// checkout's build directory and goes when the run ends.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workDir: work, binDir: *binDir,
		parallelism: *parallelism}
	if *trace == 1 {
		o.traceEvery = traceEvery
	}
	rep, err := runWorkload(context.Background(), o)
	if err != nil {
		return err
	}
	return rep.write(os.Stdout, o.traceEvery > 0)
}

// buildDir is where run.sh builds, relative to the checkout's root.
const buildDir = ".bench_build"

// traceEvery is the sampling rate of a traced run: one trace per this many
// source tuples (core.WithTraceSampling, strata-worker -trace-every).
const traceEvery = 10

// workloads are the runs the command knows. BENCHMARK.json lists the two
// in-process ones; remote-late-deploy runs by name (README.md says why it
// is not listed).
var workloads = map[string]func(context.Context, runOpts) (*report, error){
	"fig7-saturate": func(ctx context.Context, o runOpts) (*report, error) {
		return runInproc(ctx, fig7Spec(o.parallelism), o)
	},
	"fig6-deep": func(ctx context.Context, o runOpts) (*report, error) {
		return runInproc(ctx, fig6Spec(o.parallelism), o)
	},
	"remote-late-deploy": func(_ context.Context, o runOpts) (*report, error) {
		return runRemote(remoteLateSpec(o.seconds), o)
	},
}

func fig7Spec(par int) inprocSpec {
	return inprocSpec{imagePx: 1000, cellPaperPx: 10, l: 10, rendered: 80, warmup: 80, inFlight: 64,
		parallelism: orCPUs(par), checkEvery: 23}
}

func fig6Spec(par int) inprocSpec {
	return inprocSpec{imagePx: 500, cellPaperPx: 5, l: 80, rendered: 80, warmup: 80, inFlight: 1,
		parallelism: orCPUs(par), checkEvery: 3}
}

func orCPUs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// remoteLateSpec sizes the live phase to 60% of the run length at 20
// records per second: 360 records in a 30 s run.
func remoteLateSpec(seconds time.Duration) remoteSpec {
	const interval = 50 * time.Millisecond
	return remoteSpec{imagePx: 500, rendered: 8, catchUp: 200, live: int(seconds/interval) * 3 / 5,
		interval: interval, window: 3}
}
