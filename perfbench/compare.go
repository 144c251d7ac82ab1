package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runChild runs this binary once for a workload and parses its last line.
func runChild(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("parse result %q: %w", last, err)
	}
	return r, nil
}

// compareSets independent sets of compareRuns runs each: the second set's
// medians must not be worse than the first's by more than each bound.
const (
	compareSets = 2
	compareRuns = 10
)

// compare runs two independent sets of ten runs of every workload, each
// run with its own seed, plus one traced run per workload and set, and
// prints per workload and end-to-end metric each set's median and
// quartiles, the spread (interquartile range over median) against the
// metric's bound, and how far the second set's median moved from the
// first set's in the metric's worse direction. It returns an error when a
// spread or a shift exceeds its bound, a run is incorrect, or an
// operation failed.
func compare(w io.Writer, bf *benchmarkFile, binDir string, seedBase int64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	secs := strconv.Itoa(bf.RunSeconds)
	run := func(wl string, seed int64, trace string) (result, error) {
		return runChild(self, []string{"--workload", wl, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", secs, "--trace", trace, "-bin", binDir})
	}
	var untraced [compareSets]map[string][]result
	traced := map[string][]float64{} // workload -> trace.images_per_s per set
	for s := range untraced {
		untraced[s] = map[string][]result{}
		for i := 0; i < compareRuns; i++ {
			// Workloads interleave so that a slow spell of the host
			// falls on all of them, not on one workload's whole set.
			for _, wl := range bf.Workloads {
				seed := seedBase + int64(s*compareRuns+i)
				r, err := run(wl.Name, seed, "0")
				if err != nil {
					return err
				}
				untraced[s][wl.Name] = append(untraced[s][wl.Name], r)
				fmt.Fprintf(w, "# set %d run %d %s seed %d: correct=%v attempted=%d failed=%d\n",
					s+1, i+1, wl.Name, seed, r.Correct, r.Attempted, r.Failed)
			}
		}
		for _, wl := range bf.Workloads {
			r, err := run(wl.Name, seedBase+int64(compareSets*compareRuns+s), "1")
			if err != nil {
				return err
			}
			traced[wl.Name] = append(traced[wl.Name], r.Metrics["trace.images_per_s"].Value)
		}
	}

	failures := 0
	fmt.Fprintf(w, "%-20s %-22s %-5s %12s %12s %12s %8s %6s %9s\n",
		"workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "shift")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			var medians [compareSets]float64
			for s := range untraced {
				var vals []float64
				for _, r := range untraced[s][wl.Name] {
					vals = append(vals, r.Metrics[m.Name].Value)
				}
				medians[s] = median(vals)
				q1, q3 := quartiles(vals)
				sp := spread(vals)
				verdict := ""
				if sp > m.Bound {
					verdict = " SPREAD>BOUND"
					failures++
				} else if sp > m.Bound/3 {
					verdict = " spread>bound/3"
				}
				shift := ""
				if s > 0 {
					worse := (medians[s] - medians[0]) / medians[0]
					if m.Better == "higher" {
						worse = -worse
					}
					shift = fmt.Sprintf("%+.3f", worse)
					if worse > m.Bound {
						verdict += " SHIFT>BOUND"
						failures++
					}
				}
				fmt.Fprintf(w, "%-20s %-22s %-5d %12.6g %12.6g %12.6g %8.4f %6.3f %9s%s\n",
					wl.Name, m.Name, s+1, medians[s], q1, q3, sp, m.Bound, shift, verdict)
			}
		}
		// No operation may fail, and every run must be correct.
		var shares []string
		var untracedRate []float64
		for s := range untraced {
			var att, fail int
			correct := true
			for _, r := range untraced[s][wl.Name] {
				att += r.Attempted
				fail += r.Failed
				correct = correct && r.Correct
				untracedRate = append(untracedRate, r.Metrics["images_per_s"].Value)
			}
			if !correct || fail > 0 {
				failures++
			}
			shares = append(shares, fmt.Sprintf("set %d: %d/%d failed, correct=%v", s+1, fail, att, correct))
		}
		fmt.Fprintf(w, "%-20s operations: %s\n", wl.Name, strings.Join(shares, "; "))
		tr, un := median(traced[wl.Name]), median(untracedRate)
		fmt.Fprintf(w, "%-20s tracing overhead: traced images/s %.4g (median of %d) against untraced %.4g: %+.1f%%\n",
			wl.Name, tr, len(traced[wl.Name]), un, 100*(1-tr/un))
	}
	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	return nil
}
