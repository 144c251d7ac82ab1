package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome. End-to-end metrics and per-layer
// metrics are kept apart: an untraced run prints the first, a traced run
// the second.
type report struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]metricValue
	layer     map[string]metricValue
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]metricValue{}, layer: map[string]metricValue{}}
}

func (r *report) add(name, unit string, v float64) { r.e2e[name] = metricValue{v, unit} }

func (r *report) addLayer(name, unit string, v float64) { r.layer[name] = metricValue{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the notes, every metric of both views as a readable table,
// and last the JSON result carrying the view the run was asked for: every
// metric listed for that view, a listed metric the workload does not
// exercise reading 0, and in a traced run every other layer metric the
// workload measured.
func (r *report) write(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	printTable := func(title string, m map[string]metricValue) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "# %-6s %-44s %14.6g %s\n", title, k, m[k].Value, m[k].Unit)
		}
	}
	printTable("e2e", r.e2e)
	printTable("layer", r.layer)
	src, listed := r.e2e, endToEnd
	if traced {
		src, listed = r.layer, perLayer
	}
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range listed {
		v, ok := src[m.Name]
		if !ok {
			v = metricValue{0, m.Unit}
		}
		out.Metrics[m.Name] = v
	}
	if traced {
		// A workload BENCHMARK.json does not list may measure more layers.
		for k, v := range r.layer {
			out.Metrics[k] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
