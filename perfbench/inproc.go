package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/cluster"
	"strata/internal/core"
	"strata/internal/stream"
)

// inprocSpec is one in-process workload: the Algorithm 1 pipeline built
// with bench.BuildPipeline over a rendered build the benchmark's feed
// replays.
type inprocSpec struct {
	imagePx     int // OT image edge in pixels
	cellPaperPx int // cell edge in paper pixels (2000-px images)
	l           int // correlateEvents window
	rendered    int // distinct layers rendered and replayed cyclically
	warmup      int // layers in the untimed warm-up pass
	inFlight    int // layers in the pipeline at most; 1 is a closed loop
	parallelism int // stage parallelism
	// checkEvery samples the cluster check: the clusters of every
	// checkEvery-th timed layer are compared with the reference (the event
	// count and the verdict count of every timed layer always are).
	checkEvery int
}

// sampled reports whether the cluster check covers layer.
func (s inprocSpec) sampled(layer int) bool { return layer%s.checkEvery == 0 }

// cellEdgePx converts the paper-pixel cell edge to this image resolution,
// keeping the physical cell size.
func (s inprocSpec) cellEdgePx() int {
	px := s.cellPaperPx * s.imagePx / amsim.DefaultImagePx
	if px < 1 {
		px = 1
	}
	return px
}

// verdict is one delivered correlateEvents result of a timed layer, kept
// small: a run holds tens of thousands, and a benchmark heap that grows
// during the timed phase would change how often the program's GC runs.
// Clusters are kept only for the layers the cluster check samples.
type verdict struct {
	layer    int32
	events   int32
	specimen string
	clusters []cluster.Summary
}

// inprocRun is the set-up and timed phase of an in-process workload.
type inprocRun struct {
	spec   inprocSpec
	layers []amsim.LayerData
	mmpp   float64
	fw     *core.Framework
	feed   *feed
	gate   *gate
	dir    string

	mu       sync.Mutex
	verdicts []verdict // timed layers only

	// Captured when the timed phase opens.
	start      mark
	stages0    []stream.StatsSnapshot
	host0      hostCPU
	mem0       runtime.MemStats
	blocked0   int64
	setupTime  time.Duration
	setupStart time.Time
	rss        *rssSampler
}

// setUpInproc renders the build, deploys the pipeline and runs it in the
// background. The returned channel yields Framework.Run's error.
func setUpInproc(ctx context.Context, spec inprocSpec, seed int64, seconds time.Duration, traceEvery int, workDir string) (*inprocRun, <-chan error, error) {
	r := &inprocRun{spec: spec, setupStart: time.Now()}
	layout := amsim.ScaledLayout(spec.imagePx)
	var err error
	if r.layers, err = renderMix(layout, seed, spec.rendered); err != nil {
		return nil, nil, err
	}
	// Hand the renderer's garbage back to the OS, so the resident set of
	// the timed phase is the pipeline's plus the rendered inputs.
	runtime.GC()
	debug.FreeOSMemory()
	r.mmpp = layout.MMPerPixel()
	if r.dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
		return nil, nil, err
	}
	opts := []core.Option{core.WithStoreDir(r.dir)}
	if traceEvery > 0 {
		opts = append(opts, core.WithTraceSampling(traceEvery))
	}
	if r.fw, err = core.New(opts...); err != nil {
		return r, nil, err
	}
	if err := bench.CalibrateFromLayers(r.fw, r.layers, calibrationLayers); err != nil {
		return r, nil, err
	}
	specimens := len(r.layers[0].Params.SpecimenRegions)
	r.gate = newGate(spec.warmup, specimens, spec.inFlight, seconds)
	r.gate.onTimedStart = r.openTimedPhase
	r.feed = &feed{layers: r.layers, gate: r.gate}
	params := bench.PipelineParams{CellEdgePx: spec.cellEdgePx(), L: spec.l, Parallelism: spec.parallelism}
	err = bench.BuildPipeline(r.fw, r.feed, layout.LayerMM, params, r.onResult)
	if err != nil {
		return r, nil, err
	}
	errc := make(chan error, 1)
	go func() { errc <- r.fw.Run(ctx) }()
	return r, errc, nil
}

// openTimedPhase runs on the collector goroutine that admits the first
// timed layer: the warm-up pass has completed, so set-up ends here.
func (r *inprocRun) openTimedPhase(now time.Time) {
	r.start = mark{at: now, cpu: selfCPU().total()}
	r.setupTime = now.Sub(r.setupStart)
	r.stages0 = r.fw.Query().Metrics().Snapshot()
	r.host0 = readHostCPU()
	runtime.ReadMemStats(&r.mem0)
	r.blocked0 = r.feed.blocked.Load()
	r.rss = startRSSSampler(os.Getpid())
}

func (r *inprocRun) onResult(res bench.Result) error {
	r.gate.verdict(res.Layer)
	if res.Layer > r.spec.warmup {
		v := verdict{layer: int32(res.Layer), events: int32(res.Events), specimen: res.Specimen}
		if r.spec.sampled(res.Layer) {
			v.clusters = res.Clusters
		}
		r.mu.Lock()
		r.verdicts = append(r.verdicts, v)
		r.mu.Unlock()
	}
	return nil
}

func (r *inprocRun) close() {
	if r.rss != nil {
		r.rss.stop()
	}
	if r.fw != nil {
		_ = r.fw.Close() // the store is scratch, removed below
	}
	_ = os.RemoveAll(r.dir)
}

// buildsPerSeed is how many simulated builds one seed's layers come from.
const buildsPerSeed = 8

// renderMix renders n layers, one from each of n heights spread evenly over
// the build, taken in turn from buildsPerSeed simulated builds whose defect
// sites derive from seed. One build's defect sites make a few dozen
// consecutive layers' event load vary by a factor of two or more from seed
// to seed; drawing from many heights and builds averages that out, so every
// seed gives a comparable load. All layers carry one job ID: the pipeline
// correlates them as one build.
func renderMix(layout amsim.Layout, seed int64, n int) ([]amsim.LayerData, error) {
	builds := make([]*amsim.Job, buildsPerSeed)
	for j := range builds {
		var err error
		if builds[j], err = amsim.NewJob("perf", layout, seed*buildsPerSeed+int64(j)); err != nil {
			return nil, err
		}
	}
	stride := layout.NumLayers() / n
	out := make([]amsim.LayerData, 0, n)
	for i := 0; i < n; i++ {
		job, l := builds[i%buildsPerSeed], i*stride+1
		im, err := job.RenderLayer(l)
		if err != nil {
			return nil, err
		}
		out = append(out, amsim.LayerData{JobID: job.ID, Layer: l, Image: im, Params: job.ParamsForLayer(l)})
	}
	return out, nil
}

// calibrationLayers is how many leading rendered layers set the
// classification reference (bench.CalibrateFromLayers), in the pipeline and
// in the serial reference alike.
const calibrationLayers = 3

// drainAllowance is how long past the timed phase's length an in-process
// run may take, set-up and the drain of the last layers included, before
// it stops the pipeline and counts the layers still short of verdicts as
// failed.
const drainAllowance = 90 * time.Second

// runInproc runs an in-process workload: set-up, the timed phase, then the
// output check against the serial reference.
func runInproc(ctx context.Context, spec inprocSpec, o runOpts) (*report, error) {
	rep := newReport()
	ctx, cancel := context.WithTimeout(ctx, o.seconds+drainAllowance)
	defer cancel()
	r, errc, err := setUpInproc(ctx, spec, o.seed, o.seconds, o.traceEvery, o.workDir)
	if r != nil {
		defer r.close()
	}
	if err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		rep.notef("the pipeline had not delivered every verdict %v after the run began: stopped it", o.seconds+drainAllowance)
	}
	if r.rss == nil {
		return nil, fmt.Errorf("the warm-up pass did not complete")
	}
	peakRSS := r.rss.stop()
	host1 := readHostCPU()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	stages1 := r.fw.Query().Metrics().Snapshot()

	// Each timed layer must have one verdict per specimen; a layer short
	// of verdicts is a failed operation.
	g := r.gate
	first, last := g.timedLayers()
	attempted := last - first + 1
	if attempted < 1 {
		return nil, fmt.Errorf("no timed layer in %v", o.seconds)
	}
	var lat []float64
	var done []mark
	for l := first; l <= last; l++ {
		c, ok := g.completed[l]
		if !ok {
			continue
		}
		done = append(done, c)
		lat = append(lat, c.at.Sub(r.feed.avail[l-1]).Seconds()*1000)
	}
	failed := attempted - len(done)
	rep.attempted, rep.failed = attempted, failed
	if len(done) == 0 {
		rep.notef("no timed layer completed")
		return rep, nil
	}
	sort.Slice(done, func(i, j int) bool { return done[i].at.Before(done[j].at) })
	images := float64(len(done))
	rate, cpuMs, rates := groupMedians(r.start, done)
	elapsed := done[len(done)-1].at.Sub(r.start.at).Seconds()
	rep.notef("timed phase: %d layers in %.3f s (%d verdicts per layer), %d failed; set-up %.3f s",
		attempted, elapsed, g.perLayer, failed, r.setupTime.Seconds())
	rep.notef("images/s in each tenth of the timed layers: %v; CPU stolen by the hypervisor: %.1f%%",
		fmtFloats(rates), stealPct(r.host0, host1))
	rep.addLayer("host.steal_pct", "%", stealPct(r.host0, host1))

	rep.add("images_per_s", "1/s", rate)
	addLatency(rep, lat)
	rep.add("cpu_ms_per_image", "ms", cpuMs)
	rep.add("alloc_mb_per_image", "MB", float64(mem1.TotalAlloc-r.mem0.TotalAlloc)/1e6/images)
	rep.add("peak_rss_mb", "MB", peakRSS)
	rep.add("setup_s", "s", r.setupTime.Seconds())

	// Per-layer view: stage counters over the timed phase.
	rep.addLayer("stage.source.blocked_ms_per_image", "ms", float64(r.feed.blocked.Load()-r.blocked0)/1e6/images)
	for _, st := range tableStages {
		d := stageDelta(r.stages0, stages1, st.op)
		rep.addLayer("stage."+st.name+".busy_ms_per_image", "ms", d.busy*1000/images)
		// A sink emits nothing downstream; its output is what it delivered.
		out := d.out
		if out == 0 {
			out = d.in
		}
		rep.addLayer("stage."+st.name+".tuples_out_per_image", "count", float64(out)/images)
		rep.addLayer("stage."+st.name+".avg_chunk", "count", d.avgChunk())
	}
	rep.addLayer("runtime.gc_cycles_per_image", "count", float64(mem1.NumGC-r.mem0.NumGC)/images)
	rep.addLayer("runtime.gc_pause_ms_per_image", "ms", float64(mem1.PauseTotalNs-r.mem0.PauseTotalNs)/1e6/images)
	rep.addLayer("proc.owner.cpu_ms_per_image", "ms", (done[len(done)-1].cpu-r.start.cpu).Seconds()*1000/images)
	rep.addLayer("trace.images_per_s", "1/s", rate)

	// Output check against the serial reference.
	ref, err := newReference(r.layers, spec, r.mmpp)
	if err != nil {
		return nil, err
	}
	rep.addLayer("otimage.split_ms_per_image", "ms", ref.splitMsPerImage())
	chk := ref.check(r.verdicts, runtime.NumCPU())
	rep.addLayer("cluster.dbscan_ms_per_result", "ms", chk.dbscanMsPerResult())
	rep.addLayer("cluster.window_points_per_result", "count", chk.pointsPerResult())
	rep.notef("output check: %d results against the serial reference, clusters of %d of them, %d mismatched, %d ambiguous border points",
		chk.results, chk.clustered, len(chk.errs), chk.ambiguous)
	for i, e := range chk.errs {
		if i == 5 {
			rep.notef("  ... %d more", len(chk.errs)-i)
			break
		}
		rep.notef("  mismatch: %s", e)
	}
	rep.correct = len(chk.errs) == 0
	return rep, nil
}

type stageCounts struct {
	busy      float64 // seconds of service time
	in, out   int64
	chunkSum  float64
	chunkSent uint64
}

func (c stageCounts) avgChunk() float64 {
	if c.chunkSent == 0 {
		return 0
	}
	return c.chunkSum / float64(c.chunkSent)
}

// stageOp reports whether operator name belongs to stage op: the operator
// itself or one of its parallel replicas ("op.<i>"), not the shuffle and
// merge plumbing around them.
func stageOp(name, op string) bool {
	if name == op {
		return true
	}
	rest, ok := strings.CutPrefix(name, op+".")
	if !ok {
		return false
	}
	_, err := strconv.Atoi(rest)
	return err == nil
}

func stageTotals(snap []stream.StatsSnapshot, op string) stageCounts {
	var c stageCounts
	for _, s := range snap {
		if !stageOp(s.Name, op) {
			continue
		}
		c.busy += s.Service.Sum
		c.in += s.In
		c.out += s.Out
		c.chunkSum += s.Batches.Sum
		c.chunkSent += s.Batches.Count
	}
	return c
}

func stageDelta(before, after []stream.StatsSnapshot, op string) stageCounts {
	a, b := stageTotals(after, op), stageTotals(before, op)
	return stageCounts{
		busy:      a.busy - b.busy,
		in:        a.in - b.in,
		out:       a.out - b.out,
		chunkSum:  a.chunkSum - b.chunkSum,
		chunkSent: a.chunkSent - b.chunkSent,
	}
}

// addLatency reports the per-layer verdict latency: the median, and p90
// only where the sample supports it (percentileSupported).
func addLatency(rep *report, latMs []float64) {
	s := sortedCopy(latMs)
	rep.add("layer_latency_p50_ms", "ms", quantile(s, 0.5))
	if percentileSupported(len(s), 90) {
		rep.addLayer("layer_latency_p90_ms", "ms", quantile(s, 0.9))
	} else {
		rep.notef("layer_latency_p90_ms: %d layers do not support a p90", len(s))
	}
	var tenths []float64
	for g := 0; g < phaseGroups && len(latMs) >= phaseGroups; g++ {
		part := latMs[g*len(latMs)/phaseGroups : (g+1)*len(latMs)/phaseGroups]
		tenths = append(tenths, median(part))
	}
	rep.notef("layer latency p50 in each tenth of the timed layers: %v", fmtFloats(tenths))
	rep.notef("layer latency over %d layers: p10 %.3f ms, p25 %.3f ms, p50 %.3f ms, p90 %.3f ms, max %.3f ms",
		len(s), quantile(s, 0.1), quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.9), quantile(s, 1))
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
