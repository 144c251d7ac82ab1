package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
	"strata/internal/pubsub"
)

// remoteSpec is the late-deployment workload across processes: the
// benchmark owns a pubsub.LogStore of OT-image records, serves it through
// a spawned strata-broker, and deploys a spawned strata-worker that first
// catches up over the remote log and then follows records appended on an
// open-loop schedule.
type remoteSpec struct {
	imagePx  int           // OT image edge; a record is one image plus its laser power
	rendered int           // distinct rendered layers the records cycle through
	catchUp  int           // K: records in the log before the worker deploys
	live     int           // records appended after catch-up
	interval time.Duration // live schedule: one record per interval
	window   int           // the worker's -window
}

const (
	remoteSubject  = "strata.raw.perf.j"
	resultsSubject = "strata.perf.results.j"
	remoteJob      = "j"
)

type arrival struct {
	layer int
	sum   float64
	at    time.Time
}

// remoteRun is the set-up and the timed phases of the remote workload.
type remoteRun struct {
	spec   remoteSpec
	seed   int64
	dir    string
	images []amsim.LayerData

	store   *pubsub.LogStore
	broker  *proc
	worker  *proc
	rc      *pubsub.ReconnectConn
	srv     *pubsub.LogServer
	results *pubsub.ReconnectSub

	brokerMetrics, workerMetrics string

	mu       sync.Mutex
	arrivals []arrival
	changed  chan struct{}
	readErr  error
	readDone chan struct{}

	encode, decode, appendT time.Duration
	recordBytes             int
	setupStart              time.Time
	// deadline bounds every wait of the run, so that a lost result or a
	// stalled process ends the run instead of hanging it.
	deadline time.Time
}

// record encodes log record i (0-based): layer i+1's image and power.
func (r *remoteRun) record(i int) ([]byte, error) {
	l := i + 1
	ld := r.images[i%len(r.images)]
	t0 := time.Now()
	data, err := core.EncodeTuple(core.EventTuple{
		TS:    time.UnixMicro(int64(l) * 1_000_000),
		Job:   remoteJob,
		Layer: l,
		KV:    map[string]any{"ot": ld.Image, "power": layerPower(r.seed, l)},
	})
	r.encode += time.Since(t0)
	return data, err
}

func (r *remoteRun) appendRecord(data []byte) error {
	t0 := time.Now()
	_, err := r.store.Append(remoteSubject, data)
	r.appendT += time.Since(t0)
	return err
}

func setUpRemote(spec remoteSpec, o runOpts) (*remoteRun, error) {
	r := &remoteRun{spec: spec, seed: o.seed, setupStart: time.Now(), changed: make(chan struct{}), readDone: make(chan struct{})}
	r.deadline = r.setupStart.Add(o.seconds + drainAllowance)
	r.dir = filepath.Join(o.workDir, "remote")
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	layout := amsim.ScaledLayout(spec.imagePx)
	job, err := amsim.NewJob("perf", layout, o.seed)
	if err != nil {
		return nil, err
	}
	if r.images, err = bench.Replay(job, spec.rendered); err != nil {
		return nil, err
	}
	if r.store, err = pubsub.OpenLogStore(filepath.Join(r.dir, "log")); err != nil {
		return nil, err
	}
	for i := 0; i < spec.catchUp; i++ {
		data, err := r.record(i)
		if err != nil {
			return r, err
		}
		t0 := time.Now()
		if _, err := core.DecodeTuple(data); err != nil {
			return r, fmt.Errorf("decode record %d: %w", i, err)
		}
		r.decode += time.Since(t0)
		r.recordBytes = len(data)
		if err := r.appendRecord(data); err != nil {
			return r, err
		}
	}

	brokerAddr, err := freeAddr()
	if err != nil {
		return r, err
	}
	if r.brokerMetrics, err = freeAddr(); err != nil {
		return r, err
	}
	r.broker, err = startProc("broker", filepath.Join(o.binDir, "strata-broker"), r.dir,
		"-addr", brokerAddr, "-metrics-addr", r.brokerMetrics)
	if err != nil {
		return r, err
	}
	if err := waitHTTP("http://"+r.brokerMetrics+"/readyz", 30*time.Second); err != nil {
		return r, err
	}
	if r.rc, err = pubsub.DialReconnect(brokerAddr); err != nil {
		return r, err
	}
	if r.srv, err = pubsub.ServeLog(r.rc, r.store, remoteSubject); err != nil {
		return r, err
	}
	// The buffer holds every result of a run: the reader below never
	// stalls the broker, whatever the main goroutine is doing.
	if r.results, err = r.rc.Subscribe(resultsSubject, pubsub.WithSubBuffer(spec.catchUp+spec.live+16)); err != nil {
		return r, err
	}
	if err := r.rc.Ping(10 * time.Second); err != nil {
		return r, err
	}
	go r.readResults()

	traceEvery := strconv.Itoa(o.traceEvery)
	r.worker, err = startProc("worker", filepath.Join(o.binDir, "strata-worker"), r.dir,
		"-broker", brokerAddr,
		"-store", filepath.Join(r.dir, "worker-store"),
		"-subject", remoteSubject,
		"-total", strconv.Itoa(spec.catchUp+spec.live+1),
		"-window", strconv.Itoa(spec.window),
		"-metrics-addr", "127.0.0.1:0",
		"-results-subject", resultsSubject,
		"-trace-every", traceEvery,
		"-log-level", "warn")
	if err != nil {
		return r, err
	}
	if r.workerMetrics, err = r.worker.expect("METRICS", time.Until(r.deadline)); err != nil {
		return r, err
	}
	if _, err := r.worker.expect("READY", time.Until(r.deadline)); err != nil {
		return r, err
	}
	return r, nil
}

// readResults records every result tuple's arrival until the subscription
// closes.
func (r *remoteRun) readResults() {
	defer close(r.readDone)
	for msg := range r.results.C {
		at := time.Now()
		t, err := core.DecodeTuple(msg.Data)
		r.mu.Lock()
		if err != nil {
			r.readErr = err
		} else {
			sum, _ := t.KV["sum"].(float64)
			r.arrivals = append(r.arrivals, arrival{layer: t.Layer, sum: sum, at: at})
		}
		close(r.changed)
		r.changed = make(chan struct{})
		r.mu.Unlock()
	}
}

// waitLayer blocks until a result of layer has arrived and returns its
// arrival time, or fails at the run's deadline.
func (r *remoteRun) waitLayer(layer int) (time.Time, error) {
	deadline := time.After(time.Until(r.deadline))
	seen := 0
	for {
		r.mu.Lock()
		for ; seen < len(r.arrivals); seen++ {
			if r.arrivals[seen].layer == layer {
				at := r.arrivals[seen].at
				r.mu.Unlock()
				return at, nil
			}
		}
		ch := r.changed
		r.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return time.Time{}, fmt.Errorf("no result for layer %d by the run's deadline", layer)
		}
	}
}

func (r *remoteRun) close() {
	if r.worker != nil {
		r.worker.stop(5 * time.Second)
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.rc != nil {
		_ = r.rc.Close()
		if r.results != nil {
			<-r.readDone
		}
	}
	if r.broker != nil {
		r.broker.stop(5 * time.Second)
	}
	if r.store != nil {
		_ = r.store.Close()
	}
	_ = os.RemoveAll(r.dir)
}

// snapshot is the state of every process of the workload at one instant.
type snapshot struct {
	host                  hostCPU
	owner, broker, worker cpuTimes
	ownerAlloc            uint64
	wm, bm                promSample
}

func (r *remoteRun) snap() (snapshot, error) {
	var s snapshot
	var err error
	s.host = readHostCPU()
	s.owner = selfCPU()
	if s.broker, err = procCPU(r.broker.pid()); err != nil {
		return s, err
	}
	if s.worker, err = procCPU(r.worker.pid()); err != nil {
		return s, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.ownerAlloc = ms.TotalAlloc
	if s.wm, err = scrape(r.workerMetrics); err != nil {
		return s, err
	}
	s.bm, err = scrape(r.brokerMetrics)
	return s, err
}

func runRemote(spec remoteSpec, o runOpts) (*report, error) {
	rep := newReport()
	r, err := setUpRemote(spec, o)
	if r != nil {
		defer r.close()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Set-up ends when the first result arrives: the worker is deployed,
	// linked and warm.
	t1, err := r.waitLayer(1)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := t1.Sub(r.setupStart).Seconds()
	s0, err := r.snap()
	if err != nil {
		return nil, err
	}
	read0, err := selfReadBytes()
	if err != nil {
		return nil, err
	}
	k := spec.catchUp
	tK, err := r.waitLayer(k)
	if err != nil {
		return nil, fmt.Errorf("catch-up: %w", err)
	}
	read1, err := selfReadBytes()
	if err != nil {
		return nil, err
	}

	// Live phase: record k+i is due at its point of the schedule, whatever
	// the worker is doing; each is encoded ahead of its due time. One
	// untimed record follows, so the worker's pipeline is still deployed
	// (and its metrics still exported) when the timed phase's last
	// snapshot is taken.
	timed := k + spec.live
	total := timed + 1
	due := liveSchedule(time.Now().Add(spec.interval), spec.interval, spec.live, o.seed)
	var late []float64
	next, err := r.record(k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.live; i++ {
		time.Sleep(time.Until(due[i]))
		if err := r.appendRecord(next); err != nil {
			return nil, err
		}
		late = append(late, time.Since(due[i]).Seconds()*1000)
		if i+1 < spec.live {
			if next, err = r.record(k + i + 1); err != nil {
				return nil, err
			}
		}
	}
	if _, err := r.waitLayer(timed); err != nil {
		return nil, fmt.Errorf("live phase: %w", err)
	}
	s1, err := r.snap()
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB(r.worker.pid())
	tail, err := r.record(timed)
	if err == nil {
		err = r.appendRecord(tail)
	}
	if err != nil {
		return nil, err
	}
	digest, err := r.worker.expect("DONE", time.Until(r.deadline))
	if err != nil {
		return nil, err
	}
	// DONE can overtake the last result on its way through the broker.
	if _, err := r.waitLayer(total); err != nil {
		rep.notef("tail record: %v", err)
	}

	// Output check: exactly one result per layer, each equal to the closed
	// form, and the worker's effect dump hashing to the closed form's.
	powers := make([]float64, total)
	for l := 1; l <= total; l++ {
		powers[l-1] = layerPower(o.seed, l)
	}
	want := windowSums(powers, spec.window)
	r.mu.Lock()
	arr := append([]arrival(nil), r.arrivals...)
	readErr := r.readErr
	r.mu.Unlock()
	count := make([]int, total+1)
	arrived := make([]time.Time, total+1)
	var errs []string
	for _, a := range arr {
		if a.layer < 1 || a.layer > total {
			errs = append(errs, fmt.Sprintf("result for layer %d outside 1..%d", a.layer, total))
			continue
		}
		count[a.layer]++
		arrived[a.layer] = a.at
		if a.sum != want[a.layer-1] {
			errs = append(errs, fmt.Sprintf("layer %d: sum %v, closed form %v", a.layer, a.sum, want[a.layer-1]))
		}
	}
	failed := 0
	for l := 1; l <= total; l++ {
		switch {
		case count[l] == 0:
			failed++
		case count[l] > 1:
			errs = append(errs, fmt.Sprintf("layer %d: %d results", l, count[l]))
		}
	}
	if readErr != nil {
		errs = append(errs, "results subject: "+readErr.Error())
	}
	if wantDigest := expectedDigest(want); digest != wantDigest {
		errs = append(errs, fmt.Sprintf("DONE %s, closed form %s", digest, wantDigest))
	}

	// Timed: records 2..K (catch-up, from the first result to the K-th)
	// and the live records.
	images := float64(k - 1 + spec.live)
	catchSec := tK.Sub(t1).Seconds()
	var caught []mark
	for l := 2; l <= k; l++ {
		if count[l] > 0 {
			caught = append(caught, mark{at: arrived[l]})
		}
	}
	sort.Slice(caught, func(i, j int) bool { return caught[i].at.Before(caught[j].at) })
	catchRate, _, catchRates := groupMedians(mark{at: t1}, caught)
	var lat []float64
	for i := 0; i < spec.live; i++ {
		if l := k + 1 + i; count[l] > 0 {
			lat = append(lat, arrived[l].Sub(due[i]).Seconds()*1000)
		}
	}
	rep.attempted, rep.failed = total, failed
	rep.correct = len(errs) == 0
	rep.notef("catch-up: %d records of %d bytes replayed in %.3f s, images/s in each tenth: %v; live: %d records at %v mean intervals; set-up %.3f s",
		k, r.recordBytes, catchSec, fmtFloats(catchRates), spec.live, spec.interval, setup)
	rep.notef("CPU stolen by the hypervisor during the timed phases: %.1f%%", stealPct(s0.host, s1.host))
	rep.addLayer("host.steal_pct", "%", stealPct(s0.host, s1.host))
	lateSorted := sortedCopy(late)
	rep.notef("open-loop generator lateness: p50 %.3f ms, max %.3f ms",
		quantile(lateSorted, 0.5), quantile(lateSorted, 1))
	rep.notef("output check: %d results for %d records against the closed form, DONE %s, %d mismatches",
		len(arr), total, digest, len(errs))
	for i, e := range errs {
		if i == 5 {
			rep.notef("  ... %d more", len(errs)-i)
			break
		}
		rep.notef("  mismatch: %s", e)
	}

	rep.add("images_per_s", "1/s", catchRate)
	addLatency(rep, lat)
	cpuOwner := s1.owner.sub(s0.owner).total()
	cpuBroker := s1.broker.sub(s0.broker).total()
	cpuWorker := s1.worker.sub(s0.worker).total()
	perImage := func(d time.Duration) float64 { return d.Seconds() * 1000 / images }
	rep.add("cpu_ms_per_image", "ms", perImage(cpuOwner+cpuBroker+cpuWorker))
	alloc := float64(s1.ownerAlloc-s0.ownerAlloc) +
		(s1.wm["go_alloc_bytes_total"] - s0.wm["go_alloc_bytes_total"]) +
		(s1.bm["go_alloc_bytes_total"] - s0.bm["go_alloc_bytes_total"])
	rep.add("alloc_mb_per_image", "MB", alloc/1e6/images)
	rep.add("peak_rss_mb", "MB", peak)
	rep.add("setup_s", "s", setup)

	delta := func(m1, m0 promSample, name string) float64 { return m1[name] - m0[name] }
	fill := float64(k)
	rep.addLayer("core.codec.encode_ms_per_image", "ms", r.encode.Seconds()*1000/float64(total))
	rep.addLayer("core.codec.decode_ms_per_image", "ms", r.decode.Seconds()*1000/fill)
	rep.addLayer("pubsub.logstore.append_ms_per_image", "ms", r.appendT.Seconds()*1000/float64(total))
	rep.addLayer("pubsub.logserver.read_amplification", "ratio", float64(read1-read0)/(float64(k-1)*float64(r.recordBytes)))
	rep.addLayer("pubsub.broker.frames_per_image", "count", delta(s1.bm, s0.bm, "strata_pubsub_server_frames_written_total")/images)
	rep.addLayer("pubsub.broker.flushes_saved_per_image", "count", delta(s1.bm, s0.bm, "strata_pubsub_server_flushes_saved_total")/images)
	rep.addLayer("kvstore.wal_commits_per_image", "count", delta(s1.wm, s0.wm, "strata_kvstore_wal_commits_total")/images)
	rep.addLayer("kvstore.wal_fsyncs_per_image", "count", delta(s1.wm, s0.wm, "strata_kvstore_wal_fsync_seconds_count")/images)
	rep.addLayer("kvstore.wal_fsync_ms_per_image", "ms", delta(s1.wm, s0.wm, "strata_kvstore_wal_fsync_seconds_sum")*1000/images)
	rep.addLayer("core.ckpt.count", "count", delta(s1.wm, s0.wm, "strata_ckpt_total"))
	rep.addLayer("core.ckpt.ms_per_image", "ms", delta(s1.wm, s0.wm, "strata_ckpt_duration_seconds_sum")*1000/images)
	rep.addLayer("proc.worker.cpu_ms_per_image", "ms", perImage(cpuWorker))
	rep.addLayer("proc.broker.cpu_ms_per_image", "ms", perImage(cpuBroker))
	rep.addLayer("proc.owner.cpu_ms_per_image", "ms", perImage(cpuOwner))
	rep.addLayer("runtime.gc_cycles_per_image", "count", delta(s1.wm, s0.wm, "go_gc_cycles_total")/images)
	rep.addLayer("runtime.gc_pause_ms_per_image", "ms", delta(s1.wm, s0.wm, "go_gc_pause_seconds_total")*1000/images)
	rep.addLayer("live.generator_late_p50_ms", "ms", quantile(lateSorted, 0.5))
	rep.addLayer("live.generator_late_max_ms", "ms", quantile(lateSorted, 1))
	rep.addLayer("trace.images_per_s", "1/s", catchRate)
	return rep, nil
}

// liveSchedule returns the due times of n live records from start: gaps
// drawn uniformly from half to one and a half interval, from seed. The
// gaps vary so that the records fall on every phase of the worker's
// periodic work (its checkpoint ticker), rather than all on one phase
// that a run picks by chance.
func liveSchedule(start time.Time, interval time.Duration, n int, seed int64) []time.Time {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Time, n)
	at := start
	for i := range due {
		due[i] = at
		at = at.Add(interval/2 + time.Duration(rng.Int63n(int64(interval))))
	}
	return due
}
