package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"strata/internal/amsim"
	"strata/internal/bench"
	"strata/internal/core"
)

// feed is the benchmark's load generator: a bench.Feed whose two
// collectors replay a rendered build cyclically (stream layer i carries
// rendered layer (i-1) mod len(layers), with ever-increasing layer numbers)
// under the pacing a gate decides. It is the only goroutine pair that
// generates load in an in-process run.
type feed struct {
	layers []amsim.LayerData
	gate   *gate

	// avail[i] is when stream layer i+1's OT image was handed to the
	// pipeline, written by the OT collector and read after Framework.Run
	// returns. blocked accumulates the nanoseconds the OT collector spent
	// inside emit (back-pressure).
	avail   []time.Time
	blocked atomic.Int64
}

var _ bench.Feed = (*feed)(nil)

func (f *feed) MMPerPixel() float64               { return f.layers[0].Image.MMPerPixel }
func (f *feed) OTCollector() core.CollectFunc     { return f.collector(true) }
func (f *feed) ParamsCollector() core.CollectFunc { return f.collector(false) }

// rendered returns the rendered layer replayed as stream layer layer.
func (f *feed) rendered(layer int) amsim.LayerData {
	return f.layers[(layer-1)%len(f.layers)]
}

func (f *feed) collector(ot bool) core.CollectFunc {
	return func(ctx context.Context, emit func(core.EventTuple) error) error {
		for layer := 1; ; layer++ {
			if !f.gate.admit(ctx, layer) {
				return ctx.Err()
			}
			ld := f.rendered(layer)
			// Event time is a synthetic per-layer stamp shared by both
			// sources, as the same-τ fuse requires.
			t := core.EventTuple{
				TS:    time.UnixMicro(int64(layer) * 1_000_000),
				Job:   ld.JobID,
				Layer: layer,
			}
			now := time.Now()
			t.AvailableAt = now
			if !ot {
				t.KV = map[string]any{
					"power":       ld.Params.LaserPowerW,
					"speed":       ld.Params.ScanSpeedMMS,
					"hatch":       ld.Params.HatchMM,
					"orientation": ld.Params.OrientationDeg,
					"regions":     amsim.EncodeRegions(ld.Params.SpecimenRegions),
				}
				if err := emit(t); err != nil {
					return err
				}
				continue
			}
			t.KV = map[string]any{"ot": ld.Image}
			f.avail = append(f.avail, now)
			err := emit(t)
			f.blocked.Add(int64(time.Since(now)))
			if err != nil {
				return err
			}
		}
	}
}

// gate paces both collectors identically. Layers 1..warmup are the warm-up
// pass; the first timed layer waits until every warm-up layer has all its
// verdicts, which starts the timed phase. Layer l waits for the verdicts
// of layer l-inFlight: inFlight 1 is the paper's closed loop, a larger
// value keeps that many images in the pipeline. The first collector to ask
// about a layer past the deadline stops the feed there, and the other
// collector stops at the same layer, so the fuse never sees half a layer.
type gate struct {
	warmup   int
	inFlight int // layers in the pipeline at most
	perLayer int // verdicts that complete a layer (one per specimen)
	seconds  time.Duration
	// onTimedStart runs once, on the collector goroutine that opens the
	// timed phase, before the first timed layer is emitted.
	onTimedStart func(now time.Time)

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every state change
	admitted  int           // highest layer admitted
	stopAt    int           // first layer refused (0: undecided)
	verdicts  map[int]int   // verdicts delivered per layer
	completed map[int]mark  // when each layer's last verdict arrived
	warmDone  int           // warm-up layers completed
	deadline  time.Time
}

func newGate(warmup, perLayer, inFlight int, seconds time.Duration) *gate {
	return &gate{
		warmup:    warmup,
		inFlight:  inFlight,
		perLayer:  perLayer,
		seconds:   seconds,
		changed:   make(chan struct{}),
		verdicts:  make(map[int]int),
		completed: make(map[int]mark),
	}
}

// admit blocks until layer may be emitted and reports whether it may at
// all (false once the feed has stopped or ctx is done; ctx ending stops
// the feed at the first layer not yet admitted).
func (g *gate) admit(ctx context.Context, layer int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.stopAt > 0 && layer >= g.stopAt {
			return false
		}
		if layer <= g.admitted {
			return true
		}
		ready := true
		if layer == g.warmup+1 {
			ready = g.warmDone >= g.warmup
		} else if prev := layer - g.inFlight; prev >= 1 {
			_, ready = g.completed[prev]
		}
		if ready {
			now := time.Now()
			if layer == g.warmup+1 {
				g.deadline = now.Add(g.seconds)
				if g.onTimedStart != nil {
					g.onTimedStart(now)
				}
			} else if layer > g.warmup && !now.Before(g.deadline) {
				g.stop(layer)
				return false
			}
			g.admitted = layer
			return true
		}
		ch := g.changed
		g.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			g.mu.Lock()
			if g.stopAt == 0 {
				g.stop(g.admitted + 1)
			}
			return false
		}
		g.mu.Lock()
	}
}

func (g *gate) stop(layer int) {
	g.stopAt = layer
	g.notify()
}

func (g *gate) notify() {
	close(g.changed)
	g.changed = make(chan struct{})
}

// verdict records one delivered result of layer. The verdict that
// completes a layer stamps it with the time and this process's CPU time.
func (g *gate) verdict(layer int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.verdicts[layer]++
	if g.verdicts[layer] == g.perLayer {
		g.completed[layer] = mark{at: time.Now(), cpu: selfCPU().total()}
		if layer <= g.warmup {
			g.warmDone++
		}
		g.notify()
	}
}

// timedLayers returns the timed phase's layers: warmup+1 up to the layer
// before the one the feed stopped at.
func (g *gate) timedLayers() (first, last int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	last = g.stopAt - 1
	if g.stopAt == 0 {
		last = g.admitted
	}
	return g.warmup + 1, last
}
