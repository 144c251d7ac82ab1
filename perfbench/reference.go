package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"strata/internal/amsim"
	"strata/internal/cluster"
	"strata/internal/otimage"
)

// The serial reference recomputes every checked verdict apart from the
// pipeline: split each specimen of each rendered layer with otimage,
// classify each cell against the same calibration, and cluster each
// L-layer window with cluster.DBSCAN. The constants mirror the use-case's
// labelCell() and DBSCAN settings (bench.PipelineParams defaults).
const (
	refVeryColdRatio = 0.70
	refVeryWarmRatio = 1.30
	refMinPts        = 3
	refMinCells      = 3
	refEpsCells      = 1.6 // eps in cell edges
)

type refEvent struct{ x, y, area float64 }

type reference struct {
	spec    inprocSpec
	layerMM float64
	eps     float64
	// events[r][id] are the very-cold/very-warm cells of specimen id in
	// rendered layer r.
	events   [][][]refEvent
	names    map[string]int // "specNN" -> specimen id
	split    time.Duration
	splitImg int
}

func specimenName(id int) string { return fmt.Sprintf("spec%02d", id) }

func newReference(layers []amsim.LayerData, spec inprocSpec, mmpp float64) (*reference, error) {
	var sum float64
	var n int
	for i := 0; i < calibrationLayers && i < len(layers); i++ {
		if m, ok := layers[i].Image.MeanNonZero(); ok {
			sum += m
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("reference: no printed pixels to calibrate from")
	}
	refVal := sum / float64(n)
	edge := spec.cellEdgePx()
	ref := &reference{
		spec:    spec,
		layerMM: amsim.ScaledLayout(spec.imagePx).LayerMM,
		eps:     refEpsCells * float64(edge) * mmpp,
		names:   make(map[string]int),
	}
	var cells []otimage.Cell
	for _, ld := range layers {
		ids := make([]int, 0, len(ld.Params.SpecimenRegions))
		for id := range ld.Params.SpecimenRegions {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		perSpec := make([][]refEvent, len(ids))
		for _, id := range ids {
			ref.names[specimenName(id)] = id
			v, err := ld.Image.ViewOf(ld.Params.SpecimenRegions[id])
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			cells, err = v.AppendSplitCells(cells[:0], edge)
			ref.split += time.Since(t0)
			if err != nil {
				return nil, err
			}
			for _, c := range cells {
				ratio := c.Mean / refVal
				if ratio >= refVeryColdRatio && ratio <= refVeryWarmRatio {
					continue
				}
				cx, cy := c.CenterMM(mmpp)
				perSpec[id] = append(perSpec[id], refEvent{
					x: cx, y: cy,
					area: float64(c.Region.W()) * float64(c.Region.H()) * mmpp * mmpp,
				})
			}
		}
		ref.events = append(ref.events, perSpec)
		ref.splitImg++
	}
	return ref, nil
}

func (ref *reference) splitMsPerImage() float64 {
	return ref.split.Seconds() * 1000 / float64(ref.splitImg)
}

// window returns the cluster points of specimen id over the window
// (layer-L, layer], built exactly as the pipeline builds them.
func (ref *reference) window(id, layer int, dst []cluster.Point) []cluster.Point {
	lo := layer - ref.spec.l + 1
	if lo < 1 {
		lo = 1
	}
	for j := lo; j <= layer; j++ {
		for _, e := range ref.events[(j-1)%len(ref.events)][id] {
			dst = append(dst, cluster.Point{X: e.x, Y: e.y, Z: float64(j) * ref.layerMM, Weight: e.area})
		}
	}
	return dst
}

type checkResult struct {
	results   int // verdicts whose event count was checked
	clustered int // verdicts whose clusters were checked
	points    int
	dbscan    time.Duration
	ambiguous int
	errs      []string
}

func (c checkResult) dbscanMsPerResult() float64 {
	if c.clustered == 0 {
		return 0
	}
	return c.dbscan.Seconds() * 1000 / float64(c.clustered)
}

func (c checkResult) pointsPerResult() float64 {
	if c.results == 0 {
		return 0
	}
	return float64(c.points) / float64(c.results)
}

// check compares the delivered verdicts with the reference: at most one
// verdict per specimen per layer (a layer missing some is a failed
// operation, counted by the caller), each window's event count exactly,
// and, on the sampled layers, the cluster set up to DBSCAN's
// order-dependent assignment of border points. The cluster checks run on
// workers goroutines.
func (ref *reference) check(verdicts []verdict, workers int) checkResult {
	var res checkResult
	seen := make(map[[2]int]bool, len(verdicts))
	var todo []verdict
	for _, v := range verdicts {
		id, ok := ref.names[v.specimen]
		if !ok {
			res.errs = append(res.errs, fmt.Sprintf("layer %d: unknown specimen %q", v.layer, v.specimen))
			continue
		}
		key := [2]int{int(v.layer), id}
		if seen[key] {
			res.errs = append(res.errs, fmt.Sprintf("layer %d %s: duplicate verdict", v.layer, v.specimen))
			continue
		}
		seen[key] = true
		n := ref.windowLen(id, int(v.layer))
		res.results++
		res.points += n
		if int(v.events) != n {
			res.errs = append(res.errs, fmt.Sprintf("layer %d %s: %d events, reference %d",
				v.layer, v.specimen, v.events, n))
			continue
		}
		if ref.spec.sampled(int(v.layer)) {
			todo = append(todo, v)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan verdict)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var pts []cluster.Point
			for v := range next {
				id := ref.names[v.specimen]
				pts = ref.window(id, int(v.layer), pts[:0])
				t0 := time.Now()
				labels, err := cluster.DBSCAN(pts, ref.eps, refMinPts)
				took := time.Since(t0)
				var msg string
				amb := 0
				if err != nil {
					msg = "reference DBSCAN: " + err.Error()
				} else {
					amb, msg = compareClusters(pts, labels, ref.eps, v.clusters)
				}
				mu.Lock()
				res.clustered++
				res.dbscan += took
				res.ambiguous += amb
				if msg != "" {
					res.errs = append(res.errs, fmt.Sprintf("layer %d %s: %s", v.layer, v.specimen, msg))
				}
				mu.Unlock()
			}
		}()
	}
	for _, v := range todo {
		next <- v
	}
	close(next)
	wg.Wait()
	return res
}

// windowLen is the number of events in specimen id's window ending at
// layer.
func (ref *reference) windowLen(id, layer int) int {
	n := 0
	for j := max(1, layer-ref.spec.l+1); j <= layer; j++ {
		n += len(ref.events[(j-1)%len(ref.events)][id])
	}
	return n
}

// refCluster is one reference cluster: its core points, which no point
// order can change, and the border points only it can claim (excl) or it
// shares with other clusters (shared).
type refCluster struct {
	cores, excl, shared []int
}

// compareClusters checks the pipeline's reported clusters against the
// reference labels of pts. It returns the number of border points whose
// cluster depends on point order, and an empty string when they agree.
//
// Core points and their partition into clusters do not depend on the
// order DBSCAN visits points in; a border point (a non-core point within
// eps of a core point) joins whichever adjacent cluster reaches it first.
// With no shared border point every cluster is fully determined and the
// summaries must agree (sums to within float reassociation). Otherwise a
// reported cluster must contain some reference cluster's cores, stay
// within its cores plus candidate borders, and have a size in between.
func compareClusters(pts []cluster.Point, labels []int, eps float64, got []cluster.Summary) (int, string) {
	nb := neighbourLists(pts, eps)
	core := make([]bool, len(pts))
	for i := range pts {
		core[i] = len(nb[i]) >= refMinPts
	}
	byLabel := map[int]*refCluster{}
	var order []int
	get := func(l int) *refCluster {
		c, ok := byLabel[l]
		if !ok {
			c = &refCluster{}
			byLabel[l] = c
			order = append(order, l)
		}
		return c
	}
	ambiguous := 0
	for i := range pts {
		if core[i] {
			get(labels[i]).cores = append(get(labels[i]).cores, i)
			continue
		}
		adj := map[int]bool{}
		for _, j := range nb[i] {
			if core[j] {
				adj[labels[j]] = true
			}
		}
		switch len(adj) {
		case 0: // noise
		case 1:
			for l := range adj {
				get(l).excl = append(get(l).excl, i)
			}
		default:
			ambiguous++
			for l := range adj {
				get(l).shared = append(get(l).shared, i)
			}
		}
	}
	sort.Ints(order)

	if ambiguous == 0 {
		var want []cluster.Summary
		for _, l := range order {
			c := byLabel[l]
			if len(c.cores)+len(c.excl) < refMinCells {
				continue
			}
			want = append(want, summarize(pts, c.cores, c.excl))
		}
		return 0, compareSummaries(want, got)
	}

	// Ambiguous borders: bound each reported cluster instead.
	used := make([]bool, len(order))
	minKept, maxKept := 0, 0
	for _, l := range order {
		c := byLabel[l]
		lo, hi := len(c.cores)+len(c.excl), len(c.cores)+len(c.excl)+len(c.shared)
		if lo >= refMinCells {
			minKept++
		}
		if hi >= refMinCells {
			maxKept++
		}
	}
	if len(got) < minKept || len(got) > maxKept {
		return ambiguous, fmt.Sprintf("%d clusters, reference %d..%d", len(got), minKept, maxKept)
	}
	for _, g := range got {
		found := false
		for k, l := range order {
			if used[k] {
				continue
			}
			c := byLabel[l]
			lo, hi := len(c.cores)+len(c.excl), len(c.cores)+len(c.excl)+len(c.shared)
			if g.Size < lo || g.Size > hi {
				continue
			}
			inner := summarize(pts, c.cores, c.excl)
			outer := summarize(pts, append(append([]int(nil), c.cores...), c.excl...), c.shared)
			if boxWithin(inner, g) && boxWithin(g, outer) {
				used[k], found = true, true
				break
			}
		}
		if !found {
			return ambiguous, fmt.Sprintf("cluster of %d points at (%.3f, %.3f, %.3f) matches no reference cluster",
				g.Size, g.Centroid.X, g.Centroid.Y, g.Centroid.Z)
		}
	}
	return ambiguous, ""
}

// summarize builds the cluster.Summary of the union of two index sets.
func summarize(pts []cluster.Point, a, b []int) cluster.Summary {
	members := make([]cluster.Point, 0, len(a)+len(b))
	for _, i := range a {
		members = append(members, pts[i])
	}
	for _, i := range b {
		members = append(members, pts[i])
	}
	labels := make([]int, len(members))
	s := cluster.Summarize(members, labels)
	if len(s) == 0 {
		return cluster.Summary{}
	}
	return s[0]
}

const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// boxWithin reports whether a's bounding box lies inside b's.
func boxWithin(a, b cluster.Summary) bool {
	le := func(x, y float64) bool { return x <= y || near(x, y) }
	return le(b.MinX, a.MinX) && le(b.MinY, a.MinY) && le(b.MinZ, a.MinZ) &&
		le(a.MaxX, b.MaxX) && le(a.MaxY, b.MaxY) && le(a.MaxZ, b.MaxZ)
}

// compareSummaries matches two cluster sets regardless of cluster IDs.
func compareSummaries(want, got []cluster.Summary) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d clusters, reference %d", len(got), len(want))
	}
	canon := func(s []cluster.Summary) []cluster.Summary {
		c := append([]cluster.Summary(nil), s...)
		sort.Slice(c, func(i, j int) bool {
			a, b := c[i], c[j]
			if a.MinZ != b.MinZ {
				return a.MinZ < b.MinZ
			}
			if a.MinY != b.MinY {
				return a.MinY < b.MinY
			}
			if a.MinX != b.MinX {
				return a.MinX < b.MinX
			}
			return a.Size < b.Size
		})
		return c
	}
	w, g := canon(want), canon(got)
	for i := range w {
		a, b := w[i], g[i]
		ok := a.Size == b.Size && near(a.Weight, b.Weight) &&
			near(a.Centroid.X, b.Centroid.X) && near(a.Centroid.Y, b.Centroid.Y) && near(a.Centroid.Z, b.Centroid.Z) &&
			a.MinX == b.MinX && a.MinY == b.MinY && a.MinZ == b.MinZ &&
			a.MaxX == b.MaxX && a.MaxY == b.MaxY && a.MaxZ == b.MaxZ
		if !ok {
			return fmt.Sprintf("cluster %d: got size %d weight %.6f box (%.3f,%.3f,%.3f)-(%.3f,%.3f,%.3f), reference size %d weight %.6f box (%.3f,%.3f,%.3f)-(%.3f,%.3f,%.3f)",
				i, b.Size, b.Weight, b.MinX, b.MinY, b.MinZ, b.MaxX, b.MaxY, b.MaxZ,
				a.Size, a.Weight, a.MinX, a.MinY, a.MinZ, a.MaxX, a.MaxY, a.MaxZ)
		}
	}
	return ""
}

// neighbourLists returns, for every point, the indices within eps of it
// (itself included), using the same squared-distance test as the cluster
// package so boundary pairs are judged identically.
func neighbourLists(pts []cluster.Point, eps float64) [][]int {
	type key struct{ x, y, z int32 }
	keyOf := func(p cluster.Point) key {
		return key{int32(math.Floor(p.X / eps)), int32(math.Floor(p.Y / eps)), int32(math.Floor(p.Z / eps))}
	}
	cells := make(map[key][]int, len(pts))
	for i, p := range pts {
		k := keyOf(p)
		cells[k] = append(cells[k], i)
	}
	eps2 := eps * eps
	out := make([][]int, len(pts))
	for i, p := range pts {
		k := keyOf(p)
		for dz := int32(-1); dz <= 1; dz++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for dx := int32(-1); dx <= 1; dx++ {
					for _, j := range cells[key{k.x + dx, k.y + dy, k.z + dz}] {
						q := pts[j]
						ddx, ddy, ddz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
						if ddx*ddx+ddy*ddy+ddz*ddz <= eps2 {
							out[i] = append(out[i], j)
						}
					}
				}
			}
		}
	}
	return out
}
