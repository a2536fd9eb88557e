package core

import (
	"context"
	"sync"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// Arena is the per-worker scratch memory of the batch engine: every buffer
// a solve's serial pre-phase needs — the flat unit-normal block of plane
// construction, the reduction's negated-normal and ordering buffers, the
// sweep's crossing-parameter and event buffers — lives here and is reused
// across solves, so a worker that has warmed up its arena performs the
// whole plane phase without allocating.
//
// An arena is not synchronized: it belongs to exactly one batch worker and
// is only touched by the serial portion of a solve (E-PT's intra-query
// insert pool never sees it; by the time workers spawn, every arena-backed
// buffer has been consumed or repacked into heap storage that the result
// may retain). Buffers grow geometrically through append and keep their
// capacity between solves.
type Arena struct {
	// Plane construction (buildPlanesArena) and plane-store narrowing
	// (planeGroup.narrow).
	normals []float64         // flat unit-normal backing, stride d
	planes  []geom.Hyperplane // crossing-plane headers

	// E-PT plane reduction and ordering (reduceAndOrderPlanesOpt).
	units   []vec.Vec
	dom     skyband.Counter
	keep    []int
	kept    []geom.Hyperplane
	w       []int
	order   []int
	ordered []geom.Hyperplane

	// Sweeping (sweepIntervals).
	incl   []float64
	excl   []float64
	selBuf []float64
	events []sweepEvent
	ivs    [][2]float64
	merged [][2]float64
}

// growF64 returns buf resized to n, reallocating only when the capacity is
// insufficient. The contents are unspecified; callers overwrite every slot.
func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

func growVecs(buf *[]vec.Vec, n int) []vec.Vec {
	if cap(*buf) < n {
		*buf = make([]vec.Vec, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

func growPlanes(buf *[]geom.Hyperplane, n int) []geom.Hyperplane {
	if cap(*buf) < n {
		*buf = make([]geom.Hyperplane, n)
	} else {
		*buf = (*buf)[:n]
	}
	return *buf
}

// arenaPool recycles worker arenas across batches, so a server alternating
// between batches keeps its warmed buffers instead of re-growing them.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) { arenaPool.Put(a) }

// arenaKey is the private context key carrying a worker's arena.
type arenaKey struct{}

// contextWithArena attaches a worker-owned arena to ctx. Solvers fetch it
// once at entry; a context without an arena (every non-batch entry point)
// simply takes the allocating path.
func contextWithArena(ctx context.Context, a *Arena) context.Context {
	return context.WithValue(ctx, arenaKey{}, a)
}

// arenaFrom extracts the worker arena from ctx, or nil.
func arenaFrom(ctx context.Context) *Arena {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(arenaKey{}).(*Arena)
	return a
}

// buildPlanesArena is BuildPlanes writing its crossing-plane normals into
// the arena's flat block instead of per-plane heap allocations. The stored
// values are bitwise-identical to BuildPlanes' (same classification, same
// normalization), so the two construction paths are interchangeable.
//
// The returned PlaneSet aliases arena memory and is valid only until the
// worker's next solve: E-PT repacks surviving normals into fresh heap
// storage (PackNormals) before any tree node can retain them, and Sweeping
// only reads the normals during its window scan.
func buildPlanesArena(pts []vec.Vec, q Query, a *Arena) PlaneSet {
	d := q.Q.Dim()
	flat := growF64(&a.normals, len(pts)*d)
	planes := a.planes[:0]
	var base int
	scale := 1 - q.Eps
	nc := 0
	for i, p := range pts {
		// The raw normal is written into the crossing slot first; when the
		// plane turns out to cross, it is normalized in place (the element-
		// wise scale never reads a slot it has already written).
		slot := vec.Vec(flat[nc*d : nc*d+d : nc*d+d])
		neg, pos := false, false
		for j := 0; j < d; j++ {
			x := q.Q[j] - scale*p[j]
			slot[j] = x
			if x > geom.Tol {
				pos = true
			} else if x < -geom.Tol {
				neg = true
			}
		}
		switch {
		case !neg:
			// Never negative over U (includes the degenerate zero normal).
		case !pos:
			base++
		default:
			planes = append(planes, geom.NewHyperplaneInto(slot, slot, i))
			nc++
		}
	}
	a.planes = planes
	return PlaneSet{Crossing: planes, Base: base}
}

// buildPlanesInto builds the plane set into the worker arena when there is
// one, else with BuildPlanes.
func buildPlanesInto(pts []vec.Vec, q Query, a *Arena) PlaneSet {
	if a == nil {
		return BuildPlanes(pts, q)
	}
	return buildPlanesArena(pts, q, a)
}
