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
	// Plane construction (buildPlanes) and plane-store narrowing
	// (planeGroup.narrow).
	kinds   []planeKind       // per-point plane classes
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

// grow returns buf resized to n, reallocating only when the capacity is
// insufficient. The contents are unspecified; callers overwrite every slot.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
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
