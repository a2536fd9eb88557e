package core

import (
	"sync"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// Arena is the scratch memory of one solve: every buffer the serial
// pre-phase needs — the flat unit-normal block of plane construction, the
// reduction's dominance counter, negated-normal and ordering buffers, the
// sweep's crossing-parameter and event buffers — lives here. Every solve
// takes one from arenaPool for its whole duration and returns it when the
// solve returns, so a warmed-up arena runs the whole plane phase without
// allocating.
//
// The contract: nothing a solve returns may alias its arena. E-PT repacks
// the surviving normals into heap storage (PackNormals) before any tree
// node can retain them, and Sweeping copies its merged intervals out.
// Callers that keep what they build — a plane group's build, and every
// solver whose answer keeps the plane normals (Prepared.Planes: A-PC,
// brute force, LP-CTA) — pass a fresh zero Arena instead, whose buffers
// they then own. An arena is not synchronized
// and is only touched by the serial portion of a solve (E-PT's intra-query
// insert pool never sees it). Buffers keep their capacity between solves.
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

// arenaPool recycles solve arenas, so consecutive solves reuse warmed
// buffers instead of re-growing them.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) { arenaPool.Put(a) }
