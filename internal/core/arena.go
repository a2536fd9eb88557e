package core

import (
	"sync"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// Arena is the scratch memory of one solve: every buffer the serial
// pre-phase needs — the per-point classes, flat unit-normal block and
// plane headers of plane construction (the headers also for a set a plane
// group serves), the reduction's dominance counter, negated-normal and
// ordering buffers, the block E-PT packs its surviving normals into, the
// sweep's crossing-parameter and event buffers — and the slabs E-PT builds
// its partition tree in (cells, nodes and lazy plane lists) live here.
// Every solve takes one from arenaPool for its whole duration and returns
// it when the solve returns, so a warmed-up arena runs the plane phase and
// E-PT's tree refinement without allocating.
//
// The contract: nothing a solve returns may alias its arena. E-PT's tree
// records point at plane headers in the arena, whose normals it packs into
// the arena too (PackNormals); at collect time geom.Compact copies the
// answer's cells out of the slabs with one header and normal per plane
// they keep. Sweeping copies its merged intervals out. Callers that
// keep what they build — a plane group's build, and every solver whose
// answer keeps the plane normals (Prepared.Planes: A-PC, brute force,
// LP-CTA) — pass a fresh zero Arena instead, whose buffers they then own.
// An arena is not synchronized and is only touched by the serial portion
// of a solve. Buffers keep their capacity between solves; putArena resets
// the slab, or drops it when the solve built more than maxPooledSlabBytes
// into it.
type Arena struct {
	// Plane construction (classifyPlanes, then narrow). A set served from
	// a plane group takes only its headers from here: its normals are the
	// group's.
	kinds   []planeKind       // per-point plane classes
	normals []float64         // flat unit-normal backing, stride d
	planes  []geom.Hyperplane // crossing-plane headers, every served set's

	// E-PT plane reduction and ordering (reduceAndOrderPlanesOpt), and the
	// inserted planes' packed normals (PackNormals).
	units   []vec.Vec
	dom     skyband.Counter
	keep    []int
	kept    []geom.Hyperplane
	w       []int
	order   []int
	ordered []geom.Hyperplane
	packed  []float64

	// E-PT partition tree (eptSolve): the solve's checker, the tree's slab
	// and the qualified leaves before compaction.
	check  CtxChecker
	ept    eptSlab
	leaves []*geom.Cell

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

// maxPooledSlabBytes bounds the E-PT slab an arena takes back to the
// pool: a solve that built more than it into its tree leaves its slab to
// the collector instead of pinning it in a pooled arena. The decision reads
// the bytes the solve itself built (eptSlab.keep), so one solve gets the
// same decision on a fresh arena as on one an earlier solve grew. A kept
// slab still pins its capacity — each pile keeps the chunks the most
// demanding kept solve grew it to, and a pile grows by doubling — so it
// can hold up to about twice the bound. Served traffic stays well inside
// it — the largest slabs measured were 0.7 MB on 3-d queries and 2.0 MB on
// d = 4, n = 5000 queries — while the largest 5-d trees build 8–32 MB and
// are dropped rather than held by every pooled arena.
const maxPooledSlabBytes = 4 << 20

func getArena() *Arena { return arenaPool.Get().(*Arena) }

func putArena(a *Arena) {
	if a.ept.keep() {
		a.ept.reset()
	} else {
		a.ept = eptSlab{}
	}
	arenaPool.Put(a)
}
