package geom

import (
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// The vertex-dedup tolerance must be relative-or-absolute: an absolute
// 1e-9 comparison treats a 2e-9 coordinate gap as "distinct" regardless of
// magnitude, which splits true vertices near the simplex hull (coordinates
// ~1) where plane-intersection round-off is amplified.

func TestCoincidentNearHull(t *testing.T) {
	// Near-hull cluster: coordinates ~1 differing by 2e-9 — beyond the old
	// absolute 1e-9 cutoff, inside the relative band Tol·(1+|x|+|y|) ≈ 3e-9.
	a := vec.Of(1.0, 0)
	b := vec.Of(1.0+2e-9, 0)
	if !coincident(a, b) {
		t.Fatalf("near-hull vertices %v and %v must merge under the relative tolerance", a, b)
	}
	// Well-separated vertices must stay distinct at any scale.
	c := vec.Of(1.0, 1e-6)
	if coincident(a, c) {
		t.Fatalf("vertices %v and %v differ by 1e-6 and must not merge", a, c)
	}
}

func TestCoincidentNearOrigin(t *testing.T) {
	// Near-origin cluster: the absolute floor Tol·1 still merges round-off
	// twins when both coordinates are tiny.
	a := vec.Of(1e-12, 1.0)
	b := vec.Of(9e-10, 1.0)
	if !coincident(a, b) {
		t.Fatalf("near-origin vertices %v and %v must merge under the absolute floor", a, b)
	}
	d := vec.Of(5e-8, 1.0)
	if coincident(a, d) {
		t.Fatalf("vertices %v and %v differ by ~5e-8 and must not merge", a, d)
	}
}

func TestAppendVertexMergesTightSets(t *testing.T) {
	var f freshVerts
	f.reset(2, 0)
	add := func(pt vec.Vec, tight tightSet) {
		f.pts = append(f.pts, pt...)
		lo := len(f.ids)
		f.ids = append(f.ids, tight...)
		f.commit(lo)
	}
	add(vec.Of(0.75, 0.25+1.2e-9), newTightSet(3))
	add(vec.Of(0.75+1.2e-9, 0.25), newTightSet(7))
	if f.len() != 1 {
		t.Fatalf("coincident vertices were not merged: %d entries", f.len())
	}
	if !f.tight(0).has(3) || !f.tight(0).has(7) {
		t.Fatalf("merged vertex lost a tight membership")
	}
	add(vec.Of(0.25, 0.75), newTightSet(9))
	if f.len() != 2 {
		t.Fatalf("distinct vertex was merged away: %d entries", f.len())
	}
	if !f.pt(1).Equal(vec.Of(0.25, 0.75), 0) || len(f.tight(1)) != 1 || !f.tight(1).has(9) {
		t.Fatalf("distinct vertex stored as %v with tight set %v", f.pt(1), f.tight(1))
	}
}

// TestCellRefineNearHullCluster drives the tolerance through the real cell
// machinery: slicing the simplex with two nearly identical planes whose
// intersection vertices land on the hull must keep the cell well-formed
// (non-empty, LP-consistent center) instead of splitting a true vertex
// into a cluster with partial tight sets.
func TestCellRefineNearHullCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := 2 + trial%3
		c := NewSimplex(d)
		n := vec.New(d)
		for j := range n {
			n[j] = rng.Float64() - 0.5
		}
		h1 := NewHyperplane(n.Clone(), 0)
		// A parallel plane a hair away: the two cut vertices coincide within
		// round-off near the hull.
		n2 := n.Clone()
		n2[0] += 3e-10
		h2 := NewHyperplane(n2, 1)
		for _, sign := range []int{+1, -1} {
			cc := c.Clip(h1, sign)
			if cc == nil {
				continue
			}
			cc = cc.Clip(h2, sign)
			if cc == nil {
				continue
			}
			ctr := cc.Center()
			if ctr == nil {
				t.Fatalf("trial %d: refined cell lost its center", trial)
			}
			for _, con := range cc.Constraints() {
				if !con.Satisfied(ctr) {
					t.Fatalf("trial %d: center %v violates constraint after near-parallel refine", trial, ctr)
				}
			}
		}
	}
}
