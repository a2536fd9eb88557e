package skyband

// Tests for the batch-sharing substrate: the capped dominator counts of
// KSkybandCounts must reproduce every band rank kk ≤ k exactly.

import (
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

func randPoints(rng *rand.Rand, n, d int) []vec.Vec {
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.01 + 0.99*rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestKSkybandCountsServeEveryRank(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{2, 3, 4} {
		pts := randPoints(rng, 120, d)
		// Duplicates and shared coordinates stress the tie handling.
		pts = append(pts, pts[0].Clone(), pts[5].Clone(), pts[5].Clone())
		const kmax = 6
		counts := KSkybandCounts(pts, kmax)
		for kk := 1; kk <= kmax; kk++ {
			want := KSkyband(pts, kk)
			got := make([]int, 0, len(want))
			for i, c := range counts {
				if c < kk {
					got = append(got, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("d=%d kk=%d: derived band has %d points, want %d", d, kk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%d kk=%d: derived band[%d] = %d, want %d", d, kk, i, got[i], want[i])
				}
			}
		}
	}
}

func TestKSkybandCountsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := randPoints(rng, 200, 2)
	const k = 3
	counts := KSkybandCounts(pts, k)
	exact := DominatorCount(pts)
	for i, c := range counts {
		if c > k {
			t.Fatalf("point %d: capped count %d exceeds k=%d", i, c, k)
		}
		if c < k && exact[i] != c {
			// Below the cap, only k-skyband dominators are counted; a point
			// with fewer than k of those has no dominators outside the band
			// either (any such dominator would imply ≥ k band dominators).
			t.Fatalf("point %d: capped count %d, exact dominators %d", i, c, exact[i])
		}
	}
}

func TestKSkybandCountsEdge(t *testing.T) {
	if got := KSkybandCounts(nil, 3); len(got) != 0 {
		t.Errorf("empty input produced %d counts", len(got))
	}
	pts := []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.9, 0.9)}
	for _, c := range KSkybandCounts(pts, 0) {
		if c != 1 {
			t.Errorf("k=0: count %d, want 1 (no rank qualifies)", c)
		}
	}
}
