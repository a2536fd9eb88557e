package skyband

// Property, regression and fuzz tests for Counter, the dominance-counting
// primitive, against the quadratic DominatorCount oracle. Coordinates come
// from a small alphabet so that ties and exact duplicates are common, and
// equal-sum dominator pairs are seeded in; the checkpoint stride is forced
// small so that every checkpoint boundary case occurs at small n.

import (
	"math/rand"
	"slices"
	"testing"

	"rrq/internal/vec"
)

// alphabet holds the coordinates of the generated points. Its last two
// entries make (0.5, 2e-17) dominate (0.5, 1e-18) although both sums round
// to 0.5.
var alphabet = []float64{0, 0.25, 0.5, 0.75, 1, 1e-18, 2e-17}

func alphabetPoints(rng *rand.Rand, n, d int) []vec.Vec {
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = alphabet[rng.Intn(len(alphabet))]
		}
		pts[i] = p
	}
	// Equal-sum dominator pairs, and an exact duplicate.
	if n >= 4 {
		pts[1] = pts[0].Clone()
		pts[1][0], pts[1][d-1] = 0.5, 1e-18
		pts[2] = pts[1].Clone()
		pts[2][d-1] = 2e-17
		pts[3] = pts[2].Clone()
	}
	return pts
}

// dominatedOracle counts, for each point, the points it dominates.
func dominatedOracle(pts []vec.Vec) []int {
	counts := make([]int, len(pts))
	for i, p := range pts {
		for j, q := range pts {
			if i != j && Dominates(p, q) {
				counts[i]++
			}
		}
	}
	return counts
}

// checkCounter compares both directions of a Counter reset with the given
// checkpoint stride against the oracles, and KSkybandCounts, capped at
// limit, against the capped oracle.
func checkCounter(t *testing.T, pts []vec.Vec, stride, limit int) {
	t.Helper()
	n := len(pts)
	var c Counter
	if !c.reset(pts, stride, nil) {
		t.Fatal("reset stopped without a stopper")
	}
	wantDom, wantSub := DominatorCount(pts), dominatedOracle(pts)
	got := make([]int, n)
	c.Dominators(nil, got)
	for i := range got {
		if got[i] != wantDom[i] {
			t.Fatalf("n=%d stride=%d: point %d %v has %d dominators, want %d", n, stride, i, pts[i], got[i], wantDom[i])
		}
	}
	c.Dominated(nil, got)
	for i := range got {
		if got[i] != wantSub[i] {
			t.Fatalf("n=%d stride=%d: point %d %v dominates %d, want %d", n, stride, i, pts[i], got[i], wantSub[i])
		}
	}
	for i, cnt := range KSkybandCounts(pts, limit) {
		if want := min(wantDom[i], limit); cnt != want {
			t.Fatalf("n=%d: KSkybandCounts(k=%d) point %d %v count %d, want %d", n, limit, i, pts[i], cnt, want)
		}
	}
	// A subset in reverse order.
	idx := make([]int, 0, n)
	for i := n - 1; i >= 0; i -= 3 {
		idx = append(idx, i)
	}
	sub := make([]int, len(idx))
	c.Dominators(idx, sub)
	for j, i := range idx {
		if sub[j] != wantDom[i] {
			t.Fatalf("n=%d stride=%d: subset point %d has %d dominators, want %d", n, stride, i, sub[j], wantDom[i])
		}
	}
}

func TestCounterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sizes := []int{0, 1, 2, 3, 5}
	for j := 1; j <= 3; j++ {
		sizes = append(sizes, 64*j-1, 64*j, 64*j+1)
	}
	for d := 1; d <= 6; d++ {
		for _, n := range sizes {
			pts := alphabetPoints(rng, n, d)
			for _, stride := range []int{1, 3, 64, strideFor(n, d)} {
				checkCounter(t, pts, stride, 1+rng.Intn(5))
			}
		}
	}
}

// Uniform coordinates: few ties, so most work is in the bitsets.
func TestCounterMatchesOracleContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for d := 2; d <= 5; d++ {
		pts := randPoints(rng, 400, d)
		checkCounter(t, pts, 7, 4)
		checkCounter(t, pts, strideFor(len(pts), d), 4)
	}
}

// The stride keeps the checkpoints under maxCheckpointBytes as n grows.
func TestStrideBoundsCheckpoints(t *testing.T) {
	for _, d := range []int{2, 3, 6} {
		for _, n := range []int{100, 5000, 20000, 100000, 1 << 20} {
			stride := strideFor(n, d)
			words := (n + 63) / 64
			bytes := 8 * (d - 1) * ((n+stride-1)/stride + 1) * words
			if stride < 1 || (bytes > maxCheckpointBytes && stride < n) {
				t.Errorf("n=%d d=%d: stride %d gives %d checkpoint bytes (bound %d)", n, d, stride, bytes, maxCheckpointBytes)
			}
		}
	}
}

// Regression: (0.5, 2e-17) dominates (0.5, 1e-18) although their sums are
// both 0.5. A sum-ordered scan that leaves equal sums in input order used
// to miss the dominator when it came second.
func TestEqualSumDominator(t *testing.T) {
	q, p := vec.Of(0.5, 1e-18), vec.Of(0.5, 2e-17)
	if q.Sum() != p.Sum() || !Dominates(p, q) {
		t.Fatal("precondition: p dominates q with an equal float sum")
	}
	for _, tc := range []struct {
		pts  []vec.Vec
		q, p int
	}{{[]vec.Vec{q, p}, 0, 1}, {[]vec.Vec{p, q}, 1, 0}} {
		want := make([]int, 2)
		want[tc.q] = 1
		if got := DominatorCounts(tc.pts); !slices.Equal(got, want) {
			t.Errorf("DominatorCounts(%v) = %v, want %v", tc.pts, got, want)
		}
		if got := KSkybandCounts(tc.pts, 1); !slices.Equal(got, want) {
			t.Errorf("KSkybandCounts(%v, 1) = %v, want %v", tc.pts, got, want)
		}
		if got := KSkyband(tc.pts, 1); !slices.Equal(got, []int{tc.p}) {
			t.Errorf("KSkyband(%v, 1) = %v, want [%d]", tc.pts, got, tc.p)
		}
	}
}

// Capped counts are exact below the cap whichever way KSkybandCounts takes:
// the band scan, run here to completion, or the Counter it falls back to.
func TestKSkybandCountsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for d := 2; d <= 4; d++ {
		for _, n := range []int{63, 300} {
			pts := alphabetPoints(rng, n, d)
			want := DominatorCount(pts)
			scanned := make([]int, n)
			for _, k := range []int{1, 2, 8, 40} {
				if !bandScan(pts, k, scanned, n*n) {
					t.Fatal("band scan gave up within n² tests")
				}
				for i, c := range KSkybandCounts(pts, k) {
					if w := min(want[i], k); c != w || scanned[i] != w {
						t.Fatalf("d=%d n=%d k=%d: point %d count %d (band scan %d), want %d", d, n, k, i, c, scanned[i], w)
					}
				}
			}
		}
	}
}

type stopAfter struct{ polls, left int }

func (s *stopAfter) Stop() bool {
	s.polls++
	s.left--
	return s.left < 0
}

// A Counter polls its stopper about once per StopStride units of work and
// reports an abort from Reset or from a count.
func TestCounterStops(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := randPoints(rng, 2000, 3)
	var c Counter
	full := &stopAfter{left: 1 << 30}
	out := make([]int, len(pts))
	if !c.Reset(pts, full) || !c.Dominators(nil, out) || !c.Dominated(nil, out) {
		t.Fatal("count stopped with a stopper that never stops")
	}
	if full.polls < 100 {
		t.Fatalf("only %d polls over a full count of %d points", full.polls, len(pts))
	}
	for _, left := range []int{0, full.polls / 4, full.polls / 2, full.polls - 2} {
		s := &stopAfter{left: left}
		if c.Reset(pts, s) && c.Dominators(nil, out) && c.Dominated(nil, out) {
			t.Errorf("stopper ending after %d of %d polls did not stop the count", left, full.polls)
		}
		if s.polls != left+1 {
			t.Errorf("count went on polling after the stop: %d polls, stopped at %d", s.polls, left+1)
		}
	}
}

// A warm Counter resets and counts without allocating, also after a Reset
// over fewer points.
func TestCounterZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var c Counter
	for _, n := range []int{600, 40} {
		pts := randPoints(rng, n, 3)
		out := make([]int, n)
		idx := []int{0, n / 2, n - 1}
		run := func() {
			c.Reset(pts, nil)
			c.Dominated(nil, out)
			c.Dominators(idx, out)
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("n=%d: warm Counter allocates %.1f per run, want 0", n, allocs)
		}
	}
}

// FuzzDominanceCounts checks both directions of a Counter, and the capped
// counts of KSkybandCounts, against the oracle. The first byte picks the
// dimension, the second the stride, the third the cap, and each later byte
// one coordinate from the alphabet.
func FuzzDominanceCounts(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 5, 2, 6})                   // (0.5, 1e-18), (0.5, 2e-17)
	f.Add([]byte{2, 0, 2, 2, 6, 2, 5, 2, 6, 0, 0})       // with a duplicate
	f.Add([]byte{3, 3, 1, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0}) // d=3, stride 3
	f.Add([]byte{6, 2, 3, 0, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := 1 + int(data[0])%6
		stride := 1 + int(data[1])%70
		limit := 1 + int(data[2])%8
		data = data[3:]
		n := min(len(data)/d, 300)
		pts := make([]vec.Vec, n)
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				p[j] = alphabet[int(data[i*d+j])%len(alphabet)]
			}
			pts[i] = p
		}
		checkCounter(t, pts, stride, limit)
	})
}
