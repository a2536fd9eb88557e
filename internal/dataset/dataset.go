// Package dataset provides the data substrate for the RRQ experiments:
// the three classical synthetic distributions (independent, correlated,
// anti-correlated) of Börzsönyi et al., seeded stand-ins for the paper's
// four real datasets, normalization to (0,1], query-point generation and
// CSV persistence.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"rrq/internal/vec"
)

// Type identifies a synthetic data distribution.
type Type int

const (
	// Independent: attribute values i.i.d. uniform.
	Independent Type = iota
	// Correlated: attribute values positively correlated (points hug the
	// main diagonal); skylines are tiny.
	Correlated
	// Anticorrelated: good values in one attribute pair with bad values in
	// others (points hug the anti-diagonal plane); skylines are large.
	Anticorrelated
)

func (t Type) String() string {
	switch t {
	case Independent:
		return "Indep"
	case Correlated:
		return "Cor"
	case Anticorrelated:
		return "Anti"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses "Indep", "Cor" or "Anti" (case-sensitive, as printed).
func ParseType(s string) (Type, error) {
	switch s {
	case "Indep":
		return Independent, nil
	case "Cor":
		return Correlated, nil
	case "Anti":
		return Anticorrelated, nil
	}
	return 0, fmt.Errorf("dataset: unknown type %q", s)
}

// Generate produces n points of dimension d from the given distribution,
// normalized to (0,1]. The generator is fully determined by the seed.
func Generate(t Type, n, d int, seed int64) []vec.Vec {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vec, n)
	switch t {
	case Independent:
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts[i] = p
		}
	case Correlated:
		for i := range pts {
			base := clamp01(rng.NormFloat64()*0.15 + 0.5)
			p := vec.New(d)
			for j := range p {
				p[j] = clamp01(base + (rng.Float64()-0.5)*0.1)
			}
			pts[i] = p
		}
	case Anticorrelated:
		// Points hug the constant-sum plane Σx ≈ d/2: a tight normal base
		// plus a zero-mean spread. Rejection keeps coordinates inside
		// [0,1] without clamping (clamping would pile mass on the faces
		// and destroy the anti-correlated frontier).
		for i := range pts {
			p := vec.New(d)
			for {
				base := rng.NormFloat64()*0.03 + 0.5
				var mean float64
				for j := range p {
					p[j] = (rng.Float64() - 0.5) * 0.8
					mean += p[j]
				}
				mean /= float64(d)
				ok := true
				for j := range p {
					p[j] += base - mean
					if p[j] < 0 || p[j] > 1 {
						ok = false
					}
				}
				if ok {
					break
				}
			}
			pts[i] = p
		}
	default:
		panic(fmt.Sprintf("dataset: unknown type %d", int(t)))
	}
	Normalize(pts)
	return pts
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Normalize rescales every dimension of pts in place onto (0,1], mapping
// the per-dimension minimum to a small positive value and the maximum to 1.
// Dimensions with a single value collapse to 1. Every finite column lands in
// (0,1], even one whose span exceeds MaxFloat64.
func Normalize(pts []vec.Vec) {
	if len(pts) == 0 {
		return
	}
	d := len(pts[0])
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo = math.Min(lo, p[j])
			hi = math.Max(hi, p[j])
		}
		if hi-lo < 1e-15 {
			for _, p := range pts {
				p[j] = 1
			}
			continue
		}
		// The quotients below do not change when the column is scaled, so a
		// finite column whose span overflows is quartered first (two
		// halvings; one is not enough for ±MaxFloat64 plus the shift).
		if math.IsInf(hi-lo+(hi-lo)*1e-3, 1) {
			for _, p := range pts {
				p[j] *= 0.25
			}
			lo, hi = lo*0.25, hi*0.25
		}
		// Shift the minimum slightly above zero so the range is (0,1].
		delta := (hi - lo) * 1e-3
		span := hi - lo + delta
		for _, p := range pts {
			p[j] = (p[j] - lo + delta) / span
		}
	}
}

// RandQuery draws a random query point for experiments: a random dataset
// point perturbed by ±5% per attribute, clamped to (0,1]. This follows the
// paper's protocol of running each algorithm with randomly generated query
// points drawn from the market being analyzed.
func RandQuery(rng *rand.Rand, pts []vec.Vec) vec.Vec {
	p := pts[rng.Intn(len(pts))]
	q := p.Clone()
	for j := range q {
		q[j] += (rng.Float64() - 0.5) * 0.1
		if q[j] <= 0 {
			q[j] = 1e-3
		}
		if q[j] > 1 {
			q[j] = 1
		}
	}
	return q
}
