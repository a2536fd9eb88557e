package core

import (
	"math"
	"math/rand"
	"sort"

	"rrq/internal/topk"
	"rrq/internal/vec"
)

// ShareProfile is the market-share curve of a query product: for every
// threshold ε, Share(ε) is the fraction of the preference space on which q
// is a (k,ε)-regret point. It is computed in a single sampling pass from
// the observation that for a fixed preference u the smallest qualifying
// threshold is
//
//	ε*(u) = max(0, 1 − f_u(q) / kmax_{p∈D} f_u(p))
//
// so Share(ε) is simply the CDF of ε* under the uniform preference
// distribution. One pass over N samples yields the whole curve, instead of
// one full reverse regret query per ε.
type ShareProfile struct {
	eps []float64 // sorted ε*(u) samples
}

// NewShareProfile draws samples uniform preferences and evaluates ε* for
// each. Cost: O(samples · n · d).
func NewShareProfile(pts []vec.Vec, q Query, samples int, rng *rand.Rand) (*ShareProfile, error) {
	d := q.Q.Dim()
	if err := q.Validate(d); err != nil {
		return nil, err
	}
	for _, p := range pts {
		if p.Dim() != d {
			return nil, errDimMismatch(d, p.Dim())
		}
	}
	if samples <= 0 {
		samples = 2000
	}
	eps := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		u := vec.RandSimplex(rng, d)
		eps = append(eps, MinQualifyingEps(pts, q.K, q.Q, u))
	}
	sort.Float64s(eps)
	return &ShareProfile{eps: eps}, nil
}

// MinQualifyingEps returns ε*(u): the smallest threshold at which q is a
// (k,ε)-regret point w.r.t. u. Zero when q already scores at or above the
// k-th ranked product.
func MinQualifyingEps(pts []vec.Vec, k int, qPoint, u vec.Vec) float64 {
	if len(pts) == 0 {
		return 0
	}
	sk := topk.KthMax(topk.Utilities(pts, u), k)
	fq := u.Dot(qPoint)
	if sk <= 0 || fq >= sk {
		return 0
	}
	return 1 - fq/sk
}

// Share returns the estimated fraction of preferences with ε*(u) ≤ eps —
// the market share at threshold eps.
func (sp *ShareProfile) Share(eps float64) float64 {
	i := sort.SearchFloat64s(sp.eps, math.Nextafter(eps, math.Inf(1)))
	return float64(i) / float64(len(sp.eps))
}

// EpsForShare returns the smallest threshold that reaches the target share
// (a quantile of ε*). Target is clamped to [0, 1]; reaching share 1 may
// require ε up to the largest sampled ε*.
func (sp *ShareProfile) EpsForShare(target float64) float64 {
	if target <= 0 {
		return 0
	}
	if target >= 1 {
		return sp.eps[len(sp.eps)-1]
	}
	i := int(math.Ceil(target*float64(len(sp.eps)))) - 1
	if i < 0 {
		i = 0
	}
	return sp.eps[i]
}

// Samples returns the number of preference samples underlying the profile.
func (sp *ShareProfile) Samples() int { return len(sp.eps) }

func errDimMismatch(want, got int) error {
	return queryErrf("dim", "point dimension %d does not match query dimension %d", got, want)
}
