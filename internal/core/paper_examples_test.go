package core

// Tests in this file reproduce the worked examples of the paper exactly:
// Table 1 (the car market), Table 3 with Examples 3.1, 3.3, 3.4, 3.6, and
// the Sweeping walk-through of §4.

import (
	"context"
	"math"
	"testing"

	"rrq/internal/topk"
	"rrq/internal/vec"
)

// table3 is the running dataset of the paper (Table 3).
func table3() []vec.Vec {
	return []vec.Vec{
		vec.Of(0.2, 0.92), // p1
		vec.Of(0.7, 0.54), // p2
		vec.Of(0.6, 0.3),  // p3
	}
}

func TestExample31Utilities(t *testing.T) {
	pts := table3()
	u := vec.Of(0.5, 0.5)
	utils := topk.Utilities(pts, u)
	want := []float64{0.56, 0.62, 0.45}
	for i := range want {
		if math.Abs(utils[i]-want[i]) > 1e-12 {
			t.Fatalf("f_u(p%d) = %v, want %v", i+1, utils[i], want[i])
		}
	}
	// p1 ranks second: 2max = 0.56.
	if got := topk.KthMax(utils, 2); math.Abs(got-0.56) > 1e-12 {
		t.Fatalf("2max = %v, want 0.56", got)
	}
}

func TestExample33RegretRatio(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 2, Eps: 0.1}
	u := vec.Of(0.5, 0.5)
	// 2-regratio(q,u) = max(0, 0.56 − 0.55)/0.56 ≈ 0.0179 < 0.1.
	got := RegretRatio(pts, q, u)
	if math.Abs(got-0.01/0.56) > 1e-12 {
		t.Fatalf("2-regratio = %v, want %v", got, 0.01/0.56)
	}
	if !QualifiedAt(pts, q, u) {
		t.Fatal("u = (0.5,0.5) must qualify (q is a (2,0.1)-regret point)")
	}
}

func TestExample36PartitionCounts(t *testing.T) {
	// With ε = 0.1 the three planes split the segment into four partitions
	// c1..c4; c1, c2, c3 qualify for k = 2 (Example 3.6 / §3.2).
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 2, Eps: 0.1}
	reg, _, err := solveOn(context.Background(), BruteForceSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	// Compute the three crossing parameters to locate the partitions.
	ps := buildPlanes(pts, q, &Arena{})
	if len(ps.Crossing) != 3 || ps.Base != 0 {
		t.Fatalf("planes: crossing=%d base=%d, want 3,0", len(ps.Crossing), ps.Base)
	}
	var ts []float64
	for _, h := range ps.Crossing {
		w := h.Normal
		ts = append(ts, w[1]/(w[1]-w[0]))
	}
	// Partition c4 (beyond the largest two crossings on the p2/p3 side)
	// must be excluded; everything before must qualify. Lemma 3.5 walk:
	// verify via the membership oracle on each partition midpoint.
	for _, u := range []vec.Vec{vec.Of(0.05, 0.95), vec.Of(0.5, 0.5)} {
		if !reg.Contains(u) {
			t.Errorf("u = %v should qualify", u)
		}
	}
	// The region must exclude a deep part of c4 (both inclusive planes
	// negative): near t = 1.
	if reg.Contains(vec.Of(0.999, 0.001)) {
		t.Error("u near (1,0) lies in two negative half-spaces and must not qualify")
	}
	_ = ts
}

func TestSection4SweepingWalkthrough(t *testing.T) {
	// §4 example: k = 1 on Table 3. lh_1 = h_{q,p2}, uh_1 = h_{q,p1};
	// h_{q,p3} is filtered; the single surviving partition c2 is returned.
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 1, Eps: 0.1}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	ivs := reg.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want exactly 1 (partition c2): %v", len(ivs), ivs)
	}
	// Bounds: crossing of h_{q,p1} (t ≈ 0.3628) and h_{q,p2} (t ≈ 0.5102).
	wantLo := cross2(q, pts[0])
	wantHi := cross2(q, pts[1])
	if math.Abs(ivs[0][0]-wantLo) > 1e-9 || math.Abs(ivs[0][1]-wantHi) > 1e-9 {
		t.Fatalf("interval = %v, want [%v, %v]", ivs[0], wantLo, wantHi)
	}
}

// cross2 computes the sweep parameter at which h_{q,p} crosses the segment.
func cross2(q Query, p vec.Vec) float64 {
	w := q.Q.AddScaled(-(1 - q.Eps), p)
	return w[1] / (w[1] - w[0])
}

func TestTable1CarMarket(t *testing.T) {
	// Table 1: horsepower (×100 hp) and safety rating. The utility vector
	// u1 = (0.9, 0.1) reproduces the printed scores exactly: f(p1)=4.37,
	// f(p2)=4.45, f(p3)=4.60, f(q)=4.25 — regret ratio (4.60−4.25)/4.60 =
	// 0.076 < 0.1, so u1 qualifies even though q ranks last.
	cars := []vec.Vec{
		vec.Of(4.3, 5), // p1
		vec.Of(4.5, 4), // p2
		vec.Of(5.0, 1), // p3
	}
	u1 := vec.Of(0.9, 0.1)
	q := Query{Q: vec.Of(4.5, 2), K: 1, Eps: 0.1}
	utils := topk.Utilities(cars, u1)
	want := []float64{4.37, 4.45, 4.60}
	for i := range want {
		if math.Abs(utils[i]-want[i]) > 1e-9 {
			t.Fatalf("f_u1(p%d) = %v, want %v", i+1, utils[i], want[i])
		}
	}
	fq := u1.Dot(q.Q)
	ratio := (topk.KthMax(utils, 1) - fq) / topk.KthMax(utils, 1)
	if ratio >= 0.1 {
		t.Fatalf("regret ratio = %v, want < 0.1", ratio)
	}
	// q ranks last (rank 4) yet still qualifies — the paper's core claim.
	if r := topk.Rank(cars, u1, fq); r != 4 {
		t.Fatalf("rank of q = %d, want 4", r)
	}
	if !QualifiedAt(cars, q, u1) {
		t.Fatal("u1 must qualify under RRQ")
	}
}

func TestRegretRatioRange(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.9, 0.95), K: 1, Eps: 0.1}
	// q beats everything: ratio must be exactly 0.
	u := vec.Of(0.5, 0.5)
	if got := RegretRatio(pts, q, u); got != 0 {
		t.Fatalf("ratio = %v, want 0", got)
	}
	// Ratio of a dominated point is in (0,1].
	q2 := Query{Q: vec.Of(0.01, 0.01), K: 1, Eps: 0.1}
	got := RegretRatio(pts, q2, u)
	if got <= 0 || got > 1 {
		t.Fatalf("ratio = %v, want in (0,1]", got)
	}
	if RegretRatio(nil, q, u) != 0 {
		t.Fatal("empty dataset ratio should be 0")
	}
}

func TestQueryValidate(t *testing.T) {
	q := Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 0.1}
	if err := q.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		{Q: vec.Of(0.5, 0.5, 0.5), K: 1, Eps: 0.1}, // dim mismatch
		{Q: vec.Of(0.5, 0.5), K: 0, Eps: 0.1},      // k < 1
		{Q: vec.Of(0.5, 0.5), K: 1, Eps: -0.1},     // ε < 0
		{Q: vec.Of(0.5, 0.5), K: 1, Eps: 1},        // ε ≥ 1
	}
	for i, b := range bad {
		if err := b.Validate(2); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := (Query{Q: vec.Of(0.5), K: 1, Eps: 0}).Validate(1); err == nil {
		t.Error("d = 1 should fail validation")
	}
}
