package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

func TestRegionJSONRoundTripIntervals(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 1, Eps: 0.1}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	var back Region
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		u := vec.RandSimplex(rng, 2)
		if reg.Contains(u) != back.Contains(u) {
			t.Fatalf("round trip changed membership at %v", u)
		}
	}
}

func TestRegionJSONRoundTripCells(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		pts, q := randomInstance(rng, 25, 3)
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reg)
		if err != nil {
			t.Fatal(err)
		}
		var back Region
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 3)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if reg.Contains(u) != back.Contains(u) {
				t.Fatalf("trial %d: round trip changed membership at %v", trial, u)
			}
		}
	}
}

func TestRegionJSONEmpty(t *testing.T) {
	data, err := json.Marshal(EmptyRegion(4))
	if err != nil {
		t.Fatal(err)
	}
	var back Region
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Empty() || back.Dim() != 4 {
		t.Fatalf("empty region round trip: %+v", back)
	}
}

// Every row is input no Region encodes to. Before the decoder validated
// its input, the zero normal and the dim-1 cell panicked, and every other
// row except the malformed and out-of-range ones decoded without error.
func TestRegionJSONBadInput(t *testing.T) {
	const simplex3 = `[[1,0,0],[0,1,0],[0,0,1]]`
	cases := []struct{ name, in string }{
		{"malformed", `{"dim": `},
		{"dim 1", `{"dim":1,"cells":[{"constraints":[],"vertices":[]}]}`},
		{"dim 0 without cells", `{"dim":0}`},
		{"negative dim", `{"dim":-3}`},
		{"normal shorter than dim", `{"dim":3,"cells":[{"constraints":[{"normal":[1],"sign":1}],"vertices":` + simplex3 + `}]}`},
		{"normal longer than dim", `{"dim":3,"cells":[{"constraints":[{"normal":[1,0,0,0],"sign":1}],"vertices":` + simplex3 + `}]}`},
		{"vertex shorter than dim", `{"dim":3,"cells":[{"constraints":[],"vertices":[[1,0],[0,1,0],[0,0,1]]}]}`},
		{"sign 0", `{"dim":3,"cells":[{"constraints":[{"normal":[1,-1,0],"sign":0}],"vertices":` + simplex3 + `}]}`},
		{"sign 2", `{"dim":3,"cells":[{"constraints":[{"normal":[1,-1,0],"sign":2}],"vertices":` + simplex3 + `}]}`},
		{"zero normal", `{"dim":3,"cells":[{"constraints":[{"normal":[0,0,0],"sign":1}],"vertices":` + simplex3 + `}]}`},
		{"overflowing normal", `{"dim":3,"cells":[{"constraints":[{"normal":[1e200,-1e200,0],"sign":1}],"vertices":` + simplex3 + `}]}`},
		{"out-of-range value", `{"dim":3,"cells":[{"constraints":[{"normal":[1e999,-1,0],"sign":1}],"vertices":` + simplex3 + `}]}`},
		{"intervals in 3-d", `{"dim":3,"intervals":[[0.1,0.2]]}`},
		{"fewer vertices than dim", `{"dim":3,"cells":[{"constraints":[],"vertices":[[1,0,0],[0,1,0]]}]}`},
		// Without the vertex-count check this 54-byte input would build a
		// 3000-dimensional simplex, 3000² floats; at dim 10⁸ it exhausted
		// memory.
		{"huge dim, no vertices", `{"dim":3000,"cells":[{"constraints":[],"vertices":[]}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var r Region
			if err := r.UnmarshalJSON([]byte(c.in)); err == nil {
				t.Fatalf("accepted %s as a %d-d region of %d pieces", c.in, r.Dim(), r.NumPieces())
			}
		})
	}
}

// refMarshalJSON is the struct-building encoder AppendJSON replaced: the
// wire form assembled from copied constraint and vertex lists and handed
// to encoding/json. It is the reference AppendJSON must match byte for
// byte.
func refMarshalJSON(r *Region) ([]byte, error) {
	out := regionJSON{Dim: r.dim, Intervals: r.intervals}
	if len(r.cells) > 0 {
		out.Cells = make([]cellJSON, 0, len(r.cells))
	}
	for _, c := range r.cells {
		cons := c.Constraints()
		cj := cellJSON{
			Constraints: make([]constraintJSON, 0, len(cons)),
			Vertices:    make([][]float64, 0, c.NumVertices()),
		}
		for _, con := range cons {
			cj.Constraints = append(cj.Constraints, constraintJSON{Normal: con.H.Normal, Sign: con.Sign})
		}
		for _, v := range c.Vertices() {
			cj.Vertices = append(cj.Vertices, v)
		}
		out.Cells = append(out.Cells, cj)
	}
	return json.Marshal(out)
}

// encodingCorpus solves corpus problems (the diffcheck enumeration:
// families cycling fastest, then dimensions 2–6) with every solver whose
// regions reach the wire: E-PT, Sweeping in 2-d, merged A-PC (overlapping
// cells) and the anytime tier (a sample-cut A-PC run).
func encodingCorpus(t *testing.T, problems int) map[string]*Region {
	t.Helper()
	out := map[string]*Region{}
	for i := 0; i < problems; i++ {
		fam := byte(i % corpus.NumFamilies)
		dim := 2 + (i/corpus.NumFamilies)%5
		ins, ok := corpus.DecodeDim(corpus.Encode(fam, dim, 3+i%10, 1+i%4, i%7, 20240805+int64(i)*7919), dim)
		if !ok {
			continue
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		add := func(solver string, reg *Region, err error) {
			if err != nil {
				t.Fatalf("problem %d (%s, d=%d) %s: %v", i, ins.Family, dim, solver, err)
			}
			out[fmt.Sprintf("problem %d (%s, d=%d) %s", i, ins.Family, dim, solver)] = reg
		}
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		add("ept", reg, err)
		if dim == 2 {
			reg, _, err = solveOn(context.Background(), SweepingSolver{}, pts, q)
			add("sweeping", reg, err)
		}
		reg, _, err = solveOn(context.Background(), APCSolver{Opt: APCOptions{Seed: int64(i)}}, pts, q)
		add("apc", reg, err)
		reg, _, err = solveOn(context.Background(), APCSolver{Opt: APCOptions{Seed: int64(i), MaxSamples: 4}}, pts, q)
		add("anytime", reg, err)
	}
	return out
}

func TestRegionAppendJSONMatchesReference(t *testing.T) {
	regions := encodingCorpus(t, 240)
	for d := 2; d <= 6; d++ {
		regions[fmt.Sprintf("empty d=%d", d)] = EmptyRegion(d)
	}
	regions["empty intervals"] = NewIntervalRegion([][2]float64{})
	for _, d := range []int{3, 4} {
		regions[fmt.Sprintf("wide ept d=%d", d)] = wideRegion(t, d)
	}
	var cells, intervals int
	prefix := []byte(`{"x":`)
	for name, reg := range regions {
		want, err := refMarshalJSON(reg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := reg.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: MarshalJSON = %s, %v\nwant %s", name, got, err, want)
		}
		got, err = reg.AppendJSON(append([]byte(nil), prefix...))
		if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("%s: AppendJSON after a prefix = %s, %v", name, got, err)
		}
		// The hardened decoder accepts everything a solver encodes.
		var back Region
		if err := back.UnmarshalJSON(want); err != nil {
			t.Fatalf("%s: decoding the encoding: %v", name, err)
		}
		cells += len(reg.cells)
		intervals += len(reg.intervals)
	}
	if cells < 1000 || intervals < 20 {
		t.Fatalf("precondition: corpus encodes %d cells and %d intervals; too few to pin the encoder", cells, intervals)
	}
	t.Run("floats", appendJSONFloats)
}

// appendJSONFloats covers both sides of encoding/json's switch between 'f'
// and 'e' formatting, negative zero, the smallest subnormal and the
// two-digit negative exponents it shortens; NaN and ±Inf must fail with
// the error encoding/json reports.
func appendJSONFloats(t *testing.T) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 5e-324, -1e-300, 0.1, 1.0 / 3, -2.5e-8, 123456789, 1e300} {
		reg := &Region{dim: 2, intervals: [][2]float64{{x, -x}}}
		want, err := refMarshalJSON(reg)
		if err != nil {
			t.Fatalf("%v: reference: %v", x, err)
		}
		got, err := reg.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: AppendJSON = %s, %v; want %s", x, got, err, want)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reg := &Region{dim: 2, intervals: [][2]float64{{0.5, x}}}
		_, wantErr := refMarshalJSON(reg)
		prefix := []byte("prefix")
		got, err := reg.AppendJSON(prefix)
		var ue, wantUE *json.UnsupportedValueError
		if !errors.As(err, &ue) || !errors.As(wantErr, &wantUE) || err.Error() != wantErr.Error() {
			t.Errorf("%v: AppendJSON error %v (%T), want %v (%T)", x, err, err, wantErr, wantErr)
		}
		if string(got) != "prefix" {
			t.Errorf("%v: AppendJSON extended the buffer on error: %q", x, got)
		}
	}
}

// wideRegion is an E-PT region of tens of cells: 80 uniform points and a
// query of 0.8 on every attribute, at k = 5 and ε = 0.1 (20 cells in 3-d,
// 53 in 4-d).
func wideRegion(t *testing.T, d int) *Region {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	pts, q := randomInstance(rng, 80, d)
	q.Q = vec.New(d)
	for j := range q.Q {
		q.Q[j] = 0.8
	}
	q.K, q.Eps = 5, 0.1
	reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumPieces() < 10 {
		t.Fatalf("d=%d: precondition: %d pieces, want tens of cells", d, reg.NumPieces())
	}
	return reg
}

// Into a buffer short of room, encoding a region grows it once, to the
// bound jsonBound computes, which the encoding never exceeds: also for
// floats of the longest forms.
func TestRegionAppendJSONGrowsOnce(t *testing.T) {
	long := []float64{-1.2345678901234567e-6, -1.2345678901234567e-300, -9.876543210987654e20, math.SmallestNonzeroFloat64}
	for _, d := range []int{2, 3, 4} {
		regs := []*Region{NewIntervalRegion([][2]float64{{long[0], long[1]}, {long[2], long[3]}})}
		if d > 2 {
			regs = []*Region{wideRegion(t, d)}
		}
		for _, reg := range regs {
			for _, prefix := range [][]byte{nil, []byte(`{"version":1,"region":`)} {
				var out []byte
				allocs := testing.AllocsPerRun(20, func() {
					out, _ = reg.AppendJSON(prefix[:len(prefix):len(prefix)])
				})
				if allocs != 1 {
					t.Errorf("d=%d: AppendJSON into a full buffer allocates %.1f, want 1", d, allocs)
				}
				if n := len(out) - len(prefix); n > reg.jsonBound() {
					t.Errorf("d=%d: encoding of %d bytes exceeds its bound %d", d, n, reg.jsonBound())
				}
			}
		}
	}
}

// Into a buffer with room, encoding a region allocates nothing: no
// constraint or vertex list is copied and no reflection runs.
func TestRegionAppendJSONZeroAlloc(t *testing.T) {
	for _, d := range []int{3, 4} {
		reg := wideRegion(t, d)
		buf, err := reg.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf, _ = reg.AppendJSON(buf[:0])
		})
		if allocs != 0 {
			t.Errorf("d=%d: AppendJSON into a buffer with room allocates %.1f per run, want 0", d, allocs)
		}
	}
}
