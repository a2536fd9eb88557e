package dataset

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rrq/internal/skyband"
	"rrq/internal/vec"
)

func TestGenerateRanges(t *testing.T) {
	for _, typ := range []Type{Independent, Correlated, Anticorrelated} {
		pts := Generate(typ, 500, 4, 1)
		if len(pts) != 500 {
			t.Fatalf("%v: %d points", typ, len(pts))
		}
		for _, p := range pts {
			for j, x := range p {
				if x <= 0 || x > 1 {
					t.Fatalf("%v: coordinate %d = %v out of (0,1]", typ, j, x)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Independent, 100, 3, 42)
	b := Generate(Independent, 100, 3, 42)
	for i := range a {
		if !a[i].Equal(b[i], 0) {
			t.Fatal("same seed produced different data")
		}
	}
	c := Generate(Independent, 100, 3, 43)
	same := true
	for i := range a {
		if !a[i].Equal(c[i], 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// The defining property of the three distributions: skyline sizes order as
// Cor < Indep < Anti.
func TestDistributionSkylineOrdering(t *testing.T) {
	n, d := 3000, 3
	sizes := map[Type]int{}
	for _, typ := range []Type{Independent, Correlated, Anticorrelated} {
		pts := Generate(typ, n, d, 9)
		sizes[typ] = len(skyband.Skyline(pts))
	}
	if !(sizes[Correlated] < sizes[Independent] && sizes[Independent] < sizes[Anticorrelated]) {
		t.Fatalf("skyline sizes Cor=%d Indep=%d Anti=%d violate Cor<Indep<Anti",
			sizes[Correlated], sizes[Independent], sizes[Anticorrelated])
	}
}

func TestCorrelationSign(t *testing.T) {
	corr := func(pts []vec.Vec) float64 {
		var mx, my float64
		for _, p := range pts {
			mx += p[0]
			my += p[1]
		}
		n := float64(len(pts))
		mx, my = mx/n, my/n
		var sxy, sxx, syy float64
		for _, p := range pts {
			dx, dy := p[0]-mx, p[1]-my
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
		return sxy / math.Sqrt(sxx*syy)
	}
	if c := corr(Generate(Correlated, 4000, 2, 5)); c < 0.5 {
		t.Errorf("correlated corr = %v, want > 0.5", c)
	}
	if c := corr(Generate(Anticorrelated, 4000, 2, 5)); c > -0.5 {
		t.Errorf("anticorrelated corr = %v, want < -0.5", c)
	}
	if c := corr(Generate(Independent, 4000, 2, 5)); math.Abs(c) > 0.1 {
		t.Errorf("independent corr = %v, want ~0", c)
	}
}

func TestNormalizeEdgeCases(t *testing.T) {
	Normalize(nil) // must not panic
	pts := []vec.Vec{vec.Of(5, 1), vec.Of(5, 3)}
	Normalize(pts)
	// Constant dimension collapses to 1.
	if pts[0][0] != 1 || pts[1][0] != 1 {
		t.Errorf("constant dim = %v, %v, want 1", pts[0][0], pts[1][0])
	}
	if pts[0][1] <= 0 || pts[1][1] != 1 {
		t.Errorf("varying dim = %v, %v", pts[0][1], pts[1][1])
	}
}

// A finite column whose span overflows float64 still lands in (0,1], with
// the values of the same column scaled by a quarter: rescaling does not
// depend on the column's scale.
func TestNormalizeHugeSpan(t *testing.T) {
	for _, col := range [][]float64{
		{1e308, -1e308},
		{math.MaxFloat64, -math.MaxFloat64, 0},
		{math.MaxFloat64, 1},
	} {
		pts := make([]vec.Vec, len(col))
		ref := make([]vec.Vec, len(col))
		for i, x := range col {
			pts[i] = vec.Of(x, 0.5)
			ref[i] = vec.Of(x/4, 0.5)
		}
		Normalize(pts)
		Normalize(ref)
		for i, p := range pts {
			if !(p[0] > 0 && p[0] <= 1) {
				t.Fatalf("column %v: value %d rescaled to %v, want (0,1]", col, i, p[0])
			}
			if p[0] != ref[i][0] {
				t.Fatalf("column %v: value %d rescaled to %v, the quartered column to %v", col, i, p[0], ref[i][0])
			}
		}
	}
}

func TestRandQueryInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := Generate(Independent, 50, 4, 3)
	for i := 0; i < 100; i++ {
		q := RandQuery(rng, pts)
		for _, x := range q {
			if x <= 0 || x > 1 {
				t.Fatalf("query coordinate %v out of (0,1]", x)
			}
		}
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{Independent, Correlated, Anticorrelated} {
		got, err := ParseType(typ.String())
		if err != nil || got != typ {
			t.Fatalf("round trip %v failed: %v %v", typ, got, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Fatal("expected error for bogus type")
	}
}

func TestRealSpecs(t *testing.T) {
	wants := map[RealName][2]int{
		Island: {63383, 2}, Weather: {178080, 4}, Car: {69052, 4}, NBA: {16916, 5},
	}
	for name, want := range wants {
		n, d, err := RealSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if n != want[0] || d != want[1] {
			t.Errorf("%s spec = (%d,%d), want %v", name, n, d, want)
		}
	}
	if _, _, err := RealSpec("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRealGeneration(t *testing.T) {
	for _, name := range RealNames {
		pts, err := Real(name, 2000)
		if err != nil {
			t.Fatal(err)
		}
		_, d, _ := RealSpec(name)
		if len(pts) != 2000 {
			t.Fatalf("%s: %d points, want 2000", name, len(pts))
		}
		for _, p := range pts {
			if p.Dim() != d {
				t.Fatalf("%s: dim %d, want %d", name, p.Dim(), d)
			}
			for _, x := range p {
				if x <= 0 || x > 1 {
					t.Fatalf("%s: value %v out of (0,1]", name, x)
				}
			}
		}
	}
	if _, err := Real("bogus", 10); err == nil {
		t.Fatal("expected error for unknown real dataset")
	}
}

func TestIslandAnticorrelatedFrontier(t *testing.T) {
	pts, err := Real(Island, 20000)
	if err != nil {
		t.Fatal(err)
	}
	sky := skyband.Skyline(pts)
	if len(sky) < 10 {
		t.Fatalf("Island skyline has %d points; the coastal arc should give a broad frontier", len(sky))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := Generate(Independent, 30, 3, 77)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pts) {
		t.Fatalf("%d points back, want %d", len(back), len(pts))
	}
	for i := range pts {
		if !pts[i].Equal(back[i], 0) {
			t.Fatalf("point %d mismatch: %v vs %v", i, pts[i], back[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	wantCSVErr := func(t *testing.T, input string, row, field int) {
		t.Helper()
		_, err := ReadCSV(strings.NewReader(input))
		if err == nil {
			t.Fatalf("accepted malformed input %q", input)
		}
		var ce *CSVError
		if !errors.As(err, &ce) {
			t.Fatalf("error is %T (%v), want *CSVError", err, err)
		}
		if ce.Row != row || ce.Field != field {
			t.Fatalf("error at row %d field %d, want row %d field %d (%v)", ce.Row, ce.Field, row, field, err)
		}
	}

	wantCSVErr(t, "a,b\n1,2,3\n", 2, 0)             // ragged row
	wantCSVErr(t, "a,b\n1,2\n0.5\n", 3, 0)          // ragged row, numbered
	wantCSVErr(t, "a,b\n1,x\n", 2, 2)               // non-numeric, field numbered
	wantCSVErr(t, "a,b\n1,NaN\n", 2, 2)             // non-finite
	wantCSVErr(t, "a,b\n1,+Inf\n", 2, 2)            // non-finite
	wantCSVErr(t, "", 0, 0)                         // empty file
	wantCSVErr(t, "a,b\n", 0, 0)                    // header only
	wantCSVErr(t, "a,b\n\n\n", 0, 0)                // header + blanks only
	wantCSVErr(t, "a,b\n1,2\n\n3,4\n", 4, 0)        // interior blank line
	wantCSVErr(t, "  \n1,2\n", 1, 0)                // blank header
	wantCSVErr(t, "a,b\n1,2\n3,4,5\n0.1,0.2", 3, 0) // ragged mid-file
}

func TestReadCSVTrailingBlanks(t *testing.T) {
	pts, err := ReadCSV(strings.NewReader("a,b\n1,2\n0.5,0.25\n\n\n"))
	if err != nil {
		t.Fatalf("trailing blank lines rejected: %v", err)
	}
	if len(pts) != 2 || pts[1][1] != 0.25 {
		t.Fatalf("bad parse: %v", pts)
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n 1 , 2 \n")); err != nil {
		t.Fatalf("padded fields rejected: %v", err)
	}
}
