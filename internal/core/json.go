package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"rrq/internal/geom"
	"rrq/internal/vec"
)

// The wire form of a Region is either intervals (d = 2 sweep results) or
// cells described by their half-space constraints:
//
//	{"dim":3,"cells":[{"constraints":[{"normal":[...],"sign":1},...],"vertices":[[...],...]}]}
//	{"dim":2,"intervals":[[lo,hi],...]}
//
// "intervals" and "cells" are omitted when empty. Each normal is the unit
// normal of a hyper-plane; sign +1 keeps u·normal ≥ 0, −1 keeps ≤ 0.
// Vertices are included for convenience (plotting, debugging); membership
// can be decided from the constraints alone. AppendJSON writes this form
// and UnmarshalJSON reads it through regionJSON.
type regionJSON struct {
	Dim       int          `json:"dim"`
	Intervals [][2]float64 `json:"intervals,omitempty"`
	Cells     []cellJSON   `json:"cells,omitempty"`
}

type cellJSON struct {
	Constraints []constraintJSON `json:"constraints"`
	Vertices    [][]float64      `json:"vertices"`
}

type constraintJSON struct {
	Normal []float64 `json:"normal"`
	Sign   int       `json:"sign"`
}

// MarshalJSON encodes the region. The encoding is self-contained: a
// consumer can test membership of a utility vector u by checking
// sign·(u·normal) ≥ 0 for every constraint of some cell (or locating u[0]
// in an interval for 2-d sweep output).
func (r *Region) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends the region's JSON encoding to b and returns the
// extended buffer. The bytes are those encoding/json writes for the wire
// form, float formatting included. A b without room for the encoding's
// upper bound (jsonBound) is grown to it once, up front; a b with room
// costs no allocation. A NaN or infinite coordinate fails with the
// *json.UnsupportedValueError encoding/json reports, and b is returned
// unextended.
func (r *Region) AppendJSON(b []byte) ([]byte, error) {
	a := jsonAppender{b: b}
	if n := r.jsonBound(); cap(b)-len(b) < n {
		a.b = make([]byte, len(b), len(b)+n)
		copy(a.b, b)
	}
	a.b = append(a.b, `{"dim":`...)
	a.b = strconv.AppendInt(a.b, int64(r.dim), 10)
	if len(r.intervals) > 0 {
		a.b = append(a.b, `,"intervals":[`...)
		for i := range r.intervals {
			if i > 0 {
				a.b = append(a.b, ',')
			}
			a.floats(r.intervals[i][:])
		}
		a.b = append(a.b, ']')
	}
	if len(r.cells) > 0 {
		a.b = append(a.b, `,"cells":[`...)
		for i, c := range r.cells {
			if i > 0 {
				a.b = append(a.b, ',')
			}
			a.cell(c)
		}
		a.b = append(a.b, ']')
	}
	a.b = append(a.b, '}')
	if a.err != nil {
		return b, a.err
	}
	return a.b, nil
}

// maxFloatJSON bounds the bytes float writes for one finite float64: a
// sign, "0.00000" and 17 significant digits for |x| just above 1e-6, the
// longest 'f' form, against at most 24 for any 'e' form.
const maxFloatJSON = 25

// jsonBound returns an upper bound on the length of r's encoding, from its
// counts of intervals, cells, constraints and vertices.
func (r *Region) jsonBound() int {
	const (
		head       = len(`{"dim":,"intervals":[],"cells":[]}`) + 20 // and the dim's digits
		interval   = len(`[,],`) + 2*maxFloatJSON
		cell       = len(`{"constraints":[],"vertices":[]},`)
		constraint = len(`{"normal":[],"sign":-1},`)
		vertex     = len(`[],`)
	)
	perFloat := maxFloatJSON + len(",")
	n := head + len(r.intervals)*interval
	for _, c := range r.cells {
		n += cell + c.NumConstraints()*(constraint+r.dim*perFloat) + c.NumVertices()*(vertex+r.dim*perFloat)
	}
	return n
}

// jsonAppender accumulates one encoding and its first error.
type jsonAppender struct {
	b   []byte
	err error
}

func (a *jsonAppender) cell(c *geom.Cell) {
	a.b = append(a.b, `{"constraints":[`...)
	first := true
	c.EachConstraint(func(con geom.Constraint) {
		if !first {
			a.b = append(a.b, ',')
		}
		first = false
		a.b = append(a.b, `{"normal":`...)
		a.floats(con.H.Normal)
		a.b = append(a.b, `,"sign":`...)
		a.b = strconv.AppendInt(a.b, int64(con.Sign), 10)
		a.b = append(a.b, '}')
	})
	a.b = append(a.b, `],"vertices":[`...)
	for i := 0; i < c.NumVertices(); i++ {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.floats(c.Vertex(i))
	}
	a.b = append(a.b, "]}"...)
}

// floats writes xs as a JSON array.
func (a *jsonAppender) floats(xs []float64) {
	a.b = append(a.b, '[')
	for i, x := range xs {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.float(x)
	}
	a.b = append(a.b, ']')
}

// float formats x as encoding/json does: the shortest representation that
// round-trips, in 'f' form unless |x| < 1e-6 or |x| ≥ 1e21, with the
// exponent's leading zero dropped ("1e-07" → "1e-7").
func (a *jsonAppender) float(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if a.err == nil {
			a.err = &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, x, format, -1, 64)
	if format == 'e' {
		if n := len(a.b); n >= 4 && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
			a.b[n-2] = a.b[n-1]
			a.b = a.b[:n-1]
		}
	}
}

// UnmarshalJSON decodes a region previously produced by MarshalJSON. Cells
// are reconstructed as constraint sets; the disjointness flag is
// conservatively dropped (measure falls back to Monte-Carlo in d ≥ 3).
// Input that MarshalJSON cannot have produced is an error: dim < 2,
// intervals outside d = 2, a normal or vertex whose length is not dim, a
// zero or overflowing normal, a sign other than ±1, or a cell with fewer
// than dim vertices. The last check bounds the O(d²) simplex each cell
// starts from by the input's own size. Non-finite values cannot arrive:
// encoding/json rejects numbers outside the float64 range.
func (r *Region) UnmarshalJSON(data []byte) error {
	var in regionJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if err := in.validate(); err != nil {
		return err
	}
	r.dim = in.Dim
	r.intervals = in.Intervals
	r.cells = nil
	r.disjoint = false
	for _, cj := range in.Cells {
		cell := geom.NewSimplex(in.Dim)
		for i, con := range cj.Constraints {
			cell = cell.Clip(geom.NewHyperplane(con.Normal, i), con.Sign)
			if cell == nil {
				break
			}
		}
		// A cell that clips to nothing, or to fewer than d extreme points,
		// has no interior after the round trip; drop it.
		if cell != nil && cell.NumVertices() >= in.Dim {
			r.cells = append(r.cells, cell)
		}
	}
	return nil
}

// validate rejects a decoded wire form that no encoding of a Region
// produces; see UnmarshalJSON.
func (in *regionJSON) validate() error {
	d := in.Dim
	if d < 2 {
		return fmt.Errorf("core: region JSON: dim %d < 2", d)
	}
	if len(in.Intervals) > 0 && d != 2 {
		return fmt.Errorf("core: region JSON: intervals in dimension %d, want 2", d)
	}
	for i, cj := range in.Cells {
		if len(cj.Vertices) < d {
			return fmt.Errorf("core: region JSON: cell %d has %d vertices, want at least dim %d", i, len(cj.Vertices), d)
		}
		for j, v := range cj.Vertices {
			if len(v) != d {
				return fmt.Errorf("core: region JSON: cell %d vertex %d has %d coordinates, want %d", i, j, len(v), d)
			}
		}
		for j, con := range cj.Constraints {
			if con.Sign != 1 && con.Sign != -1 {
				return fmt.Errorf("core: region JSON: cell %d constraint %d: sign %d, want ±1", i, j, con.Sign)
			}
			if len(con.Normal) != d {
				return fmt.Errorf("core: region JSON: cell %d constraint %d: normal has %d coordinates, want %d", i, j, len(con.Normal), d)
			}
			if n := vec.Vec(con.Normal).Norm(); n < vec.Eps || math.IsInf(n, 0) {
				return fmt.Errorf("core: region JSON: cell %d constraint %d: normal of norm %g", i, j, n)
			}
		}
	}
	return nil
}
