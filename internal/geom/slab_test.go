package geom

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rrq/internal/vec"
)

// refine splits root by planes, E-PT style: every cell a plane crosses is
// split by split and both sides are kept. It returns the leaves and the
// number of splits.
func refine(root *Cell, planes []Hyperplane, split func(*Cell, *Hyperplane) (*Cell, *Cell)) ([]*Cell, int) {
	cells := []*Cell{root}
	splits := 0
	for i := range planes {
		h := &planes[i]
		next := cells[:0:0]
		for _, c := range cells {
			if c.Relation(*h) != RelCross {
				next = append(next, c)
				continue
			}
			neg, pos := split(c, h)
			if neg != nil && pos != nil {
				splits++
			}
			for _, x := range []*Cell{neg, pos} {
				if x != nil {
					next = append(next, x)
				}
			}
		}
		cells = next
	}
	return cells, splits
}

// Once a slab has grown to a refinement's size, repeating the refinement
// after Reset allocates nothing in the split kernel: vertices, tight sets,
// facets, constraint records and the cells themselves all come from the
// slab, and so does the kernel's scratch.
func TestSplitIntoZeroAlloc(t *testing.T) {
	planes := randPlanes(6, 4, 21)
	var s Slab
	root := NewSimplexIn(4, &s)
	type cut struct {
		c *Cell
		h Hyperplane
	}
	// Fix the sequence of splits once, so the measured runs repeat it.
	var cuts []cut
	cells := []*Cell{root}
	for _, h := range planes {
		var next []*Cell
		for _, c := range cells {
			if c.Relation(h) != RelCross {
				next = append(next, c)
				continue
			}
			cuts = append(cuts, cut{c, h})
			neg, pos := c.Split(h)
			for _, x := range []*Cell{neg, pos} {
				if x != nil {
					next = append(next, x)
				}
			}
		}
		cells = next
	}
	if len(cuts) < 10 {
		t.Fatalf("only %d splits; test is vacuous", len(cuts))
	}
	var warm Slab
	run := func() {
		warm.Reset()
		for i := range cuts {
			cuts[i].c.SplitInto(&cuts[i].h, &warm)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("%d splits into a warm slab allocate %.1f per run, want 0", len(cuts), n)
	}
}

// clonePlanes copies planes with normals of their own.
func clonePlanes(planes []Hyperplane) []Hyperplane {
	out := append([]Hyperplane(nil), planes...)
	for i := range out {
		out[i].Normal = out[i].Normal.Clone()
	}
	return out
}

// A split into a caller's slab builds the same cells as Split, and Compact
// copies them exactly: same vertices, constraints and sphere tests, sibling
// copies still sharing their parent's constraint records, one header per
// distinct plane, and nothing aliasing the source slab or the caller's
// planes, which may then be reset, reused and overwritten.
func TestCompactCopiesExactly(t *testing.T) {
	planes := randPlanes(7, 4, 5)
	var s Slab
	into := func(c *Cell, h *Hyperplane) (*Cell, *Cell) { return c.SplitInto(h, &s) }
	leaves, splits := refine(NewSimplexIn(4, &s), planes, into)
	if splits < 10 || len(leaves) < 10 {
		t.Fatalf("%d splits and %d leaves; test is vacuous", splits, len(leaves))
	}
	type snap struct {
		verts   []vec.Vec
		cons    []Constraint
		ctr     vec.Vec
		in, out float64
		str     string
	}
	take := func(c *Cell) snap {
		cons := c.Constraints()
		for i := range cons {
			cons[i].H.Normal = cons[i].H.Normal.Clone()
		}
		return snap{c.Vertices(), cons, c.Center().Clone(), c.InnerRadius(), c.OuterRadius(), c.String()}
	}
	// The same refinement through Split, each step in a fresh slab, on
	// planes of its own.
	heap, _ := refine(NewSimplex(4), clonePlanes(planes), func(c *Cell, h *Hyperplane) (*Cell, *Cell) { return c.Split(*h) })
	if len(heap) != len(leaves) {
		t.Fatalf("Split made %d leaves, SplitInto %d", len(heap), len(leaves))
	}
	want := make([]snap, len(leaves))
	for i, c := range leaves {
		want[i] = take(c)
		if got := take(heap[i]); got.str != want[i].str || len(got.cons) != len(want[i].cons) {
			t.Fatalf("leaf %d: Split gives %s, SplitInto %s", i, got.str, want[i].str)
		}
	}

	copies := Compact(leaves)
	s.Reset()
	refine(NewSimplexIn(4, &s), randPlanes(7, 4, 99), into) // overwrite the source slab
	for i := range planes {                                 // and the caller's normals
		for j := range planes[i].Normal {
			planes[i].Normal[j] = 7
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i, c := range copies {
		got := take(c)
		if got.str != want[i].str || got.in != want[i].in || got.out != want[i].out || !got.ctr.Equal(want[i].ctr, 0) {
			t.Fatalf("copy %d: %s (radii %v %v), want %s (radii %v %v)", i, got.str, got.in, got.out, want[i].str, want[i].in, want[i].out)
		}
		for j, con := range got.cons {
			if con.Sign != want[i].cons[j].Sign || con.H.ID != want[i].cons[j].H.ID || !con.H.Normal.Equal(want[i].cons[j].H.Normal, 0) {
				t.Fatalf("copy %d constraint %d differs", i, j)
			}
		}
		for _, h := range randPlanes(8, 4, int64(i)) {
			if c.Relation(h) != heap[i].Relation(h) {
				t.Fatalf("copy %d relates to %v unlike its source", i, h)
			}
		}
		if u := c.SamplePoint(rng); !heap[i].Contains(u) {
			t.Fatalf("copy %d samples %v outside its source", i, u)
		}
	}
	// Siblings of the last split share every record but their own.
	shared := 0
	for i := 1; i < len(copies); i++ {
		if copies[i].cons.prev != nil && copies[i].cons.prev == copies[i-1].cons.prev {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two copies share a constraint record; Compact duplicated shared prefixes")
	}
	// Every record of one plane points at the same header, a copy.
	headers := map[int]*Hyperplane{}
	distinct := map[*Hyperplane]bool{}
	for _, c := range copies {
		for r := c.cons; r != nil; r = r.prev {
			if r.fwd != nil {
				t.Fatal("Compact left a forwarding mark behind")
			}
			if h, ok := headers[r.h.ID]; ok && h != r.h {
				t.Fatalf("plane %d has two headers among the copies", r.h.ID)
			}
			if r.h == &planes[r.h.ID] {
				t.Fatalf("a copy's record points at the caller's plane %d", r.h.ID)
			}
			headers[r.h.ID] = r.h
			distinct[r.h] = true
		}
	}
	if len(headers) < 5 || len(distinct) != len(headers) {
		t.Fatalf("copies hold %d headers for %d distinct planes", len(distinct), len(headers))
	}
}

// A compacted cell reads like its source — Contains, Relation, vertices,
// constraints, spheres and String — but has no split state, so a crossing
// Split, SplitInto or Clip of it panics, naming Compact.
func TestCompactedCellReadOnly(t *testing.T) {
	planes := randPlanes(6, 3, 8)
	var s Slab
	leaves, _ := refine(NewSimplexIn(3, &s), planes, func(c *Cell, h *Hyperplane) (*Cell, *Cell) { return c.SplitInto(h, &s) })
	copies := Compact(leaves)
	if len(copies) < 5 {
		t.Fatalf("%d cells; test is vacuous", len(copies))
	}
	rng := rand.New(rand.NewSource(9))
	probes := randPlanes(40, 3, 10)
	crossed := 0
	for i, c := range copies {
		src := leaves[i]
		if c.String() != src.String() || !reflect.DeepEqual(c.Vertices(), src.Vertices()) ||
			!reflect.DeepEqual(c.Constraints(), src.Constraints()) || c.NumConstraints() != src.NumConstraints() ||
			c.InnerRadius() != src.InnerRadius() || c.OuterRadius() != src.OuterRadius() {
			t.Fatalf("copy %d reads %s, its source %s", i, c, src)
		}
		for range 20 {
			u := vec.RandSimplex(rng, 3)
			if c.Contains(u) != src.Contains(u) {
				t.Fatalf("copy %d and its source disagree on %v", i, u)
			}
		}
		crossing := -1
		for j, h := range probes {
			if r := c.Relation(h); r != src.Relation(h) {
				t.Fatalf("copy %d relates to %v as %v, its source as %v", i, h, r, src.Relation(h))
			} else if r == RelCross && crossing < 0 {
				crossing = j
			}
		}
		if crossing < 0 {
			continue
		}
		crossed++
		h := probes[crossing]
		for name, split := range map[string]func(){
			"Split":     func() { c.Split(h) },
			"SplitInto": func() { c.SplitInto(&h, new(Slab)) },
			"Clip":      func() { c.Clip(h, +1) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "Compact") {
						t.Fatalf("%s of compacted cell %d: recovered %q, want a panic naming Compact", name, i, msg)
					}
				}()
				split()
			}()
		}
	}
	if crossed == 0 {
		t.Fatal("no probe crosses a compacted cell; the panic checks are vacuous")
	}
}
