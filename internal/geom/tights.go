package geom

import "sort"

// tightSet is a sorted slice of constraint identifiers that are tight
// (satisfied with equality) at a vertex. Identifiers 0..d−1 denote the
// simplex bounds u[i] ≥ 0; a cut by hyper-plane h contributes d + h.ID.
// Cells keep their vertices' sets back to back in one int32 slice, so the
// set operations append their result to a caller-given buffer instead of
// allocating one.
type tightSet []int32

func newTightSet(ids ...int32) tightSet {
	s := append(tightSet(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// has reports membership.
func (s tightSet) has(id int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// appendWith appends s ∪ {id} to dst.
func (s tightSet) appendWith(dst []int32, id int32) []int32 {
	inserted := false
	for _, x := range s {
		if !inserted && id <= x {
			if id < x {
				dst = append(dst, id)
			}
			inserted = true
		}
		dst = append(dst, x)
	}
	if !inserted {
		dst = append(dst, id)
	}
	return dst
}

// intersectCount returns |s ∩ t| for two sorted sets.
func (s tightSet) intersectCount(t tightSet) int {
	i, j, n := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// appendIntersectWith appends (s ∩ t) ∪ {id} to dst — the tight set of the
// point where the edge between two vertices meets the plane with id.
func (s tightSet) appendIntersectWith(dst []int32, t tightSet, id int32) []int32 {
	inserted := false
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			x := s[i]
			if !inserted && id <= x {
				if id < x {
					dst = append(dst, id)
				}
				inserted = true
			}
			dst = append(dst, x)
			i++
			j++
		}
	}
	if !inserted {
		dst = append(dst, id)
	}
	return dst
}

// appendUnion appends s ∪ t to dst. Either set may alias dst's contents:
// appending never writes below len(dst).
func (s tightSet) appendUnion(dst []int32, t tightSet) []int32 {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			dst = append(dst, s[i])
			i++
		case s[i] > t[j]:
			dst = append(dst, t[j])
			j++
		default:
			dst = append(dst, s[i])
			i++
			j++
		}
	}
	dst = append(dst, s[i:]...)
	dst = append(dst, t[j:]...)
	return dst
}
