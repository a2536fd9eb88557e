// Package pile is bump allocation in reusable chunks. A Pile hands out
// slices carved from a list of chunks that never move, so what it handed
// out stays valid while the Pile grows; Reset rewinds it for reuse without
// freeing the chunks. The solvers keep per-solve scratch structures (cells,
// tree nodes, lazy plane lists) in Piles owned by pooled arenas, so a warm
// solve allocates none of them.
package pile

import "unsafe"

// maxChunk caps the elements of one growth chunk; a single request larger
// than it still gets a chunk of its own size.
const maxChunk = 1 << 16

// Pile is a chunked bump allocator for T. The zero value is empty and ready
// to use. A Pile is not safe for concurrent use, but slices it handed out
// may be read and written by any goroutine the caller orders with the
// Pile's owner: the Pile never touches a handed-out element again until
// Reset.
type Pile[T any] struct {
	// The first chunk has a field of its own, so a Pile that never grows
	// past it makes one allocation, not two. len of a chunk is its used
	// prefix.
	head []T
	more [][]T
	cur  int // chunk the next Take carves from: 0 is head, i is more[i−1]
}

// chunk returns chunk i; i ≤ len(p.more).
func (p *Pile[T]) chunk(i int) *[]T {
	if i == 0 {
		return &p.head
	}
	return &p.more[i-1]
}

// Take returns n zeroed elements as a slice of length and capacity n, so an
// append to it reallocates instead of spilling into a neighbour.
func (p *Pile[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	p.Reserve(n)
	c := p.chunk(p.cur)
	l := len(*c)
	*c = (*c)[:l+n]
	return (*c)[l : l+n : l+n]
}

// Reserve makes sure the next Takes of n elements in total fit in one
// chunk: it moves to the first later chunk with room, or adds a chunk of n
// elements or twice the last chunk's size (up to maxChunk), whichever is
// larger. A Pile whose first call is a Reserve of its whole need therefore
// makes exactly one allocation of exactly that size.
func (p *Pile[T]) Reserve(n int) {
	if n == 0 {
		return
	}
	for ; p.cur <= len(p.more); p.cur++ {
		if c := *p.chunk(p.cur); cap(c)-len(c) >= n {
			return
		}
	}
	if p.head == nil {
		p.head, p.cur = make([]T, 0, n), 0
		return
	}
	last := *p.chunk(len(p.more))
	p.more = append(p.more, make([]T, 0, max(n, min(2*cap(last), maxChunk))))
	p.cur = len(p.more)
}

// Reset zeroes every element handed out and rewinds the Pile to its first
// chunk, keeping the chunks for reuse. Nothing handed out before may be
// used afterwards.
func (p *Pile[T]) Reset() {
	for i := 0; i <= len(p.more); i++ {
		c := p.chunk(i)
		clear(*c)
		*c = (*c)[:0]
	}
	p.cur = 0
}

// Bytes returns the capacity of every chunk, in bytes: what the Pile pins,
// which depends on every Take since it was made.
func (p *Pile[T]) Bytes() int {
	var zero T
	n := 0
	for i := 0; i <= len(p.more); i++ {
		n += cap(*p.chunk(i))
	}
	return n * int(unsafe.Sizeof(zero))
}

// Used returns the bytes handed out by Take since the last Reset, which
// depends on those Takes alone, not on the chunks earlier use left behind.
func (p *Pile[T]) Used() int {
	var zero T
	n := 0
	for i := 0; i <= len(p.more); i++ {
		n += len(*p.chunk(i))
	}
	return n * int(unsafe.Sizeof(zero))
}
