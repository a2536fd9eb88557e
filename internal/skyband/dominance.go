package skyband

import (
	"math"
	"math/bits"
	"slices"

	"rrq/internal/vec"
)

// Counter counts exact dominance relations inside one point set: for each
// point, how many points dominate it (Dominators) and how many it
// dominates (Dominated), under Dominates' definition. The zero value is
// ready to use; a Counter keeps its buffers between Resets, so a reused one
// counts without allocating once they have grown to the working-set size.
// A Counter is not safe for concurrent use.
//
// Method. Points are ranked lexicographically descending over all
// coordinates. A dominator is at least as large everywhere and differs
// somewhere, so it ranks strictly before p's duplicate run, and every point
// ranked there is at least as large as p in coordinate 0. So p's
// dominators are the lexicographic ranks before its run whose coordinates
// 1..d−1 are all ≥ p's — the AND over those dimensions of the "value ≥
// p[t]" rank sets, cut at the run's start (which leaves out p itself and
// its exact duplicates). Symmetrically, the points p dominates are the
// ranks after its run whose coordinates are all ≤ p's. Both directions come
// from one sort per dimension: a "value ≥ x" set is a prefix of the
// dimension's descending order and a "value ≤ x" set is the complement of
// one, and every stride-th prefix is checkpointed as a bitset over
// lexicographic ranks. A query takes the nearest checkpoint and clears the
// at most stride points between it and the exact prefix, so one count costs
// (d−1)·(n/64 + stride) word operations, and all n of them about
// n·(d−1)·(n/64 + stride). The stride grows with n so the checkpoints stay
// under maxCheckpointBytes.
type Counter struct {
	n, d   int
	stride int // checkpoint spacing
	words  int // 64-bit words per bitset
	cps    int // checkpoints per dimension: prefixes 0, stride, 2·stride, …, n

	lex    []int32 // lex[r]: the point at lexicographic-descending rank r
	pos    []int32 // pos[i]: point i's lexicographic rank
	lo, hi []int32 // per rank: the ranks [lo, hi) of its duplicate run
	// Per dimension t = 1..d−1, row t−1 of length n:
	ord []int32 // lexicographic ranks by coordinate t, descending
	ge  []int32 // per rank: the number of points whose coordinate t is ≥ its own
	gt  []int32 // per rank: the number whose coordinate t is > its own

	ckpt  []uint64 // per dimension, cps bitsets of words words: checkpoint c holds ord[:min(c·stride, n)]
	acc   []uint64
	pairs []keyRank // sort buffer and its radix-sort twin
	spare []keyRank

	stop Stopper
	work int // units of work since the last poll
}

// keyRank is one sort entry: an index beside the descending-order key of
// one of its coordinates (see descKey).
type keyRank struct {
	k uint64
	r int32
}

// Stopper lets a caller abort a long count: Stop counts one unit of work
// and reports whether the count should stop.
type Stopper interface {
	Stop() bool
}

// StopStride is the number of units of work per Stopper poll.
const StopStride = 32

// maxCheckpointBytes caps the checkpoint bitsets of one Counter.
const maxCheckpointBytes = 4 << 20

// Reset indexes pts for counting; the points must share one dimension and
// be free of NaNs, and must not change until the next Reset. stop, when
// non-nil, is polled about once every StopStride units of work (a word
// operation each) through this Reset and the counts that follow it; Reset
// and the counts report false once it has returned true.
func (c *Counter) Reset(pts []vec.Vec, stop Stopper) bool {
	return c.reset(pts, strideFor(len(pts), dimOf(pts)), stop)
}

// countWork estimates what a Reset and one full count over n points in d
// dimensions cost, in units that each took about 5 ns on a 2-vCPU x86-64
// machine across n = 100…20000 and d = 2…6: a Reset is about ten units per
// coordinate (7–13 measured; its radix passes do not grow with log n), a
// bitset word operation about half of one.
func countWork(n, d int) int {
	return 10*n*d + n*(d-1)*(n/128+strideFor(n, d)/2)/2
}

func dimOf(pts []vec.Vec) int {
	if len(pts) == 0 {
		return 0
	}
	return len(pts[0])
}

// strideFor is the checkpoint spacing for n points in d dimensions. One
// count clears about stride/2 points per dimension, and the checkpoints
// cost n/stride bitsets of n/64 words per dimension to build, so the
// spacing starts at the largest power of two ≤ √(n/32), which balances the
// two, and doubles until the checkpoints fit maxCheckpointBytes.
func strideFor(n, d int) int {
	stride := 1
	for 32*(2*stride)*(2*stride) <= n {
		stride *= 2
	}
	words := (n + 63) / 64
	for d > 1 && stride < n && 8*(d-1)*((n+stride-1)/stride+1)*words > maxCheckpointBytes {
		stride *= 2
	}
	return stride
}

func (c *Counter) reset(pts []vec.Vec, stride int, stop Stopper) bool {
	n, d := len(pts), dimOf(pts)
	c.n, c.d, c.stride, c.stop, c.work = n, d, stride, stop, 0
	c.lex = grow32(c.lex, n)
	c.pos = grow32(c.pos, n)
	c.lo = grow32(c.lo, n)
	c.hi = grow32(c.hi, n)
	if cap(c.pairs) < n {
		c.pairs, c.spare = make([]keyRank, n), make([]keyRank, n)
	}
	// Sort on coordinate 0 held beside the index; only its ties look further.
	pairs := c.pairs[:n]
	for i, p := range pts {
		pairs[i] = keyRank{descKey(p[0]), int32(i)}
	}
	pairs = c.sortKeys(pairs)
	for a := 0; a < n; {
		b := a + 1
		for b < n && pairs[b].k == pairs[a].k {
			b++
		}
		if b-a > 1 {
			slices.SortFunc(pairs[a:b], func(x, y keyRank) int { return lexCmp(pts[y.r], pts[x.r]) })
		}
		a = b
	}
	for r, pr := range pairs {
		c.lex[r] = pr.r
		c.pos[pr.r] = int32(r)
	}
	for a := 0; a < n; {
		b := a + 1
		for b < n && lexCmp(pts[c.lex[a]], pts[c.lex[b]]) == 0 {
			b++
		}
		for r := a; r < b; r++ {
			c.lo[r], c.hi[r] = int32(a), int32(b)
		}
		a = b
	}
	if c.charge(n * d) {
		return false
	}
	if d < 2 {
		return true
	}

	rows := (d - 1) * n
	c.ord = grow32(c.ord, rows)
	c.ge = grow32(c.ge, rows)
	c.gt = grow32(c.gt, rows)
	c.words = (n + 63) / 64
	c.cps = (n+stride-1)/stride + 1
	c.ckpt = grow64(c.ckpt, (d-1)*c.cps*c.words)
	c.acc = grow64(c.acc, c.words)
	for t := 1; t < d; t++ {
		pairs := c.pairs[:n]
		for r, i := range c.lex {
			pairs[r] = keyRank{descKey(pts[i][t]), int32(r)}
		}
		pairs = c.sortKeys(pairs)
		row := (t - 1) * n
		ord, ge, gt := c.ord[row:row+n], c.ge[row:row+n], c.gt[row:row+n]
		for a := 0; a < n; {
			b := a + 1
			for b < n && pairs[b].k == pairs[a].k {
				b++
			}
			for j := a; j < b; j++ {
				r := pairs[j].r
				ord[j], ge[r], gt[r] = r, int32(b), int32(a)
			}
			a = b
		}
		// Checkpoint c is checkpoint c−1 plus the stride ranks after it.
		block := c.ckpt[(t-1)*c.cps*c.words : t*c.cps*c.words]
		clear(block[:c.words])
		for k := 1; k < c.cps; k++ {
			cur := block[k*c.words : (k+1)*c.words]
			copy(cur, block[(k-1)*c.words:k*c.words])
			for _, r := range ord[(k-1)*stride : min(k*stride, n)] {
				cur[r>>6] |= 1 << (r & 63)
			}
		}
		if c.charge(c.cps*c.words + n) {
			return false
		}
	}
	return true
}

// charge adds work units and polls the stopper once per StopStride of
// them; it reports whether the count must stop.
func (c *Counter) charge(work int) bool {
	if c.stop == nil {
		return false
	}
	for c.work += work; c.work >= StopStride; c.work -= StopStride {
		if c.stop.Stop() {
			return true
		}
	}
	return false
}

// Dominators sets out[j] to the number of points dominating point idx[j] —
// for every point, out[i] for point i, when idx is nil. It reports false if
// the stopper ended the count; out is then partial.
func (c *Counter) Dominators(idx, out []int) bool {
	return c.count(idx, out, c.dominators)
}

// Dominated is Dominators in the other direction: the number of points
// that each point dominates.
func (c *Counter) Dominated(idx, out []int) bool {
	return c.count(idx, out, c.dominated)
}

func (c *Counter) count(idx, out []int, one func(r int) (int, int)) bool {
	n := len(idx)
	if idx == nil {
		n = c.n
	}
	for j := 0; j < n; j++ {
		i := j
		if idx != nil {
			i = idx[j]
		}
		cnt, work := one(int(c.pos[i]))
		out[j] = cnt
		if c.charge(work) {
			return false
		}
	}
	return true
}

// dominators returns the number of points dominating the point at
// lexicographic rank r, and the work spent.
func (c *Counter) dominators(r int) (int, int) {
	s := int(c.lo[r])
	if s == 0 || c.d < 2 {
		return s, 1
	}
	n, stride := c.n, c.stride
	nw := (s + 63) >> 6
	acc := c.acc[:nw]
	work := 0
	for t := 0; t < c.d-1; t++ {
		row := t * n
		l := int(c.ge[row+r])
		k := (l + stride - 1) / stride
		base := c.ckpt[(t*c.cps+k)*c.words:][:nw]
		if t == 0 {
			copy(acc, base)
		} else {
			for w, x := range base {
				acc[w] &= x
			}
		}
		// The checkpoint overshoots the exact prefix by the ranks [l, k·stride).
		extra := c.ord[row+l : row+min(k*stride, n)]
		for _, b := range extra {
			if int(b) < s {
				acc[b>>6] &^= 1 << (b & 63)
			}
		}
		work += nw + len(extra)
	}
	if s&63 != 0 {
		acc[nw-1] &= 1<<(s&63) - 1
	}
	return popcount(acc), work
}

// dominated returns the number of points the point at lexicographic rank r
// dominates, and the work spent.
func (c *Counter) dominated(r int) (int, int) {
	n := c.n
	e := int(c.hi[r])
	if e == n || c.d < 2 {
		return n - e, 1
	}
	stride := c.stride
	w0 := e >> 6
	acc := c.acc[w0:c.words]
	work := 0
	for t := 0; t < c.d-1; t++ {
		row := t * n
		g := int(c.gt[row+r])
		k := g / stride
		base := c.ckpt[(t*c.cps+k)*c.words:][w0:c.words]
		if t == 0 {
			for w, x := range base {
				acc[w] = ^x
			}
		} else {
			for w, x := range base {
				acc[w] &^= x
			}
		}
		// The complement of the checkpoint still holds the ranks
		// [k·stride, g), whose coordinate t exceeds the point's.
		extra := c.ord[row+k*stride : row+g]
		for _, b := range extra {
			if int(b) >= e {
				acc[int(b>>6)-w0] &^= 1 << (b & 63)
			}
		}
		work += len(acc) + len(extra)
	}
	acc[0] &^= 1<<(e&63) - 1
	if n&63 != 0 {
		acc[len(acc)-1] &= 1<<(n&63) - 1
	}
	return popcount(acc), work
}

// lexCmp orders points lexicographically, coordinate by coordinate.
func lexCmp(a, b vec.Vec) int {
	for t, x := range a {
		switch {
		case x < b[t]:
			return -1
		case x > b[t]:
			return 1
		}
	}
	return 0
}

// descKey maps x to a key whose ascending order is x's descending order:
// the IEEE bits with the sign bit flipped on positives and every bit flipped
// on negatives order as the values do, and the complement reverses that.
// −0 maps as +0, so equal values get equal keys; NaN is excluded by Reset's
// contract.
func descKey(x float64) uint64 {
	if x == 0 {
		x = 0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return b
	}
	return ^(b | 1<<63)
}

// sortKeys sorts pairs (a prefix of c.pairs) by ascending key with a
// least-significant-digit radix sort over 8-bit digits, ping-ponging with
// c.spare; a digit every key shares is skipped. It returns the sorted
// entries, which may live in either buffer, and leaves c.pairs and c.spare
// naming the buffers so the next sort can reuse both. Equal keys keep no
// particular order.
func (c *Counter) sortKeys(pairs []keyRank) []keyRank {
	n := len(pairs)
	if n < 2 {
		return pairs
	}
	var counts [8][256]int32
	for _, e := range pairs {
		k := e.k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := pairs, c.spare[:n]
	for d := range counts {
		cnt := &counts[d]
		if cnt[byte(src[0].k>>(8*d))] == int32(n) {
			continue
		}
		var sum int32
		for i, x := range cnt {
			cnt[i] = sum
			sum += x
		}
		shift := 8 * d
		for _, e := range src {
			b := byte(e.k >> shift)
			dst[cnt[b]] = e
			cnt[b]++
		}
		src, dst = dst, src
	}
	c.pairs, c.spare = src[:cap(src)], dst[:cap(dst)]
	return src
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func grow64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
