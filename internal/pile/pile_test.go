package pile

import "testing"

func TestTakeIsZeroedAndCapped(t *testing.T) {
	var p Pile[int]
	a := p.Take(3)
	if len(a) != 3 || cap(a) != 3 {
		t.Fatalf("Take(3) has len %d cap %d, want 3 and 3", len(a), cap(a))
	}
	a[0], a[1], a[2] = 1, 2, 3
	b := p.Take(2)
	b[0] = 9
	// An append past a run's capacity must not spill into the next run.
	a = append(a, 4)
	if b[0] != 9 {
		t.Fatalf("append to one run overwrote the next: %v", b)
	}
	p.Reset()
	for i, x := range p.Take(5) {
		if x != 0 {
			t.Fatalf("after Reset, element %d is %d, want 0", i, x)
		}
	}
	if p.Take(0) != nil {
		t.Fatal("Take(0) returned a non-nil slice")
	}
}

// A Pile reserved up front makes one allocation of exactly the reserved
// size, and a warm Pile reuses its chunks after Reset without allocating.
func TestReserveExactAndResetZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() {
		var p Pile[float64]
		p.Reserve(100)
		p.Take(60)
		p.Take(40)
		if p.Bytes() != 800 {
			panic("reserve did not size the chunk exactly")
		}
	}); n != 1 {
		t.Fatalf("reserved Pile allocates %.1f times, want 1", n)
	}
	var p Pile[int32]
	fill := func() {
		for i := 0; i < 200; i++ {
			p.Take(1 + i%7)
		}
		p.Reset()
	}
	fill()
	if n := testing.AllocsPerRun(10, fill); n != 0 {
		t.Fatalf("warm Pile allocates %.1f per refill, want 0", n)
	}
}

// Handed-out runs never move: growing the Pile adds chunks instead of
// copying old ones.
func TestRunsStayPut(t *testing.T) {
	var p Pile[int]
	first := p.Take(1)
	first[0] = 42
	for i := 0; i < 1000; i++ {
		p.Take(3)
	}
	first[0]++
	if p.head[0] != 43 {
		t.Fatal("the first run moved when the Pile grew")
	}
}

// Used counts what Take handed out since the last Reset, whatever capacity
// the Pile kept from earlier use; Bytes counts that capacity.
func TestUsedIgnoresHistory(t *testing.T) {
	take := func(p *Pile[int64]) {
		for i := 0; i < 50; i++ {
			p.Take(1 + i%3)
		}
	}
	var fresh, grown Pile[int64]
	take(&fresh)
	grown.Take(10000)
	grown.Reset()
	take(&grown)
	if fresh.Used() != 8*99 || grown.Used() != fresh.Used() {
		t.Fatalf("Used = %d fresh, %d grown, want %d both", fresh.Used(), grown.Used(), 8*99)
	}
	if grown.Bytes() <= fresh.Bytes() {
		t.Fatalf("grown Pile holds %d bytes, fresh %d: want more", grown.Bytes(), fresh.Bytes())
	}
	grown.Reset()
	if grown.Used() != 0 {
		t.Fatalf("Used = %d after Reset, want 0", grown.Used())
	}
}
