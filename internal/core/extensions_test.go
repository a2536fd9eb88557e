package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"rrq/internal/vec"
)

func TestFilterCustomers(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 2, Eps: 0.1}
	customers := []vec.Vec{
		vec.Of(0.5, 0.5),   // qualifies (Example 3.3)
		vec.Of(0.99, 0.01), // deep in p2/p3 territory
		vec.Of(0.05, 0.95),
	}
	got, err := FilterCustomers(pts, q, customers)
	if err != nil {
		t.Fatal(err)
	}
	found := map[int]bool{}
	for _, i := range got {
		found[i] = true
	}
	if !found[0] {
		t.Error("customer 0 must qualify")
	}
	// Every returned customer must agree with the continuous region.
	reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range customers {
		if found[i] != reg.Contains(u) {
			t.Errorf("customer %d: discrete=%v region=%v", i, found[i], reg.Contains(u))
		}
	}
}

func TestFilterCustomersErrors(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 0, Eps: 0.1}
	if _, err := FilterCustomers(pts, q, nil); err == nil {
		t.Error("invalid query accepted")
	}
	q.K = 1
	if _, err := FilterCustomers(pts, q, []vec.Vec{vec.Of(1, 0, 0)}); err == nil {
		t.Error("mismatched customer dimension accepted")
	}
}

func TestQueryValidateRejectsNaN(t *testing.T) {
	bad := []Query{
		{Q: vec.Of(math.NaN(), 0.5), K: 1, Eps: 0.1},
		{Q: vec.Of(math.Inf(1), 0.5), K: 1, Eps: 0.1},
		{Q: vec.Of(0.5, 0.5), K: 1, Eps: math.NaN()},
	}
	for i, q := range bad {
		if err := q.Validate(2); err == nil {
			t.Errorf("case %d: NaN/Inf accepted", i)
		}
	}
}

// Parallel A-PC must return exactly the serial answer.
func TestAPCParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3333))
	for trial := 0; trial < 10; trial++ {
		pts, q := randomInstance(rng, 40, 3)
		serial, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 80, Seed: 5}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		parallel, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 80, Seed: 5, Workers: 8}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		if serial.NumPieces() != parallel.NumPieces() {
			t.Fatalf("piece counts differ: %d vs %d", serial.NumPieces(), parallel.NumPieces())
		}
		for i := 0; i < 300; i++ {
			u := vec.RandSimplex(rng, 3)
			if serial.Contains(u) != parallel.Contains(u) {
				t.Fatalf("parallel A-PC diverged at %v", u)
			}
		}
	}
}

func TestEPTDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(4444))
	pts, q := randomInstance(rng, 300, 4)
	// A deadline in the past must abort promptly with ErrDeadline.
	past, cancelPast := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelPast()
	_, _, err := solveOn(past, EPTSolver{}, pts, q)
	if !errors.Is(err, ErrDeadline) {
		// Tiny instances can finish before the first deadline check; only
		// accept success when the region was actually computable instantly.
		if err != nil {
			t.Fatalf("err = %v, want ErrDeadline or nil", err)
		}
	}
	// A generous deadline must not interfere.
	future, cancelFuture := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancelFuture()
	reg, _, err := solveOn(future, EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		u := vec.RandSimplex(rng, 4)
		_, margin := CountBetter(pts, q, u)
		if margin < boundaryMargin {
			continue
		}
		if reg.Contains(u) != want.Contains(u) {
			t.Fatal("deadline-enabled run diverged")
		}
	}
}
