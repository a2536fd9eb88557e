package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

func TestRegionJSONRoundTripIntervals(t *testing.T) {
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 1, Eps: 0.1}
	reg, err := Sweeping(pts, q)
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
		reg, err := EPT(pts, q)
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

func TestRegionJSONBadInput(t *testing.T) {
	var r Region
	if err := json.Unmarshal([]byte(`{"dim": `), &r); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
