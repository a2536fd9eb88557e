package main

import "testing"

func TestSelfTime(t *testing.T) {
	at := func(start, end int64) span { return span{Start: start, End: end} }
	for _, tc := range []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", at(0, 100), nil, 100},
		{"one nested child", at(0, 100), []span{at(10, 40)}, 70},
		{"child equals parent", at(5, 50), []span{at(5, 50)}, 0},
		{"disjoint children add", at(0, 100), []span{at(10, 20), at(50, 80)}, 60},
		{"overlapping children count once", at(0, 100), []span{at(10, 50), at(30, 70)}, 40},
		{"contained child counts once", at(0, 100), []span{at(10, 90), at(20, 30)}, 20},
		{"child past the end is clipped", at(0, 100), []span{at(90, 150)}, 90},
		{"child before the start is clipped", at(50, 100), []span{at(0, 60)}, 40},
		{"child outside covers nothing", at(0, 100), []span{at(200, 300)}, 100},
		{"unsorted children", at(0, 100), []span{at(60, 70), at(0, 10)}, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := selfTime(tc.parent, tc.children); got != tc.want {
				t.Fatalf("selfTime = %d, want %d", got, tc.want)
			}
		})
	}
}

// The per-layer split must add up: transport + server self + solve is the
// client's round trip when each span nests in its parent.
func TestSelfTimesSumToClientSpan(t *testing.T) {
	c := span{Name: "client", Start: 0, End: 1000}
	h := span{Name: "handler", Start: 120, End: 900}
	s := span{Name: "solve", Start: 120, End: 520}
	transport, self := selfTime(c, []span{h}), selfTime(h, []span{s})
	if sum := transport + self + s.dur(); sum != c.dur() {
		t.Fatalf("transport %d + self %d + solve %d = %d, want client %d", transport, self, s.dur(), sum, c.dur())
	}
}
