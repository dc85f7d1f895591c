package opt

import (
	"math"
	"reflect"
	"testing"
)

func TestDominates(t *testing.T) {
	a := Point{ID: 0, Metrics: []float64{1, 1}, Feasible: true}
	b := Point{ID: 1, Metrics: []float64{2, 2}, Feasible: true}
	c := Point{ID: 2, Metrics: []float64{1, 2}, Feasible: true}
	d := Point{ID: 3, Metrics: []float64{2, 1}, Feasible: true}
	bad := Point{ID: 4, Metrics: []float64{0.1, 0.1}, Feasible: false}

	if !Dominates(a, b) || Dominates(b, a) {
		t.Error("a should dominate b, not vice versa")
	}
	if Dominates(c, d) || Dominates(d, c) {
		t.Error("c and d are mutually non-dominated")
	}
	if Dominates(a, a) {
		t.Error("a point never dominates itself (no strict improvement)")
	}
	if !Dominates(b, bad) {
		t.Error("any feasible point dominates an infeasible one")
	}
	if Dominates(bad, a) {
		t.Error("an infeasible point never dominates a feasible one")
	}
}

func TestFront(t *testing.T) {
	pts := []Point{
		{ID: 7, Metrics: []float64{3, 1}, Feasible: true},
		{ID: 2, Metrics: []float64{1, 3}, Feasible: true},
		{ID: 5, Metrics: []float64{2, 2}, Feasible: true},
		{ID: 9, Metrics: []float64{4, 4}, Feasible: true}, // dominated by 5
	}
	front := Front(pts)
	var ids []int
	for _, p := range front {
		ids = append(ids, p.ID)
	}
	if want := []int{2, 5, 7}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("front = %v, want %v", ids, want)
	}
}

func TestSelectDeterministicTieBreak(t *testing.T) {
	// Two identical metric vectors: the tie must break on ID, and the
	// result must be identical across repeated calls and input orderings.
	pts := []Point{
		{ID: 8, Metrics: []float64{1, 1}, Feasible: true},
		{ID: 3, Metrics: []float64{1, 1}, Feasible: true},
		{ID: 5, Metrics: []float64{9, 9}, Feasible: true},
	}
	rev := []Point{pts[2], pts[1], pts[0]}
	got, got2 := Select(pts, 1), Select(rev, 1)
	if want := []int{3}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got2, want) {
		t.Fatalf("Select = %v / %v, want %v (ID tie-break)", got, got2, want)
	}
}

func TestSelectPrefersFeasible(t *testing.T) {
	pts := []Point{
		{ID: 0, Metrics: []float64{0.1}, Feasible: false}, // best metric, over cap
		{ID: 1, Metrics: []float64{5}, Feasible: true},
		{ID: 2, Metrics: []float64{7}, Feasible: true},
	}
	if got, want := Select(pts, 2), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select = %v, want feasible %v first", got, want)
	}
}

func TestSelectKeepAll(t *testing.T) {
	pts := []Point{{ID: 4, Metrics: []float64{1}}, {ID: 1, Metrics: []float64{2}}}
	if got, want := Select(pts, 5), []int{1, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Select = %v, want %v", got, want)
	}
}

func TestScheduleShape(t *testing.T) {
	ladder := Schedule(864, 4, 0, 5)
	want := []int{864, 216, 54, 14, 5}
	var sizes []int
	for _, r := range ladder {
		sizes = append(sizes, r.Candidates)
	}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("ladder sizes = %v, want %v", sizes, want)
	}
	if f := ladder[len(ladder)-1].Fraction; f != 1 {
		t.Fatalf("top rung fraction = %v, want 1", f)
	}
	if f := ladder[0].Fraction; math.Abs(f-1.0/256) > 1e-12 {
		t.Fatalf("bottom rung fraction = %v, want 1/256", f)
	}
}

func TestScheduleCapDepth(t *testing.T) {
	ladder := Schedule(864, 4, 3, 5)
	if len(ladder) != 3 {
		t.Fatalf("capped ladder depth = %d, want 3", len(ladder))
	}
	if ladder[0].Candidates != 864 {
		t.Fatalf("all candidates must enter rung 0, got %d", ladder[0].Candidates)
	}
	if last := ladder[len(ladder)-1]; last.Fraction != 1 || last.Candidates != 5 {
		t.Fatalf("top rung = %+v, want 5 candidates at fraction 1", last)
	}
}

func TestScheduleTiny(t *testing.T) {
	ladder := Schedule(3, 4, 0, 5)
	if len(ladder) != 1 || ladder[0].Candidates != 3 || ladder[0].Fraction != 1 {
		t.Fatalf("n <= finalists must degenerate to one full-fidelity rung, got %+v", ladder)
	}
}

// TestScheduleCostBound pins the headline economics: for the grid sizes
// an optimizer is worth running on (n >= 48) at eta >= 3, the ladder's
// aggregate probe cost stays at or under 25% of the equivalent
// exhaustive grid, even with a 5%-of-full minimum-fidelity floor in
// effect. (Tiny grids and eta=2 ladders legitimately cost more — the
// full-fidelity top rung alone is finalists/n of the grid.)
func TestScheduleCostBound(t *testing.T) {
	for _, n := range []int{48, 96, 200, 864} {
		for _, eta := range []int{3, 4} {
			ladder := Schedule(n, eta, 0, 4)
			var cost float64 // in full-fidelity grid-point equivalents
			for _, r := range ladder {
				cost += float64(r.Candidates) * max(r.Fraction, 0.05)
			}
			ratio := cost / float64(n)
			if ratio > 0.25 {
				t.Errorf("n=%d eta=%d: cost ratio %.3f > 0.25", n, eta, ratio)
			}
		}
	}
}
