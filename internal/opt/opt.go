// Package opt is the search policy of optimize experiments: the
// successive-halving fidelity ladder and deterministic multi-objective
// (Pareto) candidate selection. It is pure policy — no simulation, no
// I/O, no randomness — so the whole search is unit-testable and a given
// input always produces byte-identical decisions.
package opt

import (
	"math"
	"slices"
	"sort"
)

// Point is one candidate configuration under evaluation: an opaque
// stable ID (the Table I grid index) and its metric vector, one value
// per objective, lower is better. Feasible marks constraint satisfaction
// (e.g. a power cap); selection uses constrained domination, so feasible
// candidates always outrank infeasible ones.
type Point struct {
	ID       int
	Metrics  []float64
	Feasible bool
}

// Dominates reports whether a Pareto-dominates b under constrained
// domination: a feasible point dominates any infeasible one; between
// points of equal feasibility, a dominates b when no metric is worse and
// at least one is strictly better.
func Dominates(a, b Point) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	better := false
	for i := range a.Metrics {
		if a.Metrics[i] > b.Metrics[i] {
			return false
		}
		if a.Metrics[i] < b.Metrics[i] {
			better = true
		}
	}
	return better
}

// Front returns the non-dominated subset of pts, sorted by ID.
func Front(pts []Point) []Point {
	var front []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].ID < front[j].ID })
	return front
}

// ranks assigns each point its non-dominated rank (0 = the Pareto front,
// 1 = the front after removing rank 0, ...) by iterative peeling.
func ranks(pts []Point) []int {
	n := len(pts)
	rank := make([]int, n)
	assigned := make([]bool, n)
	for level, left := 0, n; left > 0; level++ {
		var peel []int
		for i := range pts {
			if assigned[i] {
				continue
			}
			dominated := false
			for j := range pts {
				if i != j && !assigned[j] && Dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				peel = append(peel, i)
			}
		}
		for _, i := range peel {
			rank[i], assigned[i] = level, true
		}
		left -= len(peel)
	}
	return rank
}

// scores computes the deterministic scalarized tie-break value of each
// point: the sum of its per-objective min-max normalized metrics over
// pts. A degenerate objective (all candidates equal) contributes zero.
func scores(pts []Point) []float64 {
	if len(pts) == 0 {
		return nil
	}
	dims := len(pts[0].Metrics)
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	for d := 0; d < dims; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range pts {
		for d, v := range p.Metrics {
			lo[d], hi[d] = math.Min(lo[d], v), math.Max(hi[d], v)
		}
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		for d, v := range p.Metrics {
			if hi[d] > lo[d] {
				out[i] += (v - lo[d]) / (hi[d] - lo[d])
			}
		}
	}
	return out
}

// Select returns the IDs of the keep best points, ascending. Ordering is
// fully deterministic: non-dominated rank first (constrained domination,
// so feasible candidates survive before infeasible ones), then the
// scalarized min-max score, then the ID itself.
func Select(pts []Point, keep int) []int {
	if keep >= len(pts) {
		ids := make([]int, len(pts))
		for i, p := range pts {
			ids[i] = p.ID
		}
		slices.Sort(ids)
		return ids
	}
	rank := ranks(pts)
	score := scores(pts)
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if rank[i] != rank[j] {
			return rank[i] < rank[j]
		}
		if score[i] != score[j] {
			return score[i] < score[j]
		}
		return pts[i].ID < pts[j].ID
	})
	ids := make([]int, keep)
	for i := range ids {
		ids[i] = pts[order[i]].ID
	}
	slices.Sort(ids)
	return ids
}

// Rung is one level of the fidelity ladder: Candidates enter it and are
// probed at Fraction of full fidelity (the last rung is always 1.0).
type Rung struct {
	Candidates int
	Fraction   float64
}

// Schedule builds the successive-halving ladder for n candidates: rung i
// of R probes its survivors at eta^(i-(R-1)) of full fidelity and keeps
// ceil(candidates/eta) of them, floored at finalists — the minimum
// promoted to the full-fidelity top rung. maxRungs > 0 caps the ladder
// depth; a capped ladder keeps its top (most expensive) rungs, so the
// first cut from n is simply more aggressive. The aggregate probe cost
// of the ladder is a small fraction of the n-point full-fidelity grid:
// each cheap rung costs about n/eta^(R-1) grid-point equivalents.
func Schedule(n, eta, maxRungs, finalists int) []Rung {
	if eta < 2 {
		eta = 2
	}
	if finalists < 1 {
		finalists = 1
	}
	sizes := []int{n}
	for last := n; last > finalists; {
		next := (last + eta - 1) / eta
		if next < finalists {
			next = finalists
		}
		sizes = append(sizes, next)
		last = next
	}
	if maxRungs > 0 && len(sizes) > maxRungs {
		// Keep the top of the ladder: all n candidates still enter rung 0,
		// they just shrink to the (deeper) next size in one cut.
		sizes = append([]int{n}, sizes[len(sizes)-maxRungs+1:]...)
	}
	r := len(sizes)
	out := make([]Rung, r)
	for i, sz := range sizes {
		out[i] = Rung{Candidates: sz, Fraction: math.Pow(float64(eta), float64(i-(r-1)))}
	}
	return out
}
