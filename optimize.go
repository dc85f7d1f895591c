package musa

import (
	"fmt"
	"slices"
)

// Objective names accepted by OptimizeSpec.Objectives. All are minimized.
const (
	// ObjectiveTime is node compute time (Measurement.TimeNs).
	ObjectiveTime = "time"
	// ObjectiveEnergy is node energy-to-solution (Measurement.EnergyJ).
	ObjectiveEnergy = "energy"
	// ObjectiveEDP is the energy-delay product (EnergyJ x TimeNs, in
	// joule-seconds) — the paper's efficiency headline.
	ObjectiveEDP = "edp"
)

// objectiveOrder is the canonical objective ordering of the normalized
// spec (and therefore of the encoding and the metric vectors).
var objectiveOrder = []string{ObjectiveTime, ObjectiveEnergy, ObjectiveEDP}

// OptimizeSpec configures the successive-halving multi-fidelity search
// of a KindOptimize experiment. The zero value means: all three
// objectives, no power cap, eta 4, auto ladder depth, max(4, Eta+1)
// finalists, a 2000 micro-op cheap-rung sample floor.
type OptimizeSpec struct {
	// Objectives selects the minimized metrics — any subset of "time",
	// "energy", "edp" (nil = all three). Normalize sorts them into that
	// canonical order and deduplicates.
	Objectives []string `json:"objectives,omitempty"`
	// MaxPowerW, when positive, constrains the search to configurations
	// whose average node power stays at or under the cap. Infeasible
	// candidates rank behind every feasible one; if nothing is feasible
	// the result is the unconstrained frontier flagged Infeasible.
	MaxPowerW float64 `json:"maxPowerW,omitempty"`
	// Eta is the halving factor: each rung keeps ceil(n/Eta) survivors
	// and raises probe fidelity by Eta (0 = 4; valid 2-8).
	Eta int `json:"eta,omitempty"`
	// Rungs caps the fidelity-ladder depth (0 = derived from the
	// candidate count; valid 0-8). A capped ladder keeps its expensive
	// top rungs and makes the first cut more aggressive.
	Rungs int `json:"rungs,omitempty"`
	// Finalists floors the number of candidates promoted to the
	// full-fidelity top rung (0 = max(4, Eta+1); valid 1-64).
	Finalists int `json:"finalists,omitempty"`
	// MinSample floors a cheap rung's detailed sample in micro-ops
	// (0 = 2000). Cheap rungs keep the experiment's full warmup so every
	// probe measures a prefix of the full-fidelity sample window; only the
	// detailed-sample length shrinks.
	MinSample int64 `json:"minSample,omitempty"`
}

// normalized validates the spec against a candidate count and returns
// the canonical form with every default materialized, so the encoding
// (and the store key of the optimize experiment itself) pins the exact
// search policy.
func (s OptimizeSpec) normalized(candidates int) (*OptimizeSpec, error) {
	if s.Eta == 0 {
		s.Eta = 4
	}
	if s.Eta < 2 || s.Eta > 8 {
		return nil, fmt.Errorf("%w: eta %d out of range [2, 8]", ErrBadOptimize, s.Eta)
	}
	if s.Rungs < 0 || s.Rungs > 8 {
		return nil, fmt.Errorf("%w: rungs %d out of range [0, 8]", ErrBadOptimize, s.Rungs)
	}
	if s.Finalists == 0 {
		s.Finalists = max(4, s.Eta+1)
	}
	if s.Finalists < 1 || s.Finalists > 64 {
		return nil, fmt.Errorf("%w: finalists %d out of range [1, 64]", ErrBadOptimize, s.Finalists)
	}
	if s.MaxPowerW < 0 {
		return nil, fmt.Errorf("%w: negative power cap %g", ErrBadOptimize, s.MaxPowerW)
	}
	if s.MinSample == 0 {
		s.MinSample = 2000
	}
	if s.MinSample < 0 {
		return nil, fmt.Errorf("%w: negative min sample %d", ErrBadOptimize, s.MinSample)
	}
	if s.Objectives == nil {
		s.Objectives = slices.Clone(objectiveOrder)
	} else {
		var canon []string
		for _, o := range objectiveOrder {
			if slices.Contains(s.Objectives, o) {
				canon = append(canon, o)
			}
		}
		for _, o := range s.Objectives {
			if !slices.Contains(objectiveOrder, o) {
				return nil, fmt.Errorf("%w: unknown objective %q (valid: %s, %s, %s)",
					ErrBadOptimize, o, ObjectiveTime, ObjectiveEnergy, ObjectiveEDP)
			}
		}
		s.Objectives = canon
	}
	_ = candidates // ladder shape is derived at run time; any count >= 1 is searchable
	return &s, nil
}

// ObjectiveValues are one configuration's objective metrics, all
// minimized: node compute time, node energy-to-solution, and their
// product (EDP, joule-seconds).
type ObjectiveValues struct {
	TimeNs  float64 `json:"timeNs"`
	EnergyJ float64 `json:"energyJ"`
	EDP     float64 `json:"edp"`
}

// objectiveValues derives the objective metrics of a measurement.
func objectiveValues(m Measurement) ObjectiveValues {
	return ObjectiveValues{
		TimeNs:  m.TimeNs,
		EnergyJ: m.EnergyJ,
		EDP:     m.EnergyJ * m.TimeNs * 1e-9,
	}
}

// vector orders the enabled objectives into the metric vector the
// search policy ranks on (canonical objective order).
func (o ObjectiveValues) vector(objectives []string) []float64 {
	out := make([]float64, 0, len(objectives))
	for _, name := range objectives {
		switch name {
		case ObjectiveTime:
			out = append(out, o.TimeNs)
		case ObjectiveEnergy:
			out = append(out, o.EnergyJ)
		case ObjectiveEDP:
			out = append(out, o.EDP)
		}
	}
	return out
}

// FrontierPoint is one Pareto-optimal configuration of an optimize
// result, evaluated at full fidelity.
type FrontierPoint struct {
	// PointIndex is the configuration's Table I grid index.
	PointIndex int `json:"pointIndex"`
	// Label is its human-readable grid label.
	Label string `json:"label"`
	// Arch is the configuration itself.
	Arch Arch `json:"arch"`
	// Objectives are the full-fidelity objective metrics.
	Objectives ObjectiveValues `json:"objectives"`
	// PowerW is the average node power (the MaxPowerW constraint metric).
	PowerW float64 `json:"powerW"`
	// Feasible reports whether the configuration satisfies MaxPowerW
	// (always true without a cap).
	Feasible bool `json:"feasible"`
	// Measurement is the full node (and cluster-replay) measurement.
	Measurement *Measurement `json:"measurement,omitempty"`
}

// RungSummary is one completed level of the successive-halving ladder.
// It is deterministic — identical across cold and cache-warm runs — so
// the whole OptimizeResult is byte-stable.
type RungSummary struct {
	// Rung is the ladder level, 0 = cheapest.
	Rung int `json:"rung"`
	// Candidates is how many configurations were probed in this rung.
	Candidates int `json:"candidates"`
	// FidelityFraction is the rung's nominal fraction of full fidelity.
	FidelityFraction float64 `json:"fidelityFraction"`
	// Sample / Warmup are the probe fidelity actually used (micro-ops;
	// 0 on the top rung means the experiment's own default-resolved
	// values, matching an equivalent sweep's encoding; cheap rungs carry
	// the full warmup so their sample windows nest inside the top rung's).
	Sample int64 `json:"sample"`
	Warmup int64 `json:"warmup"`
	// Replay reports whether the cluster replay stage ran (top rung only,
	// and only when the experiment itself replays).
	Replay bool `json:"replay"`
	// CostInstrs is the rung's nominal detailed-simulation cost: probed
	// configurations x detailed sample micro-ops (warmup streaming is the
	// cheap cache-priming phase and is not counted). Cache hits count —
	// cost measures the search policy, not the cache state.
	CostInstrs int64 `json:"costInstrs"`
	// Survivors are the point indices promoted to the next rung (for the
	// top rung: the Pareto frontier's indices), ascending.
	Survivors []int `json:"survivors"`
}

// OptimizeResult is the outcome of a KindOptimize experiment: the Pareto
// frontier over the enabled objectives at full fidelity, the per-rung
// search history, and the total simulation cost against the equivalent
// exhaustive grid. Two runs of the same experiment produce byte-identical
// results regardless of cache state.
type OptimizeResult struct {
	// App is the application searched.
	App string `json:"app"`
	// Objectives are the minimized metrics, canonical order.
	Objectives []string `json:"objectives"`
	// MaxPowerW echoes the power cap (0 = unconstrained).
	MaxPowerW float64 `json:"maxPowerW,omitempty"`
	// Candidates is the searched candidate-set size.
	Candidates int `json:"candidates"`
	// Rungs is the fidelity ladder as executed, cheapest first.
	Rungs []RungSummary `json:"rungs"`
	// Frontier is the full-fidelity Pareto frontier, ascending point index.
	Frontier []FrontierPoint `json:"frontier"`
	// Best is the recommended single configuration: the frontier point
	// minimizing EDP when that objective is enabled, else the first
	// enabled objective.
	Best *FrontierPoint `json:"best,omitempty"`
	// Infeasible reports that MaxPowerW excluded every candidate; the
	// frontier then shows the unconstrained trade-offs anyway.
	Infeasible bool `json:"infeasible,omitempty"`
	// ProbeCostInstrs is the search's total nominal detailed-simulation
	// cost (sample micro-ops across all probes) and GridCostInstrs the
	// equivalent exhaustive grid's; CostRatio is their quotient (the
	// tentpole bound: <= 0.25 on reference workloads).
	ProbeCostInstrs int64   `json:"probeCostInstrs"`
	GridCostInstrs  int64   `json:"gridCostInstrs"`
	CostRatio       float64 `json:"costRatio"`
}
