package musa

import (
	"musa/internal/dse"
	"musa/internal/stats"
)

// Sweep exposes the paper's design-space exploration: the Table I grid,
// the parallel runner, and the per-figure aggregations.
type Sweep = dse.Dataset

// ClusterMeasurement re-exports the cluster-level replay outcome attached
// to every sweep measurement (one entry per replayed rank count).
type ClusterMeasurement = dse.ClusterStat

// DefaultReplayRanks returns the default cluster-stage rank counts.
func DefaultReplayRanks() []int { return dse.DefaultReplayRanks() }

// MaxReplayRanks re-exports the bound on externally supplied rank counts.
const MaxReplayRanks = dse.MaxReplayRanks

// ValidateReplayRanks re-exports the cluster-stage rank-list validation:
// at most 16 entries, each in [2, MaxReplayRanks].
func ValidateReplayRanks(ranks []int) error { return dse.ValidateReplayRanks(ranks) }

// ParseReplayRanks parses a comma-separated rank-count list ("" = nil,
// meaning the default) and validates it — the shared flag parser behind
// Experiment.SetReplayFlags and therefore the `musa dse` and `musa serve`
// CLIs. Failures wrap ErrBadReplayRanks.
func ParseReplayRanks(s string) ([]int, error) { return parseReplayRanks(s) }

// Feature re-exports the swept architectural dimensions.
type Feature = dse.Feature

// The five features of the paper's §V-B quantification.
const (
	FeatVector   = dse.FeatVector
	FeatCache    = dse.FeatCache
	FeatOoO      = dse.FeatOoO
	FeatChannels = dse.FeatChannels
	FeatFreq     = dse.FeatFreq
)

// Bar is one aggregated figure bar (mean ratio +/- stddev).
type Bar = dse.Bar

// SpeedupBars computes Fig. 5a/6a/7a/8a/9a-style bars: mean speedup of each
// feature value over the feature's baseline, restricted to one socket width
// (32 or 64; 0 = all).
func SpeedupBars(d *Sweep, f Feature, cores int) []Bar {
	return dse.NormalizedBars(d.Measurements, f, dse.MetricTime, true, cores)
}

// PowerBars computes the total-power ratio bars of the b-panels.
func PowerBars(d *Sweep, f Feature, cores int) []Bar {
	return dse.NormalizedBars(d.Measurements, f, dse.MetricPower, false, cores)
}

// PowerComponentBars returns the per-component power ratios (Core+L1,
// L2+L3, Memory), matching the stacked bars of the b-panels.
func PowerComponentBars(d *Sweep, f Feature, cores int) (coreL1, l2l3, mem []Bar) {
	coreL1 = dse.NormalizedBars(d.Measurements, f, dse.MetricCoreL1W, false, cores)
	l2l3 = dse.NormalizedBars(d.Measurements, f, dse.MetricL2L3W, false, cores)
	mem = dse.NormalizedBars(d.Measurements, f, dse.MetricMemW, false, cores)
	return coreL1, l2l3, mem
}

// EnergyBars computes the energy-to-solution ratio bars of the c-panels.
func EnergyBars(d *Sweep, f Feature, cores int) []Bar {
	return dse.NormalizedBars(d.Measurements, f, dse.MetricEnergy, false, cores)
}

// CharacterizationRow is one Fig. 1 row.
type CharacterizationRow = dse.Fig1Row

// Characterization extracts the Fig. 1 runtime statistics from a sweep.
func Characterization(d *Sweep) []CharacterizationRow { return dse.Figure1(d) }

// PCAResult re-exports the principal component analysis output.
type PCAResult = stats.PCAResult

// PCA reproduces Fig. 10 for one application over the sweep's 64-core,
// 2 GHz slice.
func PCA(d *Sweep, app string) (*PCAResult, error) { return dse.PCAFor(d, app) }

// UnconventionalRow is one Table II / Fig. 11 row.
type UnconventionalRow = dse.UnconventionalRow
