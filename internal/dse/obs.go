package dse

import (
	"time"

	"musa/internal/obs"
)

// Observability wiring of the sweep pipeline. Stage names are the contract
// between the runner's instrumentation, the `musa dse -v` breakdown table and
// the dashboards scraping /metrics: every expensive phase of a sweep point
// shows up under exactly one of these.
const (
	// StageFuse is the fused-trace build of one (application, vector width):
	// macro-op fusion of the sample window, the half every run reads. The
	// warm window is fused only for a cache walk and is StageAnnotate time.
	StageFuse = "fuse"
	// StageAnnotate is the cache-hierarchy walk: one observation per warmed
	// hit-rate table built (one per distinct (application, cores, vector
	// width, cache configuration)). An application's cold pass walks every
	// width it lacks a table at, and each width's walk — its warm fuse and
	// the walk itself, less its sample fuse — records one observation per
	// table it built, each an equal share of its time.
	StageAnnotate = "annotate"
	// StageLatencyFit is the DRAM load-latency curve fit of one
	// (application, channels, memory kind).
	StageLatencyFit = "latency-fit"
	// StageBurstSynthesis is the coarse-grain MPI burst-trace synthesis of
	// one (application, rank count).
	StageBurstSynthesis = "burst-synthesis"
	// StageNodeSim is the detailed node simulation of one sweep point.
	StageNodeSim = "node-sim"
	// StageReplay is the cluster-level MPI replay of one sweep point across
	// every configured rank count.
	StageReplay = "replay"
)

// StageMetric is the per-stage duration histogram every Stage* constant
// labels; its per-series sum/count feed the `musa dse -v` breakdown.
const StageMetric = "musa_dse_stage_seconds"

// observeStage records one stage execution into the default registry.
func observeStage(stage string, start time.Time) { observeStageShares(stage, time.Since(start), 1) }

// observeStageShares records n executions of a stage that ran as one for d,
// each an equal share of the time.
func observeStageShares(stage string, d time.Duration, n int) {
	h := obs.DefaultRegistry().Histogram(StageMetric,
		"Time spent per dse pipeline stage.", nil, obs.L("stage", stage))
	share := d.Seconds() / float64(n)
	for range n {
		h.Observe(share)
	}
}

// IterationsMetric is the histogram of bandwidth fixed-point iterations per
// simulated point (node.Result.Iterations, one to six): the figure a change
// to the fixed point is judged against. An iteration is not always a timing
// replay — one whose latency table repeats the previous iteration's, or that
// the annotation group's memo already replayed, reuses that result — so the
// replays run are ReplaysMetric, at most the iteration sum.
const IterationsMetric = "musa_dse_fixedpoint_iterations"

// ReplaysMetric counts the timing replays (cpu.RunTiming calls) the
// simulated points ran (node.Result.Replays). Host time per replayed
// micro-op is a replay's time over this count times the sample's length.
const ReplaysMetric = "musa_dse_timing_replays_total"

// UnconvergedMetric counts the simulated points whose bandwidth fixed point
// stopped at the six-iteration cap without meeting its 1 ns tolerance
// (node.Result.Converged false); IterationsMetric's count is the points
// simulated.
const UnconvergedMetric = "musa_dse_fixedpoint_unconverged_total"

// observeFixedPoint records one simulated point's iteration count, the
// timing replays they ran and whether its fixed point converged.
func observeFixedPoint(iterations, replays int, converged bool) {
	reg := obs.DefaultRegistry()
	reg.Histogram(IterationsMetric,
		"Bandwidth fixed-point iterations per simulated sweep point.",
		[]float64{1, 2, 3, 4, 5, 6}).Observe(float64(iterations))
	reg.Counter(ReplaysMetric,
		"Timing replays run by simulated sweep points; iterations that reuse a replay are not counted.").Add(int64(replays))
	unconverged := reg.Counter(UnconvergedMetric,
		"Simulated sweep points whose bandwidth fixed point stopped at the iteration cap unconverged.")
	if !converged {
		unconverged.Inc()
	}
}

// countPoint advances the per-sweep-point outcome counter.
func countPoint(result string) {
	obs.DefaultRegistry().Counter("musa_dse_points_total",
		"Sweep points completed, by how the measurement was obtained.",
		obs.L("result", result)).Inc()
}
