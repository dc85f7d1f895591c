package apps

import (
	"math"

	"musa/internal/rts"
	"musa/internal/trace"
	"musa/internal/xrand"
)

// RegionGraph synthesizes the runtime-system task graph of one instance of
// region index ri, deterministic in seed. Durations are the traced burst
// timings (lane work over the reference machine's throughput).
func (p *Profile) RegionGraph(ri int, seed uint64) rts.Region {
	spec := p.Regions[ri]
	rng := xrand.New(seed ^ (uint64(ri+1) * 0x9e3779b97f4a7c15))
	baseNs := spec.LanesPerTask / RefLaneThroughput * 1e9
	mu, sigma := lognormalParams(spec.ImbalanceCV)

	tasks := make([]rts.Task, spec.Tasks)
	for i := range tasks {
		dur := baseNs
		if spec.ImbalanceCV > 0 {
			dur *= rng.LogNormal(mu, sigma)
		}
		tasks[i] = rts.Task{
			ID:         i,
			DurationNs: dur,
			CriticalNs: dur * spec.CriticalFrac,
		}
	}
	serialNs := spec.LaneWork() * spec.SerialFrac / RefLaneThroughput * 1e9
	return rts.Region{Name: spec.Name, SerialNs: serialNs, Tasks: tasks}
}

// lognormalParams returns the (mu, sigma) of the lognormal with mean 1 and
// the given coefficient of variation.
func lognormalParams(cv float64) (mu, sigma float64) {
	sigma2 := math.Log1p(cv * cv)
	return -sigma2 / 2, math.Sqrt(sigma2)
}

// BurstTrace synthesizes the coarse-grain full-application trace for the
// given rank count: per rank and iteration, one compute event per region
// followed by the MPI exchange pattern (neighbor sends/recvs and the
// iteration's collectives). Per-rank compute multipliers model rank-level
// load imbalance, the paper's dominant source of full-app efficiency loss.
func BurstTrace(p *Profile, ranks int, seed uint64) *trace.Burst {
	b := &trace.Burst{App: p.Name}
	rng := xrand.New(seed)

	// Region table: one entry per (region, iteration) is unnecessary — the
	// graph is statistically identical across iterations, so regions are
	// entered once and referenced by every iteration.
	for ri, spec := range p.Regions {
		g := p.RegionGraph(ri, seed)
		b.Regions = append(b.Regions, trace.RegionInfo{
			Name:         spec.Name,
			Graph:        g,
			Instructions: int64(spec.LaneWork()),
		})
	}

	// Per-rank imbalance multipliers, fixed across iterations (spatial
	// decomposition imbalance is persistent, which is what makes the
	// AllReduce barrier waiting in Fig. 4 systematic).
	mult := make([]float64, ranks)
	for r := range mult {
		mult[r] = 1.0
		if p.MPI.RankImbalanceCV > 0 {
			mult[r] = rng.LogNormal(lognormalParams(p.MPI.RankImbalanceCV))
		}
	}

	for r := 0; r < ranks; r++ {
		rt := trace.RankTrace{Rank: r}
		for it := 0; it < p.Iterations; it++ {
			for ri, spec := range p.Regions {
				durNs := spec.LaneWork() / RefLaneThroughput * 1e9 * mult[r]
				rt.Events = append(rt.Events, trace.Event{
					Kind:       trace.EvCompute,
					RegionID:   ri,
					DurationNs: durNs,
				})
			}
			// Neighbor exchange: ring topology with +/- k partners. The
			// halo messages are far above the eager threshold, so each
			// exchange is a combined sendrecv (receive pre-posted at
			// entry, as real halo codes do with MPI_Sendrecv/MPI_Irecv) —
			// blocking rendezvous sends would deadlock on any sequential
			// send-first ordering.
			for n := 1; n <= p.MPI.Neighbors/2 && ranks > 1; n++ {
				up := (r + n) % ranks
				// Go's % can be negative when the stencil radius exceeds
				// the ring size; normalize into [0, ranks).
				down := ((r-n)%ranks + ranks) % ranks
				if up == r || down == r {
					continue // ring smaller than the stencil radius
				}
				rt.Events = append(rt.Events, trace.Event{
					Kind: trace.EvSendRecv, Peer: up, RecvPeer: down, Bytes: p.MPI.P2PBytes,
				})
			}
			for a := 0; a < p.MPI.AllReduces; a++ {
				rt.Events = append(rt.Events, trace.Event{
					Kind:  trace.EvAllReduce,
					Bytes: p.MPI.AllReduceBytes,
				})
			}
		}
		b.Ranks = append(b.Ranks, rt)
	}
	return b
}
