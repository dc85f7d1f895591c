// Package net implements the Dimemas-like MPI replay engine of MUSA: it
// replays each rank's burst-trace event sequence — compute bursts (whose
// durations detailed simulation has already rescaled) interleaved with MPI
// operations — against a simple network model with per-link bandwidth,
// end-to-end latency, eager/rendezvous point-to-point semantics and
// log-tree collectives. The output is the application makespan plus the
// per-rank time breakdown the paper visualizes in Figure 4.
package net

import (
	"context"
	"fmt"
	"math"
	"sort"

	"musa/internal/trace"
)

// Model is the network performance model (Dimemas' linear model plus a
// per-node injection constraint).
type Model struct {
	// LatencyNs is the end-to-end message latency (software + wire).
	LatencyNs float64
	// BandwidthBps is the per-link (per rank pair) bandwidth in bytes/sec.
	BandwidthBps float64
	// EagerBytes is the eager/rendezvous threshold: messages up to this
	// size complete without the receiver being ready.
	EagerBytes int64
	// CollectiveLatencyNs is the per-hop software cost of a collective.
	CollectiveLatencyNs float64
}

// MareNostrum4 returns a model with bandwidth and latency similar to the
// Marenostrum IV interconnect the paper simulates (100 Gb/s-class fabric,
// ~1.3 us MPI latency).
func MareNostrum4() Model {
	return Model{
		LatencyNs:           1300,
		BandwidthBps:        12.5e9,
		EagerBytes:          16 * 1024,
		CollectiveLatencyNs: 900,
	}
}

// HDR200 returns a 200 Gb/s InfiniBand HDR-class fabric: double the MN4
// per-link bandwidth at slightly lower latency.
func HDR200() Model {
	return Model{
		LatencyNs:           1000,
		BandwidthBps:        25e9,
		EagerBytes:          16 * 1024,
		CollectiveLatencyNs: 700,
	}
}

// Ethernet10G returns a commodity 10 GbE cluster interconnect: an order of
// magnitude less bandwidth and ~10 us MPI latency, the pessimistic end of
// the network scenario axis.
func Ethernet10G() Model {
	return Model{
		LatencyNs:           10000,
		BandwidthBps:        1.25e9,
		EagerBytes:          16 * 1024,
		CollectiveLatencyNs: 6000,
	}
}

// namedModels maps scenario names onto network models. "mn4" is the
// paper's MareNostrum IV fabric and the default everywhere.
func namedModels() map[string]Model {
	return map[string]Model{
		"mn4":    MareNostrum4(),
		"hdr200": HDR200(),
		"eth10":  Ethernet10G(),
	}
}

// ByName resolves a named network scenario ("mn4", "hdr200", "eth10").
func ByName(name string) (Model, error) {
	if m, ok := namedModels()[name]; ok {
		return m, nil
	}
	return Model{}, fmt.Errorf("net: unknown network model %q (have %v)", name, ModelNames())
}

// ModelNames lists the named network scenarios in sorted order.
func ModelNames() []string {
	var names []string
	for n := range namedModels() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate reports model errors.
func (m Model) Validate() error {
	if m.LatencyNs < 0 || m.BandwidthBps <= 0 {
		return fmt.Errorf("net: bad model %+v", m)
	}
	return nil
}

// transferNs returns the wire time of one message.
func (m Model) transferNs(bytes int64) float64 {
	return m.LatencyNs + float64(bytes)/m.BandwidthBps*1e9
}

// RankStats is the per-rank time breakdown of a replay.
type RankStats struct {
	ComputeNs    float64
	P2PNs        float64 // blocked in sends/recvs (excluding overlap)
	CollectiveNs float64 // waiting at collectives (load imbalance shows here)
	FinishNs     float64
}

// Result is the outcome of a network replay.
type Result struct {
	MakespanNs float64
	Ranks      []RankStats
}

// AvgParallelEfficiency returns mean(compute) / makespan: the fraction of
// the run spent computing, averaged over ranks.
func (r Result) AvgParallelEfficiency() float64 {
	if r.MakespanNs <= 0 || len(r.Ranks) == 0 {
		return 0
	}
	var c float64
	for _, rs := range r.Ranks {
		c += rs.ComputeNs
	}
	return c / float64(len(r.Ranks)) / r.MakespanNs
}

// MPIFraction returns the mean fraction of time spent in MPI (p2p +
// collectives).
func (r Result) MPIFraction() float64 {
	if r.MakespanNs <= 0 || len(r.Ranks) == 0 {
		return 0
	}
	var m float64
	for _, rs := range r.Ranks {
		m += rs.P2PNs + rs.CollectiveNs
	}
	return m / float64(len(r.Ranks)) / r.MakespanNs
}

// ComputeScale lets the replay rescale traced compute durations, e.g. with
// the node-level speedup obtained from detailed simulation. The function
// receives the rank and the traced duration and returns the replay duration.
type ComputeScale func(rank int, tracedNs float64) float64

// Replay simulates the burst trace against the network model. scale may be
// nil, in which case traced compute durations are replayed unchanged (pure
// burst mode).
//
// Semantics, following Dimemas' replay model:
//   - compute events occupy the rank for their (scaled) duration;
//   - sends are non-blocking up to EagerBytes, then rendezvous: the sender
//     blocks until the matching receive has been posted;
//   - receives block until the message has fully arrived;
//   - collectives are synchronizing: every rank waits for the last one,
//     then pays a log2(ranks) tree cost.
func Replay(b *trace.Burst, m Model, scale ComputeScale) Result {
	res, _ := ReplayCtx(context.Background(), b, m, scale)
	return res
}

// ReplayCtx is Replay with a cancellation checkpoint at every relaxation
// pass: when ctx is canceled mid-replay the partial state is discarded and
// ctx.Err() returned, so a canceled sweep does not block on a large replay.
// Trace or model validation failures still panic — they are programmer
// errors, not user input (callers validate requests before replaying).
func ReplayCtx(ctx context.Context, b *trace.Burst, m Model, scale ComputeScale) (Result, error) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if err := b.Validate(); err != nil {
		panic(err)
	}
	n := len(b.Ranks)
	res := Result{Ranks: make([]RankStats, n)}

	// Replay is performed with a sequential algorithm over per-rank event
	// cursors (a discrete-event relaxation): point-to-point matching is FIFO
	// per directed (src, dst) pair — recv #i consumes send #i — and
	// collectives are global barriers. Each rank keeps a local clock.
	type sendMsg struct {
		sendTime float64 // sender clock when the send was posted
		bytes    int64
	}
	// pairState records the posted sends and receive-post times of one
	// directed pair. Slices only grow and are consumed by index, so there
	// is no per-message allocation, no map reassignment per event, and no
	// q[1:] re-slicing that would pin a growing backing array.
	type pairState struct {
		sends     []sendMsg
		recvPosts []float64
	}
	channels := map[[2]int]*pairState{}
	pair := func(key [2]int) *pairState {
		ps := channels[key]
		if ps == nil {
			ps = &pairState{}
			channels[key] = ps
		}
		return ps
	}
	clock := make([]float64, n)
	cursor := make([]int, n)
	// posted[r] records that rank r's current (blocked) event has already
	// registered itself — its send/recv sits at pair index postIdx[r]
	// (and, for EvSendRecv, its receive half at postRecvIdx[r]), or its
	// collective arrival has been counted. Cleared when the cursor
	// advances.
	posted := make([]bool, n)
	postIdx := make([]int, n)
	postRecvIdx := make([]int, n)
	// Collective bookkeeping. Releases are all-at-once, so at any moment a
	// single collective generation is active across every rank.
	collTime := make([]float64, n)
	collCount := 0

	// Iterate until all cursors are exhausted. Process ranks round-robin;
	// a rank blocks when it needs a peer that has not progressed far enough
	// — then we move on and come back. Deterministic because matching is
	// FIFO and postings are monotone.
	remaining := 0
	for _, rt := range b.Ranks {
		remaining += len(rt.Events)
	}
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progressed := false
		for r := 0; r < n; r++ {
			for cursor[r] < len(b.Ranks[r].Events) {
				ev := b.Ranks[r].Events[cursor[r]]
				switch ev.Kind {
				case trace.EvCompute:
					d := ev.DurationNs
					if scale != nil {
						d = scale(r, d)
					}
					clock[r] += d
					res.Ranks[r].ComputeNs += d

				case trace.EvSend:
					ps := pair([2]int{r, ev.Peer})
					if !posted[r] {
						posted[r] = true
						postIdx[r] = len(ps.sends)
						ps.sends = append(ps.sends, sendMsg{sendTime: clock[r], bytes: ev.Bytes})
						progressed = true // new information for the peer
					}
					if ev.Bytes > m.EagerBytes {
						// Rendezvous: the send blocks until the matching
						// receive has been posted, then completes after the
						// handshake latency.
						i := postIdx[r]
						if len(ps.recvPosts) <= i {
							goto nextRank
						}
						done := math.Max(clock[r], ps.recvPosts[i]) + m.LatencyNs
						res.Ranks[r].P2PNs += done - clock[r]
						clock[r] = done
					} else {
						clock[r] += m.LatencyNs / 2 // eager injection cost
						res.Ranks[r].P2PNs += m.LatencyNs / 2
					}
					posted[r] = false

				case trace.EvRecv:
					ps := pair([2]int{ev.Peer, r})
					if !posted[r] {
						posted[r] = true
						postIdx[r] = len(ps.recvPosts)
						ps.recvPosts = append(ps.recvPosts, clock[r])
						progressed = true // unblocks a rendezvous sender
					}
					{
						i := postIdx[r]
						if len(ps.sends) <= i {
							// Sender has not posted yet: block this rank
							// and try other ranks first.
							goto nextRank
						}
						msg := ps.sends[i]
						arrive := msg.sendTime + m.transferNs(msg.bytes)
						if msg.bytes > m.EagerBytes {
							// Rendezvous transfer starts at the match point.
							arrive = math.Max(msg.sendTime, ps.recvPosts[i]) + m.transferNs(msg.bytes)
						}
						if arrive > clock[r] {
							res.Ranks[r].P2PNs += arrive - clock[r]
							clock[r] = arrive
						}
					}
					posted[r] = false

				case trace.EvSendRecv:
					// Combined exchange: the receive from RecvPeer is
					// posted at entry, concurrently with the send to Peer
					// (MPI_Sendrecv / pre-posted MPI_Irecv). The event
					// completes when both halves do.
					{
						sp := pair([2]int{r, ev.Peer})
						rp := pair([2]int{ev.RecvPeer, r})
						if !posted[r] {
							posted[r] = true
							postIdx[r] = len(sp.sends)
							postRecvIdx[r] = len(rp.recvPosts)
							sp.sends = append(sp.sends, sendMsg{sendTime: clock[r], bytes: ev.Bytes})
							rp.recvPosts = append(rp.recvPosts, clock[r])
							progressed = true
						}
						si, ri := postIdx[r], postRecvIdx[r]
						var sendDone float64
						if ev.Bytes > m.EagerBytes {
							// Rendezvous send half: blocks until the peer
							// posts the matching receive.
							if len(sp.recvPosts) <= si {
								goto nextRank
							}
							sendDone = math.Max(clock[r], sp.recvPosts[si]) + m.LatencyNs
						} else {
							sendDone = clock[r] + m.LatencyNs/2
						}
						// Receive half: blocks until the matching send is
						// posted and the message has fully arrived.
						if len(rp.sends) <= ri {
							goto nextRank
						}
						msg := rp.sends[ri]
						arrive := msg.sendTime + m.transferNs(msg.bytes)
						if msg.bytes > m.EagerBytes {
							arrive = math.Max(msg.sendTime, rp.recvPosts[ri]) + m.transferNs(msg.bytes)
						}
						done := math.Max(sendDone, arrive)
						if done > clock[r] {
							res.Ranks[r].P2PNs += done - clock[r]
							clock[r] = done
						}
					}
					posted[r] = false

				case trace.EvAllReduce, trace.EvBarrier, trace.EvBcast:
					if !posted[r] {
						posted[r] = true
						collTime[r] = clock[r]
						collCount++
						progressed = true
					}
					if collCount < n {
						// Not everyone has arrived; this rank is blocked.
						goto nextRank
					}
					// Everyone arrived: release at max + tree cost.
					maxT := 0.0
					for _, t := range collTime {
						if t > maxT {
							maxT = t
						}
					}
					cost := m.CollectiveLatencyNs * log2ceil(n)
					if ev.Kind != trace.EvBarrier {
						cost += m.transferNs(ev.Bytes) * log2ceil(n) / 4
					}
					release := maxT + cost
					// Release every rank: collCount == n means all of them
					// are waiting at this collective.
					for rr := 0; rr < n; rr++ {
						if release > clock[rr] {
							res.Ranks[rr].CollectiveNs += release - clock[rr]
							clock[rr] = release
						}
						posted[rr] = false
						cursor[rr]++
						remaining--
					}
					collCount = 0
					progressed = true
					continue // cursor already advanced for r too
				}
				cursor[r]++
				remaining--
				progressed = true
			}
		nextRank:
			continue
		}
		if !progressed {
			panic("net: replay deadlock — mismatched sends/recvs or collectives")
		}
	}

	for r := 0; r < n; r++ {
		res.Ranks[r].FinishNs = clock[r]
		if clock[r] > res.MakespanNs {
			res.MakespanNs = clock[r]
		}
	}
	return res, nil
}

func log2ceil(n int) float64 {
	c := 0.0
	for v := 1; v < n; v <<= 1 {
		c++
	}
	if c == 0 {
		c = 1
	}
	return c
}
