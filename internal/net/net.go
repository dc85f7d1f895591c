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
// errors, not user input (callers validate requests before replaying). It
// compiles the trace and replays the program once; a caller that replays one
// trace many times compiles it once and calls Program.Replay.
func ReplayCtx(ctx context.Context, b *trace.Burst, m Model, scale ComputeScale) (Result, error) {
	p, err := Compile(b)
	if err != nil {
		panic(err)
	}
	return p.Replay(ctx, m, scale)
}

// Program is a burst trace compiled for replay. Point-to-point matching is
// FIFO per directed (src, dst) pair — receive #i consumes send #i — so
// Compile resolves every message once (trace.Burst.Matched, which the trace
// keeps): a send and the receive that consumes it share one slot of a flat
// message log. A replay is then
// arithmetic over the trace's events and the log, with no map and no
// allocation per message. A Program keeps the trace it was compiled from;
// both are immutable, and any number of replays may run on them at once.
type Program struct {
	trace *trace.Burst
	msgs  *trace.Matching
	start []int32 // rank r's first event in msgs.SendID and msgs.RecvID
	depth float64 // log2ceil(ranks), the collective tree depth
}

// Compile validates a burst trace and compiles it for replay. The trace keeps
// its validated matching, so compiling it again — every Replay call does —
// costs a rank-sized array.
func Compile(b *trace.Burst) (*Program, error) {
	mt, err := b.Matched()
	if err != nil {
		return nil, err
	}
	n := len(b.Ranks)
	p := &Program{trace: b, msgs: mt, start: make([]int32, n), depth: log2ceil(n)}
	for r := 1; r < n; r++ {
		p.start[r] = p.start[r-1] + int32(len(b.Ranks[r-1].Events))
	}
	return p, nil
}

// rankState is one rank's replay cursor.
type rankState struct {
	clock    float64
	collTime float64 // arrival at the current collective
	cursor   int32   // next event, an index into the rank's events
	// posted records that the rank's current (blocked) event has already
	// registered itself: its send or receive-post sits in the log, or its
	// collective arrival has been counted. Cleared when the cursor advances.
	posted bool
}

// slot is one message of the log: the send half and the receive post.
type slot struct {
	sendTime float64 // sender clock when the send was posted
	recvPost float64 // receiver clock when the receive was posted
	bytes    int64   // the message size, posted with the send
	sent     bool
	received bool // the receive has been posted
}

// Replay runs the program against the network model; see the package-level
// Replay for the semantics and ReplayCtx for cancellation. It panics on an
// invalid model and on a deadlock.
func (p *Program) Replay(ctx context.Context, m Model, scale ComputeScale) (Result, error) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	n := len(p.start)
	res := Result{Ranks: make([]RankStats, n)}
	ranks := make([]rankState, n)
	log := make([]slot, p.msgs.Messages)
	collCount := 0 // arrivals at the one collective generation active

	// Ranks are processed round-robin, each until it blocks on a peer that
	// has not progressed far enough; then the next rank runs and the pass
	// comes back. Deterministic because matching is FIFO and postings are
	// monotone.
	remaining := len(p.msgs.SendID)
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		progressed := false
	ranksLoop:
		for r := range ranks {
			rs, st := &ranks[r], &res.Ranks[r]
			events := p.trace.Ranks[r].Events
			sendID, recvID := p.msgs.SendID[p.start[r]:], p.msgs.RecvID[p.start[r]:]
			for int(rs.cursor) < len(events) {
				ev := &events[rs.cursor]
				switch ev.Kind {
				case trace.EvCompute:
					d := ev.DurationNs
					if scale != nil {
						d = scale(r, d)
					}
					rs.clock += d
					st.ComputeNs += d

				case trace.EvSend:
					s := &log[sendID[rs.cursor]]
					if !rs.posted {
						rs.posted = true
						s.sendTime, s.bytes, s.sent = rs.clock, ev.Bytes, true
						progressed = true // new information for the peer
					}
					if ev.Bytes > m.EagerBytes {
						// Rendezvous: the send blocks until the matching
						// receive has been posted, then completes after the
						// handshake latency.
						if !s.received {
							continue ranksLoop
						}
						done := math.Max(rs.clock, s.recvPost) + m.LatencyNs
						st.P2PNs += done - rs.clock
						rs.clock = done
					} else {
						rs.clock += m.LatencyNs / 2 // eager injection cost
						st.P2PNs += m.LatencyNs / 2
					}

				case trace.EvRecv:
					s := &log[recvID[rs.cursor]]
					if !rs.posted {
						rs.posted = true
						s.recvPost, s.received = rs.clock, true
						progressed = true // unblocks a rendezvous sender
					}
					if !s.sent {
						// Sender has not posted yet: block this rank and
						// try other ranks first.
						continue ranksLoop
					}
					if arrive := m.arrival(s); arrive > rs.clock {
						st.P2PNs += arrive - rs.clock
						rs.clock = arrive
					}

				case trace.EvSendRecv:
					// Combined exchange: the receive is posted at entry,
					// concurrently with the send (MPI_Sendrecv / pre-posted
					// MPI_Irecv). The event completes when both halves do.
					ss, rcv := &log[sendID[rs.cursor]], &log[recvID[rs.cursor]]
					if !rs.posted {
						rs.posted = true
						ss.sendTime, ss.bytes, ss.sent = rs.clock, ev.Bytes, true
						rcv.recvPost, rcv.received = rs.clock, true
						progressed = true
					}
					var sendDone float64
					if ev.Bytes > m.EagerBytes {
						// Rendezvous send half: blocks until the peer posts
						// the matching receive.
						if !ss.received {
							continue ranksLoop
						}
						sendDone = math.Max(rs.clock, ss.recvPost) + m.LatencyNs
					} else {
						sendDone = rs.clock + m.LatencyNs/2
					}
					// Receive half: blocks until the matching send is posted
					// and the message has fully arrived.
					if !rcv.sent {
						continue ranksLoop
					}
					if done := math.Max(sendDone, m.arrival(rcv)); done > rs.clock {
						st.P2PNs += done - rs.clock
						rs.clock = done
					}

				case trace.EvAllReduce, trace.EvBarrier, trace.EvBcast:
					if !rs.posted {
						rs.posted = true
						rs.collTime = rs.clock
						collCount++
						progressed = true
					}
					if collCount < n {
						// Not everyone has arrived; this rank is blocked.
						continue ranksLoop
					}
					// Everyone arrived: release at max + tree cost.
					maxT := 0.0
					for i := range ranks {
						if t := ranks[i].collTime; t > maxT {
							maxT = t
						}
					}
					cost := m.CollectiveLatencyNs * p.depth
					if ev.Kind != trace.EvBarrier {
						cost += m.transferNs(ev.Bytes) * p.depth / 4
					}
					release := maxT + cost
					// Release every rank: collCount == n means all of them
					// are waiting at this collective.
					for rr := range ranks {
						q := &ranks[rr]
						if release > q.clock {
							res.Ranks[rr].CollectiveNs += release - q.clock
							q.clock = release
						}
						q.posted = false
						q.cursor++
						remaining--
					}
					collCount = 0
					progressed = true
					continue // cursor already advanced for r too
				}
				rs.posted = false
				rs.cursor++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			panic("net: replay deadlock — mismatched sends/recvs or collectives")
		}
	}

	for r := range ranks {
		res.Ranks[r].FinishNs = ranks[r].clock
		if ranks[r].clock > res.MakespanNs {
			res.MakespanNs = ranks[r].clock
		}
	}
	return res, nil
}

// arrival returns when the message in s has fully arrived at its posted
// receiver: a send's wire time after the send, or, above the eager
// threshold, after the rendezvous match point.
func (m Model) arrival(s *slot) float64 {
	if s.bytes > m.EagerBytes {
		return math.Max(s.sendTime, s.recvPost) + m.transferNs(s.bytes)
	}
	return s.sendTime + m.transferNs(s.bytes)
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
