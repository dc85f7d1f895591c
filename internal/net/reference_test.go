package net

import (
	"math"
	"math/rand"
	"testing"

	"musa/internal/apps"
	"musa/internal/trace"
)

// referenceReplay is the replay as it was before traces were compiled: it
// validates the trace on every call and matches messages through a map of
// per-pair logs that grow by append. Program.Replay must match it bit for
// bit.
func referenceReplay(b *trace.Burst, m Model, scale ComputeScale) Result {
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
	return res
}

// sameResult reports whether two replays agree with == on every field.
func sameResult(a, b Result) bool {
	if a.MakespanNs != b.MakespanNs || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for r := range a.Ranks {
		if a.Ranks[r] != b.Ranks[r] {
			return false
		}
	}
	return true
}

// testScales are the compute scales the diff tests replay under: none, one
// factor for every rank, and a factor that depends on the rank.
var testScales = map[string]ComputeScale{
	"none":    nil,
	"uniform": func(rank int, d float64) float64 { return d * 0.37 },
	"by-rank": func(rank int, d float64) float64 { return d * (0.5 + float64(rank%7)/4) },
}

// TestReplayMatchesReference replays every application's burst trace at
// small, odd and large rank counts on every named network under every test
// scale, compiled and reference, and requires the same result field for
// field.
func TestReplayMatchesReference(t *testing.T) {
	ranks := []int{2, 3, 64, 256, 1024}
	if testing.Short() {
		ranks = ranks[:3]
	}
	for _, n := range ranks {
		for _, app := range apps.All() {
			b := apps.BurstTrace(app, n, 3)
			p, err := Compile(b)
			if err != nil {
				t.Fatalf("%s/%d: %v", app.Name, n, err)
			}
			for _, name := range ModelNames() {
				m, _ := ByName(name)
				for sname, scale := range testScales {
					got, _ := p.Replay(t.Context(), m, scale)
					if want := referenceReplay(b, m, scale); !sameResult(got, want) {
						t.Errorf("%s/%d ranks/%s/%s scale: compiled replay differs from the reference", app.Name, n, name, sname)
					}
				}
			}
		}
	}
}

// randomBalancedBurst draws a trace that is balanced and deadlock-free by
// construction: it is a sequence of steps, each appending matching events to
// the ranks it involves — compute on some ranks, a send/receive pair, a chain
// of exchanges (send, sendrecv…, recv), a cycle of exchanges, or a
// collective every rank joins with a size of its own — so replaying the steps
// in order is a valid execution. Sizes straddle the eager threshold.
func randomBalancedBurst(rng *rand.Rand, ranks, steps int) *trace.Burst {
	b := &trace.Burst{App: "fuzz", Regions: []trace.RegionInfo{{Name: "r"}}}
	for r := 0; r < ranks; r++ {
		b.Ranks = append(b.Ranks, trace.RankTrace{Rank: r})
	}
	add := func(r int, ev trace.Event) { b.Ranks[r].Events = append(b.Ranks[r].Events, ev) }
	size := func() int64 {
		sizes := []int64{1, 512, 16 * 1024, 16*1024 + 1, 1 << 20}
		if rng.Intn(4) == 0 {
			return 1 + rng.Int63n(1<<21)
		}
		return sizes[rng.Intn(len(sizes))]
	}
	// distinct returns k distinct ranks in random order.
	distinct := func(k int) []int { return rng.Perm(ranks)[:k] }
	for s := 0; s < steps; s++ {
		switch rng.Intn(6) {
		case 0, 1:
			for r := 0; r < ranks; r++ {
				if rng.Intn(2) == 0 {
					add(r, trace.Event{Kind: trace.EvCompute, DurationNs: float64(rng.Intn(5000)) + rng.Float64()})
				}
			}
		case 2:
			x := distinct(2)
			bytes := size()
			add(x[0], trace.Event{Kind: trace.EvSend, Peer: x[1], Bytes: bytes})
			add(x[1], trace.Event{Kind: trace.EvRecv, Peer: x[0], Bytes: bytes})
		case 3:
			if ranks < 3 {
				continue
			}
			x := distinct(2 + rng.Intn(ranks-1))
			last := len(x) - 1
			add(x[0], trace.Event{Kind: trace.EvSend, Peer: x[1], Bytes: size()})
			for i := 1; i < last; i++ {
				add(x[i], trace.Event{Kind: trace.EvSendRecv, Peer: x[i+1], RecvPeer: x[i-1], Bytes: size()})
			}
			add(x[last], trace.Event{Kind: trace.EvRecv, Peer: x[last-1], Bytes: 1})
		case 4:
			x := distinct(2 + rng.Intn(ranks-1))
			for i, r := range x {
				next, prev := x[(i+1)%len(x)], x[(i+len(x)-1)%len(x)]
				add(r, trace.Event{Kind: trace.EvSendRecv, Peer: next, RecvPeer: prev, Bytes: size()})
			}
		case 5:
			kind := []trace.EventKind{trace.EvAllReduce, trace.EvBarrier, trace.EvBcast}[rng.Intn(3)]
			for r := 0; r < ranks; r++ {
				add(r, trace.Event{Kind: kind, Bytes: size()})
			}
		}
	}
	return b
}

// FuzzReplayMatchesReference holds the compiled replay to the reference on
// random balanced traces, every named network and every test scale. The
// seed corpus is in testdata/fuzz/FuzzReplayMatchesReference.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, ranks, steps uint8) {
		n := 2 + int(ranks)%31
		b := randomBalancedBurst(rand.New(rand.NewSource(int64(seed))), n, int(steps))
		p, err := Compile(b)
		if err != nil {
			t.Fatalf("a balanced trace did not compile: %v", err)
		}
		for _, name := range ModelNames() {
			m, _ := ByName(name)
			for sname, scale := range testScales {
				got, _ := p.Replay(t.Context(), m, scale)
				if want := referenceReplay(b, m, scale); !sameResult(got, want) {
					t.Fatalf("%s/%s scale: compiled %+v, reference %+v", name, sname, got, want)
				}
			}
		}
	})
}

// TestCompiledReplayAllocations pins the replay's allocations to its result
// and its working state: the same handful at 64 ranks as at 1024, nothing
// per message.
func TestCompiledReplayAllocations(t *testing.T) {
	var counts []float64
	for _, n := range []int{64, 1024} {
		p, err := Compile(apps.BurstTrace(apps.BTMZ(), n, 1))
		if err != nil {
			t.Fatal(err)
		}
		scale := testScales["by-rank"]
		counts = append(counts, testing.AllocsPerRun(3, func() { p.Replay(t.Context(), model(), scale) }))
	}
	if counts[0] != counts[1] || counts[1] > 3 {
		t.Errorf("allocations per replay at 64 and 1024 ranks: %v, want the same, at most 3", counts)
	}
}

// TestCompileRefusesUnbalancedTrace is the corrupt-artifact case: a trace
// whose only receive is gone would deadlock a replay, so it never compiles.
func TestCompileRefusesUnbalancedTrace(t *testing.T) {
	b := &trace.Burst{App: "lost-recv", Regions: []trace.RegionInfo{{Name: "r"}}}
	b.Ranks = []trace.RankTrace{
		{Rank: 0, Events: []trace.Event{{Kind: trace.EvSend, Peer: 1, Bytes: 1 << 20}}},
		{Rank: 1, Events: []trace.Event{{Kind: trace.EvCompute, RegionID: 0, DurationNs: 10}}},
	}
	if _, err := Compile(b); err == nil {
		t.Fatal("a send with no receive compiled")
	}
}
