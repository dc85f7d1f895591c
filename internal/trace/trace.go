// Package trace defines MUSA's multi-level traces. A burst trace captures
// the whole execution of every MPI rank at coarse grain: compute regions
// (with their runtime-system task graphs, so the region can be re-simulated
// at any core count) interleaved with MPI communication events. A detailed
// trace is the instruction-level record of one sampled compute region of one
// rank (the paper traces one iteration of one rank with DynamoRIO).
//
// Both levels serialize: burst traces as JSON (they are small and human-
// inspectable, like Extrae's), detailed traces in a compact little-endian
// binary format (they are large).
package trace

import (
	"fmt"
	"slices"
	"sync/atomic"

	"musa/internal/rts"
)

// EventKind discriminates burst-trace events.
type EventKind uint8

// Burst event kinds.
const (
	EvCompute EventKind = iota
	EvSend
	EvRecv
	EvAllReduce
	EvBarrier
	EvBcast
	// EvSendRecv is a combined exchange (MPI_Sendrecv / pre-posted
	// MPI_Irecv): the receive from RecvPeer is posted when the event is
	// entered, concurrently with the send to Peer, and the event completes
	// when both halves do. Halo exchanges use it so blocking rendezvous
	// sends cannot deadlock on exchange ordering.
	EvSendRecv
	numEventKinds
)

var kindNames = [numEventKinds]string{"compute", "send", "recv", "allreduce", "barrier", "bcast", "sendrecv"}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsCollective reports whether the event synchronizes all ranks.
func (k EventKind) IsCollective() bool {
	return k == EvAllReduce || k == EvBarrier || k == EvBcast
}

// Event is one burst-trace event of one rank.
type Event struct {
	Kind EventKind `json:"kind"`
	// RegionID indexes Burst.Regions for EvCompute events.
	RegionID int `json:"region,omitempty"`
	// DurationNs is the traced duration for compute events (burst timing,
	// replaced by simulation results in detailed mode).
	DurationNs float64 `json:"dur_ns,omitempty"`
	// Peer is the partner rank for point-to-point events (the send
	// destination for EvSendRecv).
	Peer int `json:"peer,omitempty"`
	// RecvPeer is the receive source of an EvSendRecv exchange.
	RecvPeer int `json:"recv_peer,omitempty"`
	// Bytes is the message (or collective contribution) size.
	Bytes int64 `json:"bytes,omitempty"`
}

// RegionInfo describes one compute region: its runtime-system task graph
// (the runtime events MUSA records so regions can be re-simulated with any
// number of cores) and the instruction footprint used to rescale durations
// in detailed mode.
type RegionInfo struct {
	Name string `json:"name"`
	// Graph is the task graph replayed by the rts simulator.
	Graph rts.Region `json:"graph"`
	// Instructions is the dynamic scalar instruction count of the region
	// (one rank), used to map core-model IPC into task durations.
	Instructions int64 `json:"instructions"`
}

// RankTrace is the event sequence of one MPI rank.
type RankTrace struct {
	Rank   int     `json:"rank"`
	Events []Event `json:"events"`
}

// Burst is a whole-application coarse-grain trace.
type Burst struct {
	App     string       `json:"app"`
	Ranks   []RankTrace  `json:"ranks"`
	Regions []RegionInfo `json:"regions"`

	// matched is the trace's first successful Matched result, kept for the
	// replays that compile it again.
	matched atomic.Pointer[Matching]
}

// Validate checks structural invariants. Point-to-point matching is FIFO per
// directed (src, dst) pair and collectives synchronize every rank, so a pair
// whose sends (EvSend and the send half of EvSendRecv) and receives differ in
// count, or ranks that reach different numbers of collectives, are refused
// here: a replay of either could only deadlock.
func (b *Burst) Validate() error {
	_, err := b.Match()
	return err
}

// Matching pairs every point-to-point send of a burst trace with the receive
// that consumes it: receive #k of a directed (src, dst) pair consumes send #k
// of that pair. Messages are numbered densely, pair by pair.
type Matching struct {
	Messages int
	// SendID and RecvID hold, for every event of every rank in order (rank
	// 0's events first), the message its send half and its receive half
	// carry; -1 where the event has no such half.
	SendID, RecvID []int32
}

// Matched is Match, once: the first successful result is kept with the
// trace and returned by every later call, so a trace replayed many times is
// validated and paired once. A Burst must not change once matched.
func (b *Burst) Matched() (*Matching, error) {
	if m := b.matched.Load(); m != nil {
		return m, nil
	}
	m, err := b.Match()
	if err != nil {
		return nil, err
	}
	b.matched.Store(&m)
	return &m, nil
}

// Match validates the trace (see Validate) and pairs its messages.
func (b *Burst) Match() (Matching, error) {
	if len(b.Ranks) == 0 {
		return Matching{}, fmt.Errorf("trace: burst %q has no ranks", b.App)
	}
	events := 0
	collectives := 0 // rank 0's count, which every rank must match
	for i, rt := range b.Ranks {
		if rt.Rank != i {
			return Matching{}, fmt.Errorf("trace: rank %d stored at index %d", rt.Rank, i)
		}
		colls := 0
		for j := range rt.Events {
			ev := &rt.Events[j]
			if err := b.checkEvent(i, j, ev); err != nil {
				return Matching{}, err
			}
			if ev.Kind.IsCollective() {
				colls++
			}
		}
		if i == 0 {
			collectives = colls
		} else if colls != collectives {
			return Matching{}, fmt.Errorf("trace: rank %d reaches %d collectives, rank 0 reaches %d", i, colls, collectives)
		}
		events += len(rt.Events)
	}
	m, err := b.match(events)
	if err != nil {
		return Matching{}, err
	}
	for ri, reg := range b.Regions {
		if err := reg.Graph.Validate(); err != nil {
			return Matching{}, fmt.Errorf("trace: region %d: %w", ri, err)
		}
	}
	return m, nil
}

// checkEvent reports what is wrong with event j of rank i on its own.
func (b *Burst) checkEvent(i, j int, ev *Event) error {
	switch {
	case ev.Kind >= numEventKinds:
		return fmt.Errorf("trace: rank %d event %d has kind %d", i, j, ev.Kind)
	case ev.Kind == EvCompute:
		if ev.RegionID < 0 || ev.RegionID >= len(b.Regions) {
			return fmt.Errorf("trace: rank %d event %d region %d out of range", i, j, ev.RegionID)
		}
		if ev.DurationNs < 0 {
			return fmt.Errorf("trace: rank %d event %d negative duration", i, j)
		}
	case ev.Kind == EvSend || ev.Kind == EvRecv || ev.Kind == EvSendRecv:
		if ev.Peer < 0 || ev.Peer >= len(b.Ranks) || ev.Peer == i {
			return fmt.Errorf("trace: rank %d event %d bad peer %d", i, j, ev.Peer)
		}
		if ev.Kind == EvSendRecv && (ev.RecvPeer < 0 || ev.RecvPeer >= len(b.Ranks) || ev.RecvPeer == i) {
			return fmt.Errorf("trace: rank %d event %d bad recv peer %d", i, j, ev.RecvPeer)
		}
		if ev.Bytes <= 0 {
			return fmt.Errorf("trace: rank %d event %d p2p with %d bytes", i, j, ev.Bytes)
		}
	}
	return nil
}

// match pairs the messages of a trace whose events are individually valid,
// and refuses a pair whose sends and receives differ in count. It walks the
// senders, numbering each rank's outgoing pairs in order of first send, then
// the receivers, each with its incoming pairs at hand: arrays indexed by
// rank, no map.
func (b *Burst) match(events int) (Matching, error) {
	n := len(b.Ranks)
	ids := make([]int32, 2*events)
	m := Matching{SendID: ids[:events:events], RecvID: ids[events:]}
	pairOf := make([]int32, n) // peer -> pair of the rank being walked, -1 = none
	for i := range pairOf {
		pairOf[i] = -1
	}
	var src, dst, next []int32 // per pair; next is its next send's message id
	e := 0
	for r, rt := range b.Ranks {
		first := len(dst)
		for j := range rt.Events {
			ev := &rt.Events[j]
			m.SendID[e] = -1
			if ev.Kind == EvSend || ev.Kind == EvSendRecv {
				c := pairOf[ev.Peer]
				if c < 0 {
					c = int32(len(dst))
					pairOf[ev.Peer] = c
					src, dst, next = append(src, int32(r)), append(dst, int32(ev.Peer)), append(next, 0)
				}
				m.SendID[e] = c // the pair for now, the message id below
				next[c]++
			}
			e++
		}
		for _, d := range dst[first:] {
			pairOf[d] = -1
		}
	}
	// Pair c owns message ids [recv[c], next[c]) once its sends are numbered.
	recv := make([]int32, len(next))
	for c, k := range next {
		recv[c] = int32(m.Messages)
		next[c] = int32(m.Messages)
		m.Messages += int(k)
	}
	for i, c := range m.SendID {
		if c >= 0 {
			m.SendID[i] = next[c]
			next[c]++
		}
	}
	// The pairs into each rank, grouped by destination (a counting sort).
	inStart := make([]int32, n+1)
	for _, d := range dst {
		inStart[d+1]++
	}
	for r := 0; r < n; r++ {
		inStart[r+1] += inStart[r]
	}
	in := make([]int32, len(dst))
	fill := slices.Clone(inStart[:n])
	for c, d := range dst {
		in[fill[d]] = int32(c)
		fill[d]++
	}
	e = 0
	for r, rt := range b.Ranks {
		into := in[inStart[r]:inStart[r+1]]
		for _, c := range into {
			pairOf[src[c]] = c
		}
		for j := range rt.Events {
			ev := &rt.Events[j]
			m.RecvID[e] = -1
			from := -1
			switch ev.Kind {
			case EvRecv:
				from = ev.Peer
			case EvSendRecv:
				from = ev.RecvPeer
			}
			if from >= 0 {
				c := pairOf[from]
				if c < 0 || recv[c] == next[c] {
					return Matching{}, fmt.Errorf("trace: %d -> %d has more receives than sends", from, r)
				}
				m.RecvID[e] = recv[c]
				recv[c]++
			}
			e++
		}
		for _, c := range into {
			pairOf[src[c]] = -1
			if recv[c] != next[c] {
				return Matching{}, fmt.Errorf("trace: %d -> %d has more sends than receives", src[c], r)
			}
		}
	}
	return m, nil
}

// Stats summarizes a burst trace.
type Stats struct {
	Ranks       int
	Events      int
	ComputeNs   float64 // total traced compute time across ranks
	P2PMessages int
	P2PBytes    int64
	Collectives int
	Regions     int
}

// Summarize computes trace statistics.
func (b *Burst) Summarize() Stats {
	s := Stats{Ranks: len(b.Ranks), Regions: len(b.Regions)}
	for _, rt := range b.Ranks {
		s.Events += len(rt.Events)
		for _, ev := range rt.Events {
			switch {
			case ev.Kind == EvCompute:
				s.ComputeNs += ev.DurationNs
			case ev.Kind == EvSend, ev.Kind == EvSendRecv:
				s.P2PMessages++
				s.P2PBytes += ev.Bytes
			case ev.Kind.IsCollective():
				s.Collectives++
			}
		}
	}
	return s
}
