package trace

import (
	"bytes"
	"reflect"
	"testing"

	"musa/internal/isa"
	"musa/internal/rts"
)

func sampleBurst() *Burst {
	region := RegionInfo{
		Name: "solver",
		Graph: rts.Region{
			Name: "solver",
			Tasks: []rts.Task{
				{ID: 0, DurationNs: 100},
				{ID: 1, DurationNs: 120, Deps: []int{0}},
			},
		},
		Instructions: 100000,
	}
	b := &Burst{App: "toy", Regions: []RegionInfo{region}}
	for r := 0; r < 2; r++ {
		peer := 1 - r
		b.Ranks = append(b.Ranks, RankTrace{
			Rank: r,
			Events: []Event{
				{Kind: EvCompute, RegionID: 0, DurationNs: 220},
				{Kind: EvSend, Peer: peer, Bytes: 4096},
				{Kind: EvRecv, Peer: peer, Bytes: 4096},
				{Kind: EvAllReduce, Bytes: 64},
			},
		})
	}
	return b
}

func TestValidateOK(t *testing.T) {
	if err := sampleBurst().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*Burst){
		func(b *Burst) { b.Ranks = nil },
		func(b *Burst) { b.Ranks[0].Rank = 5 },
		func(b *Burst) { b.Ranks[0].Events[0].RegionID = 9 },
		func(b *Burst) { b.Ranks[0].Events[0].DurationNs = -1 },
		func(b *Burst) { b.Ranks[0].Events[1].Peer = 0 }, // self-send
		func(b *Burst) { b.Ranks[0].Events[1].Bytes = 0 },
		func(b *Burst) { b.Regions[0].Graph.Tasks[1].Deps = []int{7} },
	}
	for i, mutate := range cases {
		b := sampleBurst()
		mutate(b)
		if err := b.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := sampleBurst().Summarize()
	if s.Ranks != 2 || s.Regions != 1 {
		t.Errorf("ranks/regions = %d/%d", s.Ranks, s.Regions)
	}
	if s.P2PMessages != 2 || s.P2PBytes != 8192 {
		t.Errorf("p2p = %d msgs %d bytes", s.P2PMessages, s.P2PBytes)
	}
	if s.Collectives != 2 {
		t.Errorf("collectives = %d", s.Collectives)
	}
	if s.ComputeNs != 440 {
		t.Errorf("compute = %v", s.ComputeNs)
	}
}

func TestBurstRoundTrip(t *testing.T) {
	b := sampleBurst()
	var buf bytes.Buffer
	if err := WriteBurst(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBurst(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Error("burst round trip mismatch")
	}
}

func TestReadBurstRejectsGarbage(t *testing.T) {
	if _, err := ReadBurst(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadBurst(bytes.NewBufferString(`{"app":"x","ranks":[]}`)); err == nil {
		t.Error("invalid burst accepted")
	}
}

func TestDetailedRoundTrip(t *testing.T) {
	d := &Detailed{
		App:    "toy",
		Region: "solver",
		Rank:   3,
		Instrs: []isa.Instr{
			{Addr: 0xdeadbeef, PC: 1, BB: 2, Dep1: 3, Dep2: -1, Size: 8, Class: isa.Load, Lanes: 2, Vectorizable: true},
			{PC: 4, BB: 2, Class: isa.Branch, Lanes: 1},
			{PC: 5, BB: 3, Class: isa.FPFMA, Lanes: 8, Vectorizable: true},
		},
	}
	var buf bytes.Buffer
	if err := WriteDetailed(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDetailed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Errorf("detailed round trip mismatch:\n%+v\n%+v", d, got)
	}
}

func TestDetailedRejectsBadMagic(t *testing.T) {
	if _, err := ReadDetailed(bytes.NewBufferString("NOTMUSA!xxxxxxxxxxx")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadDetailed(bytes.NewBuffer(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDetailedTruncation(t *testing.T) {
	d := &Detailed{App: "a", Region: "r", Instrs: make([]isa.Instr, 100)}
	var buf bytes.Buffer
	if err := WriteDetailed(&buf, d); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-16]
	if _, err := ReadDetailed(bytes.NewBuffer(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d unprintable", k)
		}
	}
	if !EvSend.IsMPI() || EvCompute.IsMPI() {
		t.Error("IsMPI wrong")
	}
	if !EvBarrier.IsCollective() || EvSend.IsCollective() {
		t.Error("IsCollective wrong")
	}
}

// TestValidateRefusesWhatCanOnlyDeadlock covers the balance checks: every
// per-event check passes, and a replay could only deadlock.
func TestValidateRefusesWhatCanOnlyDeadlock(t *testing.T) {
	cases := map[string]func(*Burst){
		"send without receive": func(b *Burst) {
			b.Ranks[1].Events[2] = Event{Kind: EvCompute, DurationNs: 1}
		},
		"receive without send": func(b *Burst) {
			b.Ranks[0].Events[1] = Event{Kind: EvCompute, DurationNs: 1}
		},
		"sendrecv half unmatched": func(b *Burst) {
			b.Ranks[0].Events[1] = Event{Kind: EvSendRecv, Peer: 1, RecvPeer: 1, Bytes: 8}
		},
		"collective count differs": func(b *Burst) {
			b.Ranks[1].Events = append(b.Ranks[1].Events, Event{Kind: EvBarrier})
		},
	}
	for name, mutate := range cases {
		b := sampleBurst()
		mutate(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	// A sendrecv pairs with a plain send and receive as well as with its own
	// kind: balanced per directed pair, whatever the events.
	b := sampleBurst()
	b.Ranks[0].Events[1] = Event{Kind: EvSendRecv, Peer: 1, RecvPeer: 1, Bytes: 8}
	b.Ranks[0].Events[2] = Event{Kind: EvCompute, DurationNs: 1}
	if err := b.Validate(); err != nil {
		t.Errorf("balanced exchange refused: %v", err)
	}
}

// TestMatchPairsFIFO checks the message numbering: receive #k of a pair
// consumes send #k of the pair, whichever rank's events come first.
func TestMatchPairsFIFO(t *testing.T) {
	b := &Burst{App: "fifo", Ranks: []RankTrace{
		{Rank: 0, Events: []Event{
			{Kind: EvRecv, Peer: 2, Bytes: 1},
			{Kind: EvSend, Peer: 1, Bytes: 1},
			{Kind: EvSend, Peer: 1, Bytes: 2},
		}},
		{Rank: 1, Events: []Event{
			{Kind: EvRecv, Peer: 0, Bytes: 1},
			{Kind: EvSendRecv, Peer: 2, RecvPeer: 0, Bytes: 3},
		}},
		{Rank: 2, Events: []Event{
			{Kind: EvSend, Peer: 0, Bytes: 1},
			{Kind: EvRecv, Peer: 1, Bytes: 3},
		}},
	}}
	m, err := b.Match()
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 4 {
		t.Fatalf("%d messages, want 4", m.Messages)
	}
	// Events in rank order: 0:recv, 0:send, 0:send, 1:recv, 1:sendrecv,
	// 2:send, 2:recv.
	sends := []int32{-1, 0, 1, -1, 2, 3, -1}
	recvs := []int32{3, -1, -1, 0, 1, -1, 2}
	if !reflect.DeepEqual(m.SendID, sends) || !reflect.DeepEqual(m.RecvID, recvs) {
		t.Errorf("send ids %v, receive ids %v; want %v and %v", m.SendID, m.RecvID, sends, recvs)
	}
}
