package dram

import (
	"testing"

	"musa/internal/sim"
	"musa/internal/xrand"
)

func ddr4(ch int) Config { return Config{Spec: DDR4_2333(), Channels: ch} }

func TestSpecValidate(t *testing.T) {
	if err := DDR4_2333().Validate(); err != nil {
		t.Errorf("DDR4 spec invalid: %v", err)
	}
	if err := HBM2().Validate(); err != nil {
		t.Errorf("HBM2 spec invalid: %v", err)
	}
	bad := Spec{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Error("empty spec validated")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := ddr4(4).Validate(); err != nil {
		t.Errorf("4ch config invalid: %v", err)
	}
	if err := (Config{Spec: DDR4_2333(), Channels: 3}).Validate(); err == nil {
		t.Error("non-power-of-two channels validated")
	}
	if err := (Config{Spec: DDR4_2333(), Channels: 0}).Validate(); err == nil {
		t.Error("zero channels validated")
	}
}

func TestClockAndBandwidth(t *testing.T) {
	s := DDR4_2333()
	if got := s.ClockPs(); got != 857 {
		t.Errorf("DDR4-2333 clock = %d ps, want 857", got)
	}
	// 2333 MT/s * 8 B = 18.664 GB/s per channel.
	bw := s.PeakChannelBandwidth()
	if bw < 18.6e9 || bw > 18.7e9 {
		t.Errorf("peak channel BW = %v", bw)
	}
	if ddr4(4).PeakBandwidth() != 4*bw {
		t.Error("aggregate BW != channels * channel BW")
	}
}

// drainCold queues reqs, all arriving at time 0, on a cold one-channel DDR4
// controller and drains them.
func drainCold(reqs ...Request) *Controller {
	ctl := NewController(ddr4(1), FRFCFS)
	ch := ctl.channels[0]
	for i := range reqs {
		ch.queue = append(ch.queue, &reqs[i])
	}
	ctl.drain(ch, 0)
	return ctl
}

func TestSingleReadLatency(t *testing.T) {
	ctl := drainCold(Request{Addr: 0})
	// Cold access: ACT + tRCD + tCL + tBL = (16+16+4)*857ps ~ 30.9 ns.
	want := sim.Time(36 * 857)
	if done := ctl.Stats.LastFinish; done != want {
		t.Errorf("cold read completes at %d ps, want %d", done, want)
	}
	if ctl.Stats.Commands.Act != 1 || ctl.Stats.Commands.Rd != 1 {
		t.Errorf("commands = %+v", ctl.Stats.Commands)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	run := func(second uint64) sim.Time {
		return drainCold(Request{Addr: 0}, Request{Addr: second}).Stats.LastFinish
	}
	hit := run(64)           // same row, next line
	conflict := run(1 << 24) // same bank, different row
	if hit >= conflict {
		t.Errorf("row hit (%d) not faster than conflict (%d)", hit, conflict)
	}
}

func TestRowHitRateSequential(t *testing.T) {
	res := RunOpenLoop(ddr4(1), FRFCFS, 2e9, NewStreamSource(), 4000, 1)
	if res.Stats.RowHitRate() < 0.9 {
		t.Errorf("sequential row hit rate = %v, want >0.9", res.Stats.RowHitRate())
	}
}

func TestStreamingApproachesPeak(t *testing.T) {
	cfg := ddr4(1)
	// Offer 130% of peak; achieved bandwidth should exceed 80% of peak for
	// a pure sequential stream (row hits, all channels busy).
	res := RunOpenLoop(cfg, FRFCFS, 1.3*cfg.PeakBandwidth(), NewStreamSource(), 20000, 2)
	if res.Utilization < 0.8 {
		t.Errorf("streaming utilization = %v, want > 0.8", res.Utilization)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	cfg := ddr4(1)
	low := RunOpenLoop(cfg, FRFCFS, 0.05*cfg.PeakBandwidth(), NewStreamSource(), 5000, 3)
	high := RunOpenLoop(cfg, FRFCFS, 1.2*cfg.PeakBandwidth(), NewStreamSource(), 5000, 3)
	if high.AvgLatency <= low.AvgLatency {
		t.Errorf("latency does not grow with load: low=%v high=%v", low.AvgLatency, high.AvgLatency)
	}
}

func TestMoreChannelsMoreBandwidth(t *testing.T) {
	// Offer the same heavy load to 4 and 8 channels: 8 channels must achieve
	// roughly double the bandwidth (the Fig. 8 mechanism).
	offered := 1.2 * ddr4(8).PeakBandwidth()
	r4 := RunOpenLoop(ddr4(4), FRFCFS, offered, NewStreamSource(), 40000, 4)
	r8 := RunOpenLoop(ddr4(8), FRFCFS, offered, NewStreamSource(), 40000, 4)
	ratio := r8.AchievedBW / r4.AchievedBW
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("8ch/4ch bandwidth ratio = %v, want ~2", ratio)
	}
}

func TestHBMLowerLatencyThanDDR4(t *testing.T) {
	load := 4e9
	ddr := RunOpenLoop(ddr4(1), FRFCFS, load, NewStreamSource(), 5000, 5)
	hbm := RunOpenLoop(Config{Spec: HBM2(), Channels: 1}, FRFCFS, load, NewStreamSource(), 5000, 5)
	if hbm.AvgLatency >= ddr.AvgLatency {
		t.Errorf("HBM latency %v >= DDR4 latency %v", hbm.AvgLatency, ddr.AvgLatency)
	}
}

type randSource struct{ rng *xrand.RNG }

func (r *randSource) Next() (uint64, bool) {
	return uint64(r.rng.Int63n(1<<30)) &^ 63, false
}

func TestFRFCFSBeatsFCFSOnMixedTraffic(t *testing.T) {
	// Random traffic arriving in bursts: FR-FCFS should achieve at least as
	// much bandwidth as FCFS (typically more via row-hit reordering).
	mk := func() AddrSource { return &randSource{rng: xrand.New(99)} }
	cfg := ddr4(1)
	fr := RunOpenLoop(cfg, FRFCFS, 0.9*cfg.PeakBandwidth(), mk(), 20000, 6)
	fc := RunOpenLoop(cfg, FCFS, 0.9*cfg.PeakBandwidth(), mk(), 20000, 6)
	if fr.AchievedBW < fc.AchievedBW*0.98 {
		t.Errorf("FR-FCFS BW %v < FCFS BW %v", fr.AchievedBW, fc.AchievedBW)
	}
}

func TestRefreshHappens(t *testing.T) {
	// Run long enough to cross several tREFI periods.
	res := RunOpenLoop(ddr4(1), FRFCFS, 1e9, NewStreamSource(), 60000, 7)
	if res.Stats.Commands.Ref == 0 {
		t.Error("no refresh commands issued")
	}
}

func TestCommandAccounting(t *testing.T) {
	res := RunOpenLoop(ddr4(2), FRFCFS, 5e9, NewStreamSource(), 2000, 8)
	c := res.Stats.Commands
	if c.Rd+c.Wr != res.Stats.Reads+res.Stats.Writes {
		t.Errorf("CAS commands %d != requests %d", c.Rd+c.Wr, res.Stats.Reads+res.Stats.Writes)
	}
	if c.Act == 0 {
		t.Error("no activates")
	}
	if c.Pre > c.Act {
		t.Errorf("more precharges (%d) than activates (%d)", c.Pre, c.Act)
	}
}

func TestAddrMappingStripesChannels(t *testing.T) {
	ctl := NewController(ddr4(4), FRFCFS)
	seen := map[int]bool{}
	for i := uint64(0); i < 16; i++ {
		ch, _, _ := ctl.mapAddr(i * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Errorf("sequential lines hit %d/4 channels", len(seen))
	}
}

func TestLatencyModel(t *testing.T) {
	cfg := ddr4(1)
	m := BuildLatencyModel(cfg, FRFCFS, func() AddrSource { return NewStreamSource() }, 4000, 11)
	if err := m.Validate(); err != nil {
		t.Errorf("a fitted curve fails validation: %v", err)
	}
	lo := m.LatencyNs(0.01 * m.PeakBW)
	hi := m.LatencyNs(1.1 * m.PeakBW)
	if lo <= 0 || hi <= lo {
		t.Errorf("latency model not monotone: lo=%v hi=%v", lo, hi)
	}
	over := m.LatencyNs(3 * m.PeakBW)
	if over <= hi {
		t.Errorf("overload latency %v not beyond saturation %v", over, hi)
	}
	if m.SustainableBW() <= 0.5*m.PeakBW {
		t.Errorf("sustainable BW = %v of peak %v", m.SustainableBW(), m.PeakBW)
	}
}
