package dram

import (
	"testing"

	"musa/internal/cache"
	"musa/internal/sim"
	"musa/internal/xrand"
)

// mixedProfile exercises all three access patterns with reads and writes,
// the shape of address stream node.estimatePower feeds the open-loop runner.
var mixedProfile = cache.LocalityProfile{Regions: []cache.Region{
	{Name: "stream", Bytes: 64 << 20, Weight: 0.5, Pattern: cache.Sequential, WriteFrac: 0.3},
	{Name: "table", Bytes: 256 << 20, Weight: 0.2, Pattern: cache.RandomLine},
	{Name: "tiles", Bytes: 128 << 20, Weight: 0.3, Pattern: cache.RandomBlock, WriteFrac: 0.5},
}}

func mixedSource() AddrSource { return cache.NewAddressGen(mixedProfile, xrand.New(0xbeef)) }

// TestOpenLoopPinned holds RunOpenLoop to the numbers it produced while every
// request still carried a completion event (recorded at the commit before
// those events were removed): a completion event never touched the
// controller, so taking it out of the engine's queue may not move a single
// counter. 2 000 requests at seed 7, offered load as a share of peak.
func TestOpenLoopPinned(t *testing.T) {
	hbm := Config{Spec: HBM2(), Channels: 16}
	pins := []struct {
		name       string
		cfg        Config
		policy     SchedPolicy
		load       float64
		stats      Stats
		avgLatency sim.Time
		achievedBW float64
	}{
		{"ddr4x4", ddr4(4), FRFCFS, 0.05, Stats{Commands: CommandStats{Act: 505, Pre: 258, Rd: 1432, Wr: 568, Ref: 16}, Reads: 1432, Writes: 568, TotalLatency: 61968133, DataBusBusy: 6856000, LastFinish: 34600405, RowHits: 1495, RowMisses: 247, RowConflicts: 258}, 30984, 3.699378663342235e+09},
		{"ddr4x4", ddr4(4), FRFCFS, 0.7, Stats{Commands: CommandStats{Act: 481, Pre: 417, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 284240053, DataBusBusy: 6856000, LastFinish: 2884567, RowHits: 1519, RowMisses: 64, RowConflicts: 417}, 142120, 4.4374077634528854e+10},
		{"ddr4x4", ddr4(4), FRFCFS, 1.3, Stats{Commands: CommandStats{Act: 481, Pre: 417, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 1171703328, DataBusBusy: 6856000, LastFinish: 2753094, RowHits: 1519, RowMisses: 64, RowConflicts: 417}, 585851, 4.64931455300836e+10},
		{"ddr4x8", ddr4(8), FRFCFS, 0.05, Stats{Commands: CommandStats{Act: 510, Pre: 252, Rd: 1432, Wr: 568, Ref: 16}, Reads: 1432, Writes: 568, TotalLatency: 63188771, DataBusBusy: 6856000, LastFinish: 17312076, RowHits: 1490, RowMisses: 258, RowConflicts: 252}, 31594, 7.393682883554809e+09},
		{"ddr4x8", ddr4(8), FRFCFS, 0.7, Stats{Commands: CommandStats{Act: 491, Pre: 364, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 209382263, DataBusBusy: 6856000, LastFinish: 1542829, RowHits: 1509, RowMisses: 127, RowConflicts: 364}, 104691, 8.296447629646577e+10},
		{"ddr4x8", ddr4(8), FRFCFS, 1.3, Stats{Commands: CommandStats{Act: 491, Pre: 364, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 615701011, DataBusBusy: 6856000, LastFinish: 1448083, RowHits: 1509, RowMisses: 127, RowConflicts: 364}, 307850, 8.839272334527786e+10},
		{"hbm-frfcfs", hbm, FRFCFS, 0.05, Stats{Commands: CommandStats{Act: 546, Pre: 151, Rd: 1432, Wr: 568, Ref: 32}, Reads: 1432, Writes: 568, TotalLatency: 62478477, DataBusBusy: 4000000, LastFinish: 10106685, RowHits: 1454, RowMisses: 395, RowConflicts: 151}, 31239, 1.2664884677814734e+10},
		{"hbm-frfcfs", hbm, FRFCFS, 0.7, Stats{Commands: CommandStats{Act: 502, Pre: 282, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 100938243, DataBusBusy: 4000000, LastFinish: 837032, RowHits: 1498, RowMisses: 220, RowConflicts: 282}, 50469, 1.529212742165174e+11},
		{"hbm-frfcfs", hbm, FRFCFS, 1.3, Stats{Commands: CommandStats{Act: 502, Pre: 282, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 198769023, DataBusBusy: 4000000, LastFinish: 688018, RowHits: 1498, RowMisses: 220, RowConflicts: 282}, 99384, 1.8604164425930716e+11},
		{"hbm-fcfs", hbm, FCFS, 0.05, Stats{Commands: CommandStats{Act: 546, Pre: 151, Rd: 1432, Wr: 568, Ref: 32}, Reads: 1432, Writes: 568, TotalLatency: 63462339, DataBusBusy: 4000000, LastFinish: 10106685, RowHits: 1454, RowMisses: 395, RowConflicts: 151}, 31731, 1.2664884677814734e+10},
		{"hbm-fcfs", hbm, FCFS, 0.7, Stats{Commands: CommandStats{Act: 502, Pre: 282, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 102249749, DataBusBusy: 4000000, LastFinish: 837032, RowHits: 1498, RowMisses: 220, RowConflicts: 282}, 51124, 1.529212742165174e+11},
		{"hbm-fcfs", hbm, FCFS, 1.3, Stats{Commands: CommandStats{Act: 502, Pre: 282, Rd: 1432, Wr: 568, Ref: 0}, Reads: 1432, Writes: 568, TotalLatency: 199682733, DataBusBusy: 4000000, LastFinish: 688018, RowHits: 1498, RowMisses: 220, RowConflicts: 282}, 99841, 1.8604164425930716e+11},
	}
	for _, p := range pins {
		got := RunOpenLoop(p.cfg, p.policy, p.load*p.cfg.PeakBandwidth(), mixedSource(), 2000, 7)
		if got.Stats != p.stats {
			t.Errorf("%s at %.2f of peak: stats %+v, pinned %+v", p.name, p.load, got.Stats, p.stats)
		}
		if got.AvgLatency != p.avgLatency || got.AchievedBW != p.achievedBW {
			t.Errorf("%s at %.2f of peak: latency %d bw %v, pinned %d and %v",
				p.name, p.load, got.AvgLatency, got.AchievedBW, p.avgLatency, p.achievedBW)
		}
	}
}

// raceEnabled is set by race_test.go: allocation pins skip under -race,
// where sync.Pool deliberately drops a share of its Puts.
var raceEnabled bool

// TestOpenLoopAllocationsScaleWithBursts bounds the allocations of the run
// node.estimatePower makes once per simulated point. Without an event engine
// there is nothing per request and nothing per burst, and the request slab,
// the controller with its channels and banks, the RNG, the channel queues and
// the touched list come from a pooled scratch reset in place: once the pool
// holds a scratch that has run this configuration, a run allocates nothing
// (26 before the scratch was pooled). The tFAW window is a fixed ring inside
// the channel.
func TestOpenLoopAllocationsScaleWithBursts(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector, and the runner pools its working set")
	}
	const n, bound = 2000, 0
	cfg := ddr4(4)
	src := mixedSource()
	allocs := testing.AllocsPerRun(5, func() {
		RunOpenLoop(cfg, FRFCFS, 0.7*cfg.PeakBandwidth(), src, n, 7)
	})
	if allocs > bound {
		t.Errorf("%v allocations for %d requests, want at most %d", allocs, n, bound)
	}
	t.Logf("%v allocations for %d requests in %d bursts", allocs, n, n/4)
}

func BenchmarkOpenLoop2000(b *testing.B) {
	cfg := ddr4(4)
	b.ReportAllocs()
	for b.Loop() {
		RunOpenLoop(cfg, FRFCFS, 0.7*cfg.PeakBandwidth(), mixedSource(), 2000, 7)
	}
}
