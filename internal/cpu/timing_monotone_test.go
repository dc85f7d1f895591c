package cpu_test

import (
	"math/rand"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
)

// requireMonotoneInMem replays tr on cfg with lat.Mem stepped upward from
// L3+1 to at least top, by steps step draws, and fails on the first step at
// which the cycle count falls. It returns the number of steps taken.
func requireMonotoneInMem(t testing.TB, cfg cpu.Config, tr trace, lat cpu.LevelLatencies, top int64, step func() int64) int {
	t.Helper()
	lat.Mem = lat.L3 + 1
	prev := cpu.RunTiming(cfg, tr.ann, lat).Cycles
	steps := 0
	for lat.Mem < top {
		lo := lat.Mem
		lat.Mem += step()
		cycles := cpu.RunTiming(cfg, tr.ann, lat).Cycles
		if cycles < prev {
			t.Fatalf("cfg %+v, %d ops: cycles fell from %d to %d as lat.Mem rose from %d to %d (L1 %d, L2 %d, L3 %d)",
				cfg, tr.ann.Len(), prev, cycles, lo, lat.Mem, lat.L1, lat.L2, lat.L3)
		}
		prev = cycles
		steps++
	}
	return steps
}

// TestRunTimingMonotoneInMemLatency: a slower memory never makes a replay
// finish sooner. An out-of-order model can show timing anomalies, so the
// property is checked rather than assumed — on seeded random streams over
// random cores, and on the five applications' real annotations at 128 and
// 512 bits on the four Table I cores, each with lat.Mem stepped upward in
// random increments from one cycle past L3.
func TestRunTimingMonotoneInMemLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	step := func() int64 { return 1 + rng.Int63n(40) }
	steps := 0
	for round := 0; round < 200; round++ {
		tr := annotationOf(t, randomOps(rng, 1+rng.Intn(3000)))
		lat := cpu.LevelLatencies{
			L1: int64(1 + rng.Intn(5)), L2: int64(5 + rng.Intn(15)), L3: int64(20 + rng.Intn(60)),
		}
		steps += requireMonotoneInMem(t, randomConfig(rng), tr, lat, 800, step)
	}
	for _, app := range apps.All() {
		for _, bits := range []int{128, 512} {
			_, hrt, tr := appTrace(t, app, bits)
			for _, core := range cpu.AllConfigs() {
				steps += requireMonotoneInMem(t, core, tr, cpu.LatenciesFor(hrt.HierCfg, 0, 2.0), 1200, step)
			}
		}
	}
	t.Logf("%d latency steps, no fall", steps)
}

// FuzzRunTimingMonotoneInMemLatency looks for a stream and a core on which
// raising lat.Mem from lo to hi, both past L3, lowers the cycle count.
func FuzzRunTimingMonotoneInMemLatency(f *testing.F) {
	// One input per regime: missing loads behind a chain, a store burst
	// missing to memory, an FP run fed by loads, and loads behind a
	// mispredicting branch, on small and large cores.
	chain := func(ops ...byte) []byte {
		var data []byte
		for range 40 {
			for _, b := range ops {
				data = append(data, b, 1, 3)
			}
		}
		return data
	}
	const load, store, fpmul, branch = 6, 7, 3, 8
	const mem, l3 = 4 << 4, 3 << 4
	f.Add(chain(load|mem, load|l3, 0), uint16(64), uint8(4), uint8(16), uint8(2), uint8(2), uint8(80), uint8(80), uint16(0), uint16(200))
	f.Add(chain(store|mem, store|mem, 0), uint16(200), uint8(6), uint8(4), uint8(3), uint8(3), uint8(180), uint8(180), uint16(30), uint16(7))
	f.Add(chain(load|mem, fpmul, fpmul, load|l3), uint16(511), uint8(9), uint8(100), uint8(5), uint8(5), uint8(20), uint8(20), uint16(500), uint16(1))
	f.Add(chain(load|mem, branch|1<<7, load|mem, 0), uint16(32), uint8(2), uint8(8), uint8(1), uint8(1), uint8(200), uint8(200), uint16(5), uint16(60))
	f.Fuzz(func(t *testing.T, data []byte, rob uint16, width, sb, alus, fpus, intRF, fpRF uint8, memLat, delta uint16) {
		cfg := cpu.Config{
			Name: "fuzz", ROB: 1 + int(rob%512), IssueWidth: 1 + int(width%10),
			StoreBuffer: 1 + int(sb%160),
			ALUs:        1 + int(alus%cpu.MaxPorts), FPUs: 1 + int(fpus%cpu.MaxPorts),
			IntRF: 1 + int(intRF%220), FPRF: 1 + int(fpRF%220),
		}
		tr := annotationOf(t, fuzzOps(data))
		lo := cpu.LevelLatencies{L1: 4, L2: 11, L3: 68, Mem: 69 + int64(memLat%2000)}
		hi := lo
		hi.Mem += 1 + int64(delta%512)
		if a, b := cpu.RunTiming(cfg, tr.ann, lo).Cycles, cpu.RunTiming(cfg, tr.ann, hi).Cycles; b < a {
			t.Fatalf("cfg %+v, %d ops: %d cycles at lat.Mem %d, %d at %d", cfg, tr.ann.Len(), a, lo.Mem, b, hi.Mem)
		}
	})
}
