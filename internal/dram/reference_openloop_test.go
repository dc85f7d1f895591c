package dram

import (
	"testing"

	"musa/internal/sim"
	"musa/internal/xrand"
)

// calendar is the oracle's event list: a slice kept in scheduling order, so
// the first entry of the least time is also the earliest scheduled and
// same-time events fire FIFO.
type calendar struct {
	now     sim.Time
	pending []timedCall
}

type timedCall struct {
	when sim.Time
	fn   func(now sim.Time)
}

func (c *calendar) at(t sim.Time, fn func(now sim.Time)) {
	c.pending = append(c.pending, timedCall{t, fn})
}

// run fires events in time order until none is pending.
func (c *calendar) run() {
	for len(c.pending) > 0 {
		least := 0
		for i, e := range c.pending {
			if e.when < c.pending[least].when {
				least = i
			}
		}
		e := c.pending[least]
		c.pending = append(c.pending[:least], c.pending[least+1:]...)
		c.now = e.when
		e.fn(c.now)
	}
}

// referenceRunOpenLoop is the event-driven RunOpenLoop: one pre-scheduled
// submit event per burst, each submit queueing its request and scheduling a
// same-instant drain pass for the channel unless one is already pending. It
// is the oracle the differential and fuzz tests below compare RunOpenLoop's
// slab walk against, field for field.
func referenceRunOpenLoop(cfg Config, policy SchedPolicy, offeredBW float64, src AddrSource, n int, seed uint64) OpenLoopResult {
	var cal calendar
	ctl := NewController(cfg, policy)
	rng := xrand.New(seed)
	submit := func(req *Request) {
		chIdx, _, _ := ctl.mapAddr(req.Addr)
		ch := ctl.channels[chIdx]
		ch.queue = append(ch.queue, req)
		if ch.scheduling {
			return
		}
		ch.scheduling = true
		cal.at(cal.now, func(now sim.Time) {
			ch.scheduling = false
			ctl.drain(ch, now)
		})
	}

	const burst = 4
	lineBytes := 64.0
	meanGap := lineBytes * burst / offeredBW // seconds between bursts

	// Requests come from one slab and each burst shares one event that
	// submits it in order: same-time events fire FIFO, so one event doing
	// four submits is behaviorally identical to four same-time events doing
	// one each.
	reqs := make([]Request, n)
	t := sim.Time(0)
	for i := 0; i < n; i += burst {
		t += sim.FromSeconds(rng.Exponential(meanGap))
		hi := min(i+burst, n)
		for j := i; j < hi; j++ {
			addr, write := src.Next()
			reqs[j] = Request{Addr: addr, Write: write, Arrive: t}
		}
		b := reqs[i:hi]
		cal.at(t, func(sim.Time) {
			for k := range b {
				submit(&b[k])
			}
		})
	}
	cal.run()

	res := OpenLoopResult{
		Stats:      ctl.Stats,
		AvgLatency: ctl.Stats.AvgLatency(),
		AchievedBW: ctl.Stats.AchievedBandwidth(64),
		OfferedBW:  offeredBW,
	}
	res.Utilization = res.AchievedBW / cfg.PeakBandwidth()
	return res
}

// openLoopSource returns a fresh address source: the mixed read/write locality
// profile of the pinned test, or the sequential stream.
func openLoopSource(stream bool) AddrSource {
	if stream {
		return NewStreamSource()
	}
	return mixedSource()
}

// diffOpenLoop runs both implementations on fresh sources and compares the
// whole result.
func diffOpenLoop(t *testing.T, cfg Config, policy SchedPolicy, load float64, n int, stream bool, seed uint64) {
	t.Helper()
	offered := load * cfg.PeakBandwidth()
	want := referenceRunOpenLoop(cfg, policy, offered, openLoopSource(stream), n, seed)
	got := RunOpenLoop(cfg, policy, offered, openLoopSource(stream), n, seed)
	if got != want {
		t.Errorf("%s x%d %v at %v of peak, n=%d, stream=%v, seed %d:\n got %+v\nwant %+v",
			cfg.Spec.Name, cfg.Channels, policy, load, n, stream, seed, got, want)
	}
}

// TestOpenLoopMatchesReference is the differential table: every memory of the
// sweep and of Table II, both policies where the paper ablates them, loads
// from idle to 50x peak — where the mean gap is a few picoseconds, most gaps
// truncate to zero and many bursts meet in the queues at one instant — and
// request counts that leave empty, single-request and ragged last bursts.
func TestOpenLoopMatchesReference(t *testing.T) {
	mems := []struct {
		cfg    Config
		policy SchedPolicy
	}{
		{ddr4(4), FRFCFS}, {ddr4(8), FRFCFS}, {ddr4(16), FRFCFS},
		{Config{Spec: HBM2(), Channels: 16}, FRFCFS},
		{Config{Spec: HBM2(), Channels: 16}, FCFS},
	}
	for _, m := range mems {
		for _, load := range []float64{0.05, 0.5, 1.0, 1.3, 50} {
			for _, n := range []int{0, 1, 3, 4, 2000, 3001} {
				for _, stream := range []bool{false, true} {
					diffOpenLoop(t, m.cfg, m.policy, load, n, stream, 7)
				}
			}
		}
	}
}

// TestOpenLoopOverloadSharesInstants guards the premise of the 50x-peak rows:
// they are only a test of same-instant ordering if bursts do share arrival
// times there.
func TestOpenLoopOverloadSharesInstants(t *testing.T) {
	cfg := Config{Spec: HBM2(), Channels: 16}
	rng := xrand.New(7)
	meanGap := 64.0 * 4 / (50 * cfg.PeakBandwidth())
	shared := 0
	for i := 0; i < 500; i++ {
		if sim.FromSeconds(rng.Exponential(meanGap)) == 0 {
			shared++
		}
	}
	if shared < 10 {
		t.Fatalf("%d of 500 gaps truncate to zero at 50x peak, want many", shared)
	}
}

// FuzzOpenLoopMatchesReference lets the fuzzer pick the memory, the policy,
// the load (in thousandths of peak), the request count, the source and the
// seed. The checked-in corpus holds one input per axis value of the table
// above.
func FuzzOpenLoopMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, chLog uint8, hbm, fcfs bool, loadMilli uint32, n uint16, stream bool, seed uint64) {
		cfg := ddr4(1 << (chLog % 5))
		if hbm {
			cfg.Spec = HBM2()
		}
		policy := FRFCFS
		if fcfs {
			policy = FCFS
		}
		load := float64(1+loadMilli%100_000) / 1000
		diffOpenLoop(t, cfg, policy, load, int(n%4096), stream, seed)
	})
}
