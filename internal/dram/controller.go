package dram

import (
	"fmt"

	"musa/internal/sim"
)

// Config describes a memory subsystem: a spec and a channel count. The
// paper's sweep uses 4-channel and 8-channel DDR4-2333; the unconventional
// configurations add 16-channel DDR4 (MEM+) and 16-channel HBM (MEM++).
type Config struct {
	Spec     Spec
	Channels int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Channels <= 0 || c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("dram: channel count %d must be a positive power of two", c.Channels)
	}
	return nil
}

// PeakBandwidth returns the aggregate peak data bandwidth in bytes/second.
func (c Config) PeakBandwidth() float64 {
	return float64(c.Channels) * c.Spec.PeakChannelBandwidth()
}

// Request is one line-sized memory transaction.
type Request struct {
	Addr   uint64
	Write  bool
	Arrive sim.Time
}

// CommandStats counts issued DRAM commands; the power model converts these
// to energy (DRAMPower substitute).
type CommandStats struct {
	Act, Pre, Rd, Wr, Ref int64
}

// Stats aggregates controller activity.
type Stats struct {
	Commands     CommandStats
	Reads        int64
	Writes       int64
	TotalLatency sim.Time // sum over completed requests (arrival -> data)
	DataBusBusy  sim.Time // total data-bus occupancy across channels
	LastFinish   sim.Time
	RowHits      int64
	RowMisses    int64
	RowConflicts int64
}

// AvgLatency returns the mean request latency.
func (s Stats) AvgLatency() sim.Time {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(n)
}

// AchievedBandwidth returns bytes/second moved up to LastFinish.
func (s Stats) AchievedBandwidth(lineBytes int) float64 {
	if s.LastFinish <= 0 {
		return 0
	}
	return float64((s.Reads+s.Writes)*int64(lineBytes)) / s.LastFinish.Seconds()
}

// RowHitRate returns the fraction of requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses + s.RowConflicts
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

type bank struct {
	openRow int64    // -1 when precharged
	readyAt sim.Time // earliest next column command
	preAt   sim.Time // earliest allowed precharge (tRAS / tWR / tRTP)
	actAt   sim.Time // earliest next activate
}

type channel struct {
	banks         []bank
	busFreeAt     sim.Time
	queue         []*Request
	actTimes      [4]sim.Time // the last four activates, a ring for tFAW
	acts          int         // activates issued; acts%4 is the ring's oldest slot
	refreshedTo   sim.Time    // refreshes accounted up to this time
	refBlockUntil sim.Time
	scheduling    bool
}

// SchedPolicy selects the queue policy; FR-FCFS is the paper's default and
// FCFS exists for the ablation bench.
type SchedPolicy int

const (
	FRFCFS SchedPolicy = iota
	FCFS
)

func (p SchedPolicy) String() string {
	if p == FCFS {
		return "fcfs"
	}
	return "fr-fcfs"
}

// Controller is the multi-channel memory controller. RunOpenLoop drives it:
// requests are appended to their channel's queue and drain issues a whole
// queue at one instant. It is not safe for concurrent use.
type Controller struct {
	cfg      Config
	channels []*channel
	policy   SchedPolicy
	clk      sim.Time
	Stats    Stats
}

// NewController creates a controller; it panics on invalid configuration.
// Refreshes are accounted lazily on first use.
func NewController(cfg Config, policy SchedPolicy) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:    cfg,
		policy: policy,
		clk:    sim.Time(cfg.Spec.ClockPs()),
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{banks: make([]bank, cfg.Spec.BanksPerChannel)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		c.channels = append(c.channels, ch)
	}
	return c
}

func (c *Controller) cycles(n int) sim.Time { return sim.Time(n) * c.clk }

// applyRefresh lazily accounts for all refreshes due up to time t. A refresh
// closes every row and blocks the channel for TRFC. It returns t pushed past
// any refresh blackout in progress.
func (c *Controller) applyRefresh(ch *channel, t sim.Time) sim.Time {
	period := c.cycles(c.cfg.Spec.TREFI)
	for ch.refreshedTo+period <= t {
		ch.refreshedTo += period
		c.Stats.Commands.Ref++
		ch.refBlockUntil = ch.refreshedTo + c.cycles(c.cfg.Spec.TRFC)
		for b := range ch.banks {
			ch.banks[b].openRow = -1
			if ch.banks[b].actAt < ch.refBlockUntil {
				ch.banks[b].actAt = ch.refBlockUntil
			}
		}
	}
	if t < ch.refBlockUntil {
		t = ch.refBlockUntil
	}
	return t
}

// mapAddr decomposes a line address into (channel, bank, row) using a
// row:bank:column:channel layout: channel bits are lowest (lines stripe
// across channels), followed by the column within a row, then the bank, then
// the row. Sequential streams therefore fill a whole row before switching to
// the next bank, giving both row-buffer locality and round-robin bank-level
// parallelism at row granularity.
func (c *Controller) mapAddr(addr uint64) (chIdx, bankIdx int, row int64) {
	line := addr >> 6
	chIdx = int(line % uint64(c.cfg.Channels))
	rest := line / uint64(c.cfg.Channels)
	linesPerRow := uint64(c.cfg.Spec.RowBytes / 64)
	rest /= linesPerRow // drop the column
	bankIdx = int(rest % uint64(c.cfg.Spec.BanksPerChannel))
	row = int64(rest / uint64(c.cfg.Spec.BanksPerChannel))
	return chIdx, bankIdx, row
}

// drain issues the channel's whole queue at now, in policy order: issue
// computes each request's command schedule analytically, so no request waits
// for a later instant.
func (c *Controller) drain(ch *channel, now sim.Time) {
	for len(ch.queue) > 0 {
		idx := c.pick(ch)
		c.issue(ch, ch.queue[idx], now)
		ch.queue = append(ch.queue[:idx], ch.queue[idx+1:]...)
	}
}

// pick selects the next request index per policy.
func (c *Controller) pick(ch *channel) int {
	if c.policy == FCFS || len(ch.queue) == 1 {
		return 0
	}
	// FR-FCFS: oldest row-hit first, else oldest.
	for i, req := range ch.queue {
		_, b, row := c.mapAddr(req.Addr)
		if ch.banks[b].openRow == row {
			return i
		}
	}
	return 0
}

// issue computes the command schedule for req. The model issues PRE/ACT/CAS
// with the principal DDR4 constraints: tRCD, tCL, tRP, tRAS, tWR, tRTP, tCCD
// on the shared data bus, tRRD/tFAW between activates, and refresh blackouts.
func (c *Controller) issue(ch *channel, req *Request, now sim.Time) {
	spec := c.cfg.Spec
	_, bIdx, row := c.mapAddr(req.Addr)
	b := &ch.banks[bIdx]

	t := c.applyRefresh(ch, now)

	switch {
	case b.openRow == row:
		c.Stats.RowHits++
	case b.openRow < 0:
		c.Stats.RowMisses++
	default:
		c.Stats.RowConflicts++
	}

	if b.openRow != row {
		if b.openRow >= 0 {
			// PRE then ACT.
			pre := max(t, b.preAt)
			c.Stats.Commands.Pre++
			t = pre + c.cycles(spec.TRP)
		}
		act := max(t, b.actAt, c.fawGate(ch))
		c.Stats.Commands.Act++
		ch.actTimes[ch.acts%4] = act
		ch.acts++
		b.openRow = row
		b.preAt = act + c.cycles(spec.TRAS)
		t = act + c.cycles(spec.TRCD)
	}

	// Column command: wait for bank column timing and data bus.
	cas := max(t, b.readyAt, ch.busFreeAt-c.cycles(spec.TCL))
	dataStart := cas + c.cycles(spec.TCL)
	dataEnd := dataStart + c.cycles(spec.TBL)
	ch.busFreeAt = dataEnd
	b.readyAt = cas + c.cycles(spec.TCCD)
	if req.Write {
		c.Stats.Commands.Wr++
		c.Stats.Writes++
		wrDone := dataEnd + c.cycles(spec.TWR)
		if wrDone > b.preAt {
			b.preAt = wrDone
		}
	} else {
		c.Stats.Commands.Rd++
		c.Stats.Reads++
		rtp := cas + c.cycles(spec.TRTP)
		if rtp > b.preAt {
			b.preAt = rtp
		}
	}

	c.Stats.TotalLatency += dataEnd - req.Arrive
	c.Stats.DataBusBusy += c.cycles(spec.TBL)
	if dataEnd > c.Stats.LastFinish {
		c.Stats.LastFinish = dataEnd
	}
}

// fawGate returns the earliest time a new ACT may issue under tFAW.
func (c *Controller) fawGate(ch *channel) sim.Time {
	if ch.acts < 4 {
		return 0
	}
	return ch.actTimes[ch.acts%4] + c.cycles(c.cfg.Spec.TFAW)
}
