// Package dram implements the external memory simulator of the toolflow
// (the paper integrates Ramulator): a bank-level DDR4/HBM timing model with
// an FR-FCFS controller per channel that computes each request's command
// schedule analytically. It reports request latencies, achieved bandwidth,
// and the command counts that the power package (DRAMPower substitute)
// converts into energy.
package dram

import "fmt"

// Spec holds the timing and geometry parameters of one DRAM standard.
// All t* parameters are in memory-clock cycles (the clock runs at
// DataRateMTs/2 MHz for DDR devices).
type Spec struct {
	Name            string
	DataRateMTs     int // mega-transfers per second on the data bus
	BusBytes        int // data bus width per channel in bytes
	BanksPerChannel int
	RowBytes        int // row-buffer size in bytes

	TRCD  int // ACT -> RD/WR
	TCL   int // RD -> first data
	TRP   int // PRE -> ACT
	TRAS  int // ACT -> PRE
	TWR   int // end of write data -> PRE
	TRTP  int // RD -> PRE
	TBL   int // data burst length in clock cycles (burst 8 = 4 cycles DDR)
	TCCD  int // RD -> RD (same bank group; we use the long value)
	TRRD  int // ACT -> ACT, different banks
	TFAW  int // four-activate window
	TREFI int // average refresh interval
	TRFC  int // refresh cycle time
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	if s.DataRateMTs <= 0 || s.BusBytes <= 0 || s.BanksPerChannel <= 0 || s.RowBytes <= 0 {
		return fmt.Errorf("dram %s: non-positive geometry", s.Name)
	}
	if s.TRCD <= 0 || s.TCL <= 0 || s.TRP <= 0 || s.TBL <= 0 {
		return fmt.Errorf("dram %s: non-positive core timing", s.Name)
	}
	return nil
}

// ClockPs returns the memory clock period in picoseconds. DDR devices
// transfer twice per clock, so the clock runs at DataRateMTs/2 MHz.
func (s Spec) ClockPs() int64 {
	return 2_000_000 / int64(s.DataRateMTs)
}

// PeakChannelBandwidth returns bytes/second of one channel's data bus.
func (s Spec) PeakChannelBandwidth() float64 {
	return float64(s.DataRateMTs) * 1e6 * float64(s.BusBytes)
}

// DDR4_2333 returns the DDR4-2333 speed bin used throughout the paper
// (Micron single-rank RDIMM timings, CL16).
func DDR4_2333() Spec {
	return Spec{
		Name:            "DDR4-2333",
		DataRateMTs:     2333,
		BusBytes:        8,
		BanksPerChannel: 16,
		RowBytes:        8192,
		TRCD:            16,
		TCL:             16,
		TRP:             16,
		TRAS:            39,
		TWR:             18,
		TRTP:            9,
		TBL:             4,
		TCCD:            4, // tCCD_S: the address mapping interleaves bank groups
		TRRD:            6,
		TFAW:            26,
		TREFI:           9100, // ~7.8us at 1166MHz
		TRFC:            410,  // ~350ns
	}
}

// HBM2 returns an HBM2 pseudo-channel spec: a narrower per-channel bus than
// a full HBM stack but at low latency, used for the MEM++ configuration
// (Table II). Sixteen of these channels give ~256 GB/s.
func HBM2() Spec {
	return Spec{
		Name:            "HBM2",
		DataRateMTs:     2000,
		BusBytes:        8,
		BanksPerChannel: 16,
		RowBytes:        2048,
		TRCD:            14,
		TCL:             14,
		TRP:             14,
		TRAS:            34,
		TWR:             16,
		TRTP:            5,
		TBL:             2, // burst 4 on a pseudo-channel
		TCCD:            2,
		TRRD:            4,
		TFAW:            16,
		TREFI:           3900,
		TRFC:            260,
	}
}
