// Package cpu implements the trace-driven out-of-order core model of the
// node simulator (the TaskSim substitute). It consumes an instruction
// stream (already width-fused by the isa package), tracks the principal
// out-of-order structures from Table I of the paper — reorder buffer, issue
// and commit width, store buffer, ALU/FPU ports and register files — and
// produces cycle counts plus the activity statistics the power model needs.
//
// The model is a one-pass "time algebra" scheduler (in the spirit of
// interval simulation): every instruction is processed once, computing its
// dispatch, issue and completion cycles from structural and data
// dependencies. This is O(1) per instruction, which is what makes the
// 864-configuration sweep tractable, while still being mechanistic: ROB
// size limits memory-level parallelism, issue width limits throughput,
// port counts serialize bursts, and the store buffer back-pressures stores.
package cpu

import "fmt"

// Config describes one core microarchitecture (Table I of the paper).
type Config struct {
	Name        string
	ROB         int // reorder buffer entries
	IssueWidth  int // dispatch/issue/commit width
	StoreBuffer int
	ALUs        int // integer/branch ports
	FPUs        int // floating-point ports
	IntRF       int // integer rename registers beyond architectural state
	FPRF        int // floating-point rename registers
}

// The timing loop keeps its state in fixed arrays on its stack, so three
// bounds apply: MaxPorts to ALUs and to FPUs (each port class is a file of
// this many free times), MaxROB to the reorder buffer (its commit ring), and
// MaxStructural to the store buffer and both register files together (one
// ring holds all three).
const (
	MaxPorts      = 8
	MaxROB        = 512
	MaxStructural = 1024
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ROB <= 0 || c.IssueWidth <= 0 || c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu %s: non-positive ROB/width/store buffer", c.Name)
	}
	if c.ROB > MaxROB {
		return fmt.Errorf("cpu %s: ROB %d exceeds MaxROB %d", c.Name, c.ROB, MaxROB)
	}
	if c.ALUs <= 0 || c.FPUs <= 0 {
		return fmt.Errorf("cpu %s: non-positive port counts", c.Name)
	}
	if c.ALUs > MaxPorts {
		return fmt.Errorf("cpu %s: ALUs %d exceeds MaxPorts %d", c.Name, c.ALUs, MaxPorts)
	}
	if c.FPUs > MaxPorts {
		return fmt.Errorf("cpu %s: FPUs %d exceeds MaxPorts %d", c.Name, c.FPUs, MaxPorts)
	}
	if c.IntRF <= 0 || c.FPRF <= 0 {
		return fmt.Errorf("cpu %s: non-positive register files", c.Name)
	}
	if n := c.StoreBuffer + c.IntRF + c.FPRF; n > MaxStructural {
		return fmt.Errorf("cpu %s: store buffer + register files %d exceed MaxStructural %d", c.Name, n, MaxStructural)
	}
	return nil
}

// The four core types explored in the paper (Table I).

// LowEnd is the modest, close to in-order, low-power core.
func LowEnd() Config {
	return Config{Name: "lowend", ROB: 40, IssueWidth: 2, StoreBuffer: 20, ALUs: 1, FPUs: 3, IntRF: 30, FPRF: 50}
}

// Medium is the smaller server-class core.
func Medium() Config {
	return Config{Name: "medium", ROB: 180, IssueWidth: 4, StoreBuffer: 100, ALUs: 3, FPUs: 3, IntRF: 130, FPRF: 70}
}

// High is the larger server-class core.
func High() Config {
	return Config{Name: "high", ROB: 224, IssueWidth: 6, StoreBuffer: 120, ALUs: 4, FPUs: 3, IntRF: 180, FPRF: 100}
}

// Aggressive is the high-end eight-wide configuration.
func Aggressive() Config {
	return Config{Name: "aggressive", ROB: 300, IssueWidth: 8, StoreBuffer: 150, ALUs: 5, FPUs: 4, IntRF: 210, FPRF: 120}
}

// ByName returns the named Table I configuration.
func ByName(name string) (Config, error) {
	switch name {
	case "lowend", "low-end":
		return LowEnd(), nil
	case "medium":
		return Medium(), nil
	case "high":
		return High(), nil
	case "aggressive":
		return Aggressive(), nil
	}
	return Config{}, fmt.Errorf("cpu: unknown core config %q", name)
}

// AllConfigs returns the four Table I cores in sweep order.
func AllConfigs() []Config {
	return []Config{LowEnd(), Medium(), High(), Aggressive()}
}
