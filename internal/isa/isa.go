// Package isa defines the instruction representation shared by the tracing
// and simulation layers, together with the paper's vectorization model:
// traced vector instructions are broken into marked scalar micro-ops
// (Decoder), and at simulation time marked micro-ops are fused back together
// up to the configured SIMD width (Fuser), including fusion across dynamic
// instances of the same static instruction when simulating widths larger
// than the traced one (paper §III, "Support for vectorization").
package isa

import "fmt"

// Class is the functional class of an instruction.
type Class uint8

// Instruction classes. Memory classes carry an address and size; FP classes
// occupy FPU ports in the core model; IntALU/IntMul occupy ALU ports.
const (
	IntALU Class = iota
	IntMul
	FPAdd
	FPMul
	FPDiv
	FPFMA
	Load
	Store
	Branch
	NumClasses
)

var classNames = [NumClasses]string{
	"intalu", "intmul", "fpadd", "fpmul", "fpdiv", "fpfma", "load", "store", "branch",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsMem reports whether the class accesses memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class executes on a floating-point unit.
func (c Class) IsFP() bool { return c >= FPAdd && c <= FPFMA }

// ElemBits is the element size of the vector model. The paper compiles with
// SSE4.2 double-precision kernels, so all SIMD modeling is in 64-bit lanes.
const ElemBits = 64

// TracedWidthBits is the SIMD width of the traced binaries (SSE4.2).
const TracedWidthBits = 128

// Instr is one dynamic micro-operation in a detailed trace.
//
// PC identifies the static instruction (the fusion marker of the paper); BB
// identifies the basic block a micro-op belongs to. Lanes counts how many
// scalar elements the op carries (1 for scalar ops, >1 after fusion). For
// memory ops, Addr is the first byte touched and Size the total footprint of
// the (possibly fused) access. Dep1/Dep2 are producer distances counted in
// dynamic instructions (0 means no register dependence).
type Instr struct {
	Addr         uint64
	PC           uint32
	BB           uint32
	Dep1, Dep2   int32
	Size         uint16
	Class        Class
	Lanes        uint8
	Vectorizable bool
}

// String renders a compact human-readable form, used by `musa trace`.
func (in Instr) String() string {
	s := fmt.Sprintf("pc=%d bb=%d %s x%d", in.PC, in.BB, in.Class, in.Lanes)
	if in.Class.IsMem() {
		s += fmt.Sprintf(" addr=0x%x size=%d", in.Addr, in.Size)
	}
	if in.Vectorizable {
		s += " vec"
	}
	return s
}

// Stream is a pull-based sequence of instructions. Implementations are not
// safe for concurrent use; each simulated core gets its own stream.
type Stream interface {
	// Next returns the next instruction and true, or a zero Instr and false
	// at end of stream.
	Next() (Instr, bool)
}

// SliceStream adapts a slice to a Stream.
type SliceStream struct {
	Instrs []Instr
	pos    int
}

// NewSliceStream returns a Stream over instrs.
func NewSliceStream(instrs []Instr) *SliceStream { return &SliceStream{Instrs: instrs} }

// Next implements Stream.
func (s *SliceStream) Next() (Instr, bool) {
	if s.pos >= len(s.Instrs) {
		return Instr{}, false
	}
	in := s.Instrs[s.pos]
	s.pos++
	return in, true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Collect drains a stream into a slice (testing and trace-dump helper).
func Collect(s Stream) []Instr {
	var out []Instr
	for {
		in, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}

// LimitStream yields at most N instructions from the underlying stream.
type LimitStream struct {
	S Stream
	N int64
}

// Next implements Stream.
func (l *LimitStream) Next() (Instr, bool) {
	if l.N <= 0 {
		return Instr{}, false
	}
	l.N--
	return l.S.Next()
}
