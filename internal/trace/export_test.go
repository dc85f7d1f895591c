package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"musa/internal/isa"
)

// ReadDetailed parses a binary detailed trace.
func ReadDetailed(r io.Reader) (*Detailed, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != detailedMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	readString := func() (string, error) {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n > 1<<20 {
			return "", fmt.Errorf("trace: string length %d too large", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var d Detailed
	var err error
	if d.App, err = readString(); err != nil {
		return nil, err
	}
	if d.Region, err = readString(); err != nil {
		return nil, err
	}
	var rank int64
	if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
		return nil, err
	}
	d.Rank = int(rank)
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<32 {
		return nil, fmt.Errorf("trace: instruction count %d too large", n)
	}
	d.Instrs = make([]isa.Instr, n)
	for i := range d.Instrs {
		if err := readInstr(br, &d.Instrs[i]); err != nil {
			return nil, fmt.Errorf("trace: instr %d: %w", i, err)
		}
	}
	return &d, nil
}

func readInstr(r io.Reader, in *isa.Instr) error {
	var buf [32]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	in.Addr = binary.LittleEndian.Uint64(buf[0:])
	in.PC = binary.LittleEndian.Uint32(buf[8:])
	in.BB = binary.LittleEndian.Uint32(buf[12:])
	in.Dep1 = int32(binary.LittleEndian.Uint32(buf[16:]))
	in.Dep2 = int32(binary.LittleEndian.Uint32(buf[20:]))
	in.Size = binary.LittleEndian.Uint16(buf[24:])
	in.Class = isa.Class(buf[26])
	in.Lanes = buf[27]
	in.Vectorizable = buf[28] == 1
	return nil
}

// IsMPI reports whether the event is a communication event.
func (k EventKind) IsMPI() bool { return k != EvCompute }
