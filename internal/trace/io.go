package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"musa/internal/isa"
)

// WriteBurst serializes a burst trace as JSON.
func WriteBurst(w io.Writer, b *Burst) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// ReadBurst parses and validates a JSON burst trace.
func ReadBurst(r io.Reader) (*Burst, error) {
	var b Burst
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("trace: decoding burst: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// Detailed is an instruction-level trace of one sampled region.
type Detailed struct {
	App    string
	Region string
	Rank   int
	Instrs []isa.Instr
}

// detailedMagic identifies the binary detailed-trace format, versioned in
// the last byte.
var detailedMagic = [8]byte{'M', 'U', 'S', 'A', 'D', 'T', 'R', 1}

// WriteDetailed serializes a detailed trace in the compact binary format.
func WriteDetailed(w io.Writer, d *Detailed) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(detailedMagic[:]); err != nil {
		return err
	}
	writeString := func(s string) error {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := writeString(d.App); err != nil {
		return err
	}
	if err := writeString(d.Region); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(d.Rank)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(d.Instrs))); err != nil {
		return err
	}
	for i := range d.Instrs {
		if err := writeInstr(bw, &d.Instrs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeInstr(w io.Writer, in *isa.Instr) error {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], in.Addr)
	binary.LittleEndian.PutUint32(buf[8:], in.PC)
	binary.LittleEndian.PutUint32(buf[12:], in.BB)
	binary.LittleEndian.PutUint32(buf[16:], uint32(in.Dep1))
	binary.LittleEndian.PutUint32(buf[20:], uint32(in.Dep2))
	binary.LittleEndian.PutUint16(buf[24:], in.Size)
	buf[26] = byte(in.Class)
	buf[27] = in.Lanes
	if in.Vectorizable {
		buf[28] = 1
	}
	_, err := w.Write(buf[:])
	return err
}
