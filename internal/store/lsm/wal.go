package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log makes every Put durable before it is acknowledged:
// one framed, checksummed record per write. The log covers only the
// memtable: the flush that persists it as a segment truncates the log, and
// a flush runs once the log reaches its bound, so replay cost is bounded by
// that bound however often keys are overwritten. A record torn by a kill
// mid-append fails its length or CRC check; replay keeps the intact prefix
// and truncates the tail, never refusing the store.
//
// There is one log file, wal.log. Releases that flushed in the background
// also wrote a wal.log.old generation; Open still replays and retires one
// (see DB.load).
//
// Record framing: [u32 payloadLen][u32 crc32c(payload)][payload], with
// payload = [u32 keyLen][key][value].

const walMaxRecord = 1 << 30 // sanity bound on a record's claimed length

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type wal struct {
	f    *os.File
	size int64 // bytes in the log: the records since the last flush
}

// openWAL opens (creating if needed) the log at path and replays every
// intact record through apply in write order. It returns the open log
// positioned for appending, the number of replayed records, and whether a
// torn tail was truncated.
func openWAL(path string, apply func(key string, value []byte)) (w *wal, replayed int64, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, false, fmt.Errorf("lsm: wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("lsm: wal: %w", err)
	}
	off, replayed := replayRecords(data, apply)
	if torn = off < len(data); torn {
		// Drop the torn tail so the next append starts at a record boundary.
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, 0, false, fmt.Errorf("lsm: wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("lsm: wal: %w", err)
	}
	return &wal{f: f, size: int64(off)}, replayed, torn, nil
}

// replayRecords applies every intact record at the head of data through
// apply in write order, and returns the length of that intact prefix and
// the number of records in it.
func replayRecords(data []byte, apply func(key string, value []byte)) (off int, replayed int64) {
	for {
		rec, n, ok := parseRecord(data[off:])
		if !ok {
			return off, replayed
		}
		klen := binary.LittleEndian.Uint32(rec)
		apply(string(rec[4:4+klen]), append([]byte(nil), rec[4+klen:]...))
		replayed++
		off += n
	}
}

// parseRecord decodes one record from the head of data, returning the
// payload, the total framed size, and whether the record is intact.
func parseRecord(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < 8 {
		return nil, 0, false
	}
	plen := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	if plen < 4 || plen > walMaxRecord || len(data) < 8+int(plen) {
		return nil, 0, false
	}
	payload = data[8 : 8+plen]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, 0, false
	}
	klen := binary.LittleEndian.Uint32(payload)
	if 4+int(klen) > int(plen) {
		return nil, 0, false
	}
	return payload, 8 + int(plen), true
}

// append writes one record and reports its framed size. The record is
// handed to the kernel in a single Write, so a crashed process leaves at
// most one torn record at the tail.
func (w *wal) append(key string, value []byte) (int, error) {
	plen := 4 + len(key) + len(value)
	buf := make([]byte, 8+plen)
	binary.LittleEndian.PutUint32(buf, uint32(plen))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(key)))
	copy(buf[12:], key)
	copy(buf[12+len(key):], value)
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], crcTable))
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return 0, fmt.Errorf("lsm: wal append: %w", err)
	}
	return len(buf), nil
}

// reset truncates the log after a flush: its records are now durable in a
// published segment.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("lsm: wal reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("lsm: wal reset: %w", err)
	}
	w.size = 0
	return nil
}

func (w *wal) close() error { return w.f.Close() }
