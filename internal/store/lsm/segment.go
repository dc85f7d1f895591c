package lsm

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"regexp"
	"sort"
)

// A segment is one sorted, immutable run on disk: block-compressed
// key/value records, a sparse index (one first-key per block), and a bloom
// filter over every key. Segments are written to a temp file, fsynced and
// renamed into place, so a reader only ever sees a whole segment or none.
//
// Layout:
//
//	[block 0][block 1]...[meta JSON][u32 metaLen][u32 crc32c(meta)][magic8]
//
// Each block is a DEFLATE stream of [u32 keyLen][key][u32 valLen][value]
// records in key order, cut at ~64 KiB of uncompressed payload. A point
// lookup costs: bloom probe (no I/O) -> binary search of the in-memory
// sparse index -> one pread + inflate of a single block -> linear scan.

const (
	segMagic       = "MUSASEG1"
	segBlockTarget = 64 << 10
	segMetaVersion = 1
)

var segNameRe = regexp.MustCompile(`^seg-\d{8}\.sst$`)

func segName(id int64) string { return fmt.Sprintf("seg-%08d.sst", id) }

func isSegName(name string) bool { return segNameRe.MatchString(name) }

func isSegTempName(name string) bool {
	return len(name) > 4 && name[len(name)-4:] == ".tmp"
}

// segMeta is the JSON trailer of a segment file.
type segMeta struct {
	Version   int      `json:"version"`
	FirstKeys []string `json:"firstKeys"`
	Offsets   []int64  `json:"offsets"`
	CLens     []int    `json:"clens"`
	Keys      int      `json:"keys"`
	Bloom     []byte   `json:"bloom"`
}

// segInfo summarizes a freshly written segment.
type segInfo struct {
	keys  int
	bytes int64
}

// segmentWriter streams sorted key/value records into a segment file.
type segmentWriter struct {
	final string
	tmp   string
	f     *os.File
	meta  segMeta
	bloom *bloomFilter

	block   bytes.Buffer // uncompressed pending block
	blockAt int64        // file offset for the pending block
	first   string       // first key of the pending block
	lastKey string
	n       int
}

// newSegmentWriter starts a segment at path (written via path+".tmp").
// expectedKeys sizes the bloom filter; passing the exact count is ideal, an
// upper bound merely wastes a few bits.
func newSegmentWriter(path string, expectedKeys int) (*segmentWriter, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("lsm: segment: %w", err)
	}
	return &segmentWriter{
		final: path, tmp: tmp, f: f,
		meta:  segMeta{Version: segMetaVersion},
		bloom: newBloom(expectedKeys),
	}, nil
}

// add appends one record; keys must arrive in strictly ascending order.
func (w *segmentWriter) add(key string, value []byte) error {
	if w.n > 0 && key <= w.lastKey {
		return fmt.Errorf("lsm: segment: keys out of order (%q after %q)", key, w.lastKey)
	}
	if w.block.Len() == 0 {
		w.first = key
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(key)))
	w.block.Write(hdr[:])
	w.block.WriteString(key)
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(value)))
	w.block.Write(hdr[:])
	w.block.Write(value)
	h1, h2 := bloomHash(key)
	w.bloom.add(h1, h2)
	w.lastKey = key
	w.n++
	if w.block.Len() >= segBlockTarget {
		return w.cutBlock()
	}
	return nil
}

// cutBlock compresses and writes the pending block and records its index
// entry.
func (w *segmentWriter) cutBlock() error {
	if w.block.Len() == 0 {
		return nil
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return fmt.Errorf("lsm: segment: %w", err)
	}
	if _, err := fw.Write(w.block.Bytes()); err != nil {
		return fmt.Errorf("lsm: segment: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("lsm: segment: %w", err)
	}
	if _, err := w.f.Write(comp.Bytes()); err != nil {
		return fmt.Errorf("lsm: segment: %w", err)
	}
	w.meta.FirstKeys = append(w.meta.FirstKeys, w.first)
	w.meta.Offsets = append(w.meta.Offsets, w.blockAt)
	w.meta.CLens = append(w.meta.CLens, comp.Len())
	w.blockAt += int64(comp.Len())
	w.block.Reset()
	return nil
}

// finish flushes the last block, writes the meta trailer and footer, syncs
// and renames the segment into place.
func (w *segmentWriter) finish() (segInfo, error) {
	fail := func(err error) (segInfo, error) {
		w.abort()
		return segInfo{}, err
	}
	if err := w.cutBlock(); err != nil {
		return fail(err)
	}
	w.meta.Keys = w.n
	w.meta.Bloom = w.bloom.bits
	meta, err := json.Marshal(w.meta)
	if err != nil {
		return fail(fmt.Errorf("lsm: segment: %w", err))
	}
	footer := make([]byte, 16)
	binary.LittleEndian.PutUint32(footer, uint32(len(meta)))
	binary.LittleEndian.PutUint32(footer[4:], crc32.Checksum(meta, crcTable))
	copy(footer[8:], segMagic)
	if _, err := w.f.Write(meta); err != nil {
		return fail(fmt.Errorf("lsm: segment: %w", err))
	}
	if _, err := w.f.Write(footer); err != nil {
		return fail(fmt.Errorf("lsm: segment: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("lsm: segment: %w", err))
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return segInfo{}, fmt.Errorf("lsm: segment: %w", err)
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		os.Remove(w.tmp)
		return segInfo{}, fmt.Errorf("lsm: segment: %w", err)
	}
	size := w.blockAt + int64(len(meta)) + int64(len(footer))
	return segInfo{keys: w.n, bytes: size}, nil
}

// abort discards a segment that will not be finished.
func (w *segmentWriter) abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// writeSegment writes a sorted run as one segment file.
func writeSegment(path string, run []kv) (segInfo, error) {
	w, err := newSegmentWriter(path, len(run))
	if err != nil {
		return segInfo{}, err
	}
	for _, e := range run {
		if err := w.add(e.k, e.v); err != nil {
			w.abort()
			return segInfo{}, err
		}
	}
	return w.finish()
}

// segment is an open read-only view of one segment file: the sparse index
// and bloom filter live in memory, data blocks are pread on demand through
// the DB's shared block cache bc.
type segment struct {
	f     *os.File
	meta  segMeta
	bloom bloomFilter
	size  int64
	bc    *blockCache
}

// openSegment opens path and loads its trailer; its point reads go
// through bc.
func openSegment(path string, bc *blockCache) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < 16 {
		f.Close()
		return nil, fmt.Errorf("truncated segment (%d bytes)", fi.Size())
	}
	footer := make([]byte, 16)
	if _, err := f.ReadAt(footer, fi.Size()-16); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[8:]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("bad segment magic")
	}
	metaLen := int64(binary.LittleEndian.Uint32(footer))
	if metaLen <= 0 || metaLen > fi.Size()-16 {
		f.Close()
		return nil, fmt.Errorf("bad segment meta length %d", metaLen)
	}
	meta := make([]byte, metaLen)
	if _, err := f.ReadAt(meta, fi.Size()-16-metaLen); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.Checksum(meta, crcTable) != binary.LittleEndian.Uint32(footer[4:]) {
		f.Close()
		return nil, fmt.Errorf("segment meta checksum mismatch")
	}
	s := &segment{f: f, size: fi.Size(), bc: bc}
	if err := json.Unmarshal(meta, &s.meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment meta: %w", err)
	}
	if s.meta.Version != segMetaVersion {
		f.Close()
		return nil, fmt.Errorf("segment meta version %d, want %d", s.meta.Version, segMetaVersion)
	}
	s.bloom = bloomFilter{bits: s.meta.Bloom}
	return s, nil
}

func (s *segment) close() {
	s.bc.dropSeg(s)
	s.f.Close()
}

// readBlock returns block i inflated, serving from the block cache when it
// can; only an actual pread counts as a segment read.
func (s *segment) readBlock(i int, c *counters) ([]byte, error) {
	if b, ok := s.bc.get(blockCacheKey{seg: s, idx: i}); ok {
		return b, nil
	}
	out, err := s.readBlockRaw(i, c)
	if err == nil {
		s.bc.add(blockCacheKey{seg: s, idx: i}, out)
	}
	return out, err
}

// readBlockRaw preads and inflates block i, bypassing the cache — the
// compaction iterator streams through here so a whole-segment walk cannot
// evict the hot read set.
func (s *segment) readBlockRaw(i int, c *counters) ([]byte, error) {
	if c != nil {
		c.segReads.Add(1)
	}
	buf := make([]byte, s.meta.CLens[i])
	if _, err := s.f.ReadAt(buf, s.meta.Offsets[i]); err != nil {
		return nil, fmt.Errorf("lsm: segment read: %w", err)
	}
	fr := flate.NewReader(bytes.NewReader(buf))
	out, err := io.ReadAll(fr)
	if err != nil {
		return nil, fmt.Errorf("lsm: segment inflate: %w", err)
	}
	return out, nil
}

// find looks key up past the bloom filter, returning nil when absent:
// sparse-index search, one block read (cache-served when warm), linear
// scan. Callers probe the filter themselves so one lookup shares its hashes
// across segments; c may be nil to bypass the read counters.
func (s *segment) find(key string, c *counters) ([]byte, error) {
	// Last block whose first key <= key.
	i := sort.SearchStrings(s.meta.FirstKeys, key)
	if i < len(s.meta.FirstKeys) && s.meta.FirstKeys[i] == key {
		// exact match on a block boundary
	} else {
		i--
	}
	if i < 0 {
		if c != nil {
			c.bloomFP.Add(1)
		}
		return nil, nil
	}
	block, err := s.readBlock(i, c)
	if err != nil {
		return nil, err
	}
	v, ok := scanBlock(block, key)
	if !ok && c != nil {
		c.bloomFP.Add(1)
	}
	return v, nil
}

// scanBlock walks an inflated block for key.
func scanBlock(block []byte, key string) ([]byte, bool) {
	for off := 0; off+8 <= len(block); {
		klen := int(binary.LittleEndian.Uint32(block[off:]))
		off += 4
		if off+klen+4 > len(block) {
			break
		}
		k := block[off : off+klen]
		off += klen
		vlen := int(binary.LittleEndian.Uint32(block[off:]))
		off += 4
		if off+vlen > len(block) {
			break
		}
		if string(k) == key {
			// Clone keeps an empty value non-nil: nil means absent.
			return bytes.Clone(block[off : off+vlen]), true
		}
		off += vlen
	}
	return nil, false
}

// scan visits every record in key order.
func (s *segment) scan(fn func(key string, value []byte) error) error {
	it := s.iter()
	for {
		k, v, ok, err := it.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
}

// segIter walks a segment's records in key order, one block resident at a
// time — the compaction merge reads through these.
type segIter struct {
	s     *segment
	block []byte
	bi    int // next block to load
	off   int
}

func (s *segment) iter() *segIter { return &segIter{s: s} }

func (it *segIter) next() (key string, value []byte, ok bool, err error) {
	for {
		if it.off+8 <= len(it.block) {
			klen := int(binary.LittleEndian.Uint32(it.block[it.off:]))
			it.off += 4
			key = string(it.block[it.off : it.off+klen])
			it.off += klen
			vlen := int(binary.LittleEndian.Uint32(it.block[it.off:]))
			it.off += 4
			value = append([]byte(nil), it.block[it.off:it.off+vlen]...)
			it.off += vlen
			return key, value, true, nil
		}
		if it.bi >= len(it.s.meta.Offsets) {
			return "", nil, false, nil
		}
		it.block, err = it.s.readBlockRaw(it.bi, nil)
		if err != nil {
			return "", nil, false, err
		}
		it.bi++
		it.off = 0
	}
}
