package cache

import "testing"

// fuzzAddr is the address the three bytes of a fuzzed operation name: one of
// 16 384 lines — the second byte, the third's two low bits and the first's
// high nibble, which the operation does not read — an offset inside it, and
// the top of the modelled address space when the third byte's two high bits
// are set — line address bits 15–30, so a direct-mapped cache's largest tag
// + 1 reaches bit 30, the top bit a tag uses, while bit 14 stays clear and
// every line below maxLine. The 16 384 lines reach every set, so every
// block, of the largest fuzzed cache.
func fuzzAddr(b0, b1, b2 byte) uint64 {
	line := uint64(b1) | uint64(b2&3)<<8 | uint64(b0>>4)<<10
	a := line<<lineShift | uint64(b2>>2&15)*4
	if b2>>6 == 3 {
		a |= (maxLine &^ (1<<15 - 1)) << lineShift
	}
	return a
}

// diffCache replays data against a Cache and the referenceCache on one
// configuration and fails at the first result, statistic or residency they
// disagree on. Each three bytes are one operation: the first's low nibble
// picks it (Access read or write, Insert, MarkDirty, rarely Flush), the
// bytes together the address (fuzzAddr) — one of 16 384 lines, an offset
// inside it, and sometimes the top of the modelled address space, so tags
// use every bit.
func diffCache(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	diffCacheFrom(t, New(cfg), data)
}

// diffCacheFrom is diffCache on a given cache, which must behave as a new
// one of its configuration.
func diffCacheFrom(t *testing.T, got *Cache, data []byte) {
	t.Helper()
	want := newReferenceCache(got.Config())
	for i := 0; i+3 <= len(data); i += 3 {
		op, addr := data[i]%16, fuzzAddr(data[i], data[i+1], data[i+2])
		switch {
		case op < 6:
			if g, w := got.Access(addr, false), want.Access(addr, false); g != w {
				t.Fatalf("op %d: read %#x: %+v, reference %+v", i/3, addr, g, w)
			}
		case op < 10:
			if g, w := got.Access(addr, true), want.Access(addr, true); g != w {
				t.Fatalf("op %d: write %#x: %+v, reference %+v", i/3, addr, g, w)
			}
		case op < 13:
			g, gi := got.Insert(addr)
			w, wi := want.Insert(addr)
			if g != w || gi != wi {
				t.Fatalf("op %d: insert %#x: %+v %v, reference %+v %v", i/3, addr, g, gi, w, wi)
			}
		case op < 15:
			if g, w := got.MarkDirty(addr), want.MarkDirty(addr); g != w {
				t.Fatalf("op %d: mark dirty %#x: %v, reference %v", i/3, addr, g, w)
			}
		default:
			if g, w := got.Flush(), want.Flush(); g != w {
				t.Fatalf("op %d: flush dropped %d dirty lines, reference %d", i/3, g, w)
			}
		}
		if got.Stats != want.Stats {
			t.Fatalf("op %d: stats %+v, reference %+v", i/3, got.Stats, want.Stats)
		}
		if g, w := got.Contains(addr), want.Contains(addr); g != w {
			t.Fatalf("op %d: contains %#x: %v, reference %v", i/3, addr, g, w)
		}
	}
	// Only a line some operation named can be held: residency at the end
	// is every such line's.
	for i := 0; i+3 <= len(data); i += 3 {
		addr := fuzzAddr(data[i], data[i+1], data[i+2])
		if g, w := got.Contains(addr), want.Contains(addr); g != w {
			t.Fatalf("end: contains %#x: %v, reference %v", addr, g, w)
		}
	}
}

// FuzzCacheMatchesReference looks for an operation sequence on which the
// recency-ordered kernel and the age-scan reference disagree, on caches of
// 1–16 ways and 1–4 096 sets: up to 64 blocks, and at least four at every
// associativity, so lines land in blocks allocated by earlier operations
// and in blocks they allocate. The seed corpus under testdata/fuzz names one
// input per case the kernel distinguishes: a direct-mapped set, a full
// sixteen-way set thrashed, dirty victims, prefetch fills of present and
// absent lines, a flush midway, tags in the top of the modelled address
// space, and lines on both sides of each block boundary up to the last
// block, sixteen-way and direct-mapped.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, ways, setsLog uint8) {
		sets := 1 << (setsLog % 13)
		assoc := 1 + int(ways%16)
		diffCache(t, Config{Name: "fuzz", SizeBytes: sets * assoc * LineBytes, Assoc: assoc}, data)
	})
}
