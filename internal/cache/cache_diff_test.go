package cache

import "testing"

// diffCache replays data against a Cache and the referenceCache on one
// configuration and fails at the first result, statistic or residency they
// disagree on. Each three bytes are one operation: the first picks it
// (Access read or write, Insert, MarkDirty, rarely Flush), the other two the
// address — one of 1 024 lines, an offset inside it, and sometimes the top
// of the address space, so tags use every bit.
func diffCache(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	got, want := New(cfg), newReferenceCache(cfg)
	addrOf := func(b1, b2 byte) uint64 {
		a := (uint64(b1)|uint64(b2&3)<<8)<<lineShift | uint64(b2>>2&15)*4
		if b2>>6 == 3 {
			a |= 0xffff << 48
		}
		return a
	}
	for i := 0; i+3 <= len(data); i += 3 {
		op, addr := data[i]%16, addrOf(data[i+1], data[i+2])
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
	for b1 := 0; b1 < 256; b1++ {
		for b2 := 0; b2 < 4; b2++ {
			for _, hi := range []byte{0, 0xc0} {
				addr := addrOf(byte(b1), byte(b2)|hi)
				if g, w := got.Contains(addr), want.Contains(addr); g != w {
					t.Fatalf("end: contains %#x: %v, reference %v", addr, g, w)
				}
			}
		}
	}
}

// FuzzCacheMatchesReference looks for an operation sequence on which the
// recency-ordered kernel and the age-scan reference disagree, on caches of
// 1–16 ways and 1–64 sets. The seed corpus under testdata/fuzz names one
// input per case the kernel distinguishes: a direct-mapped set, a full
// sixteen-way set thrashed, dirty victims, prefetch fills of present and
// absent lines, a flush midway and tags in the top of the address space.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, ways, setsLog uint8) {
		sets := 1 << (setsLog % 7)
		assoc := 1 + int(ways%16)
		diffCache(t, Config{Name: "fuzz", SizeBytes: sets * assoc * LineBytes, Assoc: assoc}, data)
	})
}
