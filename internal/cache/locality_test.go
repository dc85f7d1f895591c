package cache

import (
	"testing"

	"musa/internal/xrand"
)

// TestAddressGenResetMatchesNew resets a generator that has been running a
// different profile — more regions, every pattern, cursors and blocks
// mid-walk — and requires its first 10 000 accesses to equal those of a fresh
// NewAddressGen over the new profile and an identically seeded RNG. A second
// reset back to the first profile must match too.
func TestAddressGenResetMatchesNew(t *testing.T) {
	before := LocalityProfile{Regions: []Region{
		{Name: "a", Bytes: 1 << 20, Weight: 1, Pattern: RandomBlock, BlockBytes: 8192, WriteFrac: 0.2},
		{Name: "b", Bytes: 3 << 20, Weight: 2, Pattern: Sequential, Stride: 24},
		{Name: "c", Bytes: 5 << 20, Weight: 1, Pattern: RandomLine, WriteFrac: 0.7},
		{Name: "d", Bytes: 7 << 20, Weight: 3, Pattern: RandomBlock, Stride: 16},
	}}
	after := LocalityProfile{Regions: []Region{
		{Name: "x", Bytes: 64 << 20, Weight: 0.5, Pattern: Sequential, WriteFrac: 0.3},
		{Name: "y", Bytes: 128 << 20, Weight: 0.3, Pattern: RandomBlock, WriteFrac: 0.5},
		{Name: "z", Bytes: 256 << 20, Weight: 0.2, Pattern: RandomLine},
	}}
	g := NewAddressGen(before, xrand.New(1))
	for range 5000 {
		g.Next()
	}
	for _, p := range []LocalityProfile{after, before} {
		var rng xrand.RNG
		rng.Seed(0xdead)
		g.Reset(p, &rng)
		fresh := NewAddressGen(p, xrand.New(0xdead))
		for i := range 10_000 {
			ga, gw := g.Next()
			fa, fw := fresh.Next()
			if ga != fa || gw != fw {
				t.Fatalf("%d regions, access %d: reset generator (%#x, %v), fresh (%#x, %v)",
					len(p.Regions), i, ga, gw, fa, fw)
			}
		}
	}
}

// TestValidateAddressSpace: the last region may grow past its 1 GiB segment
// up to one line below AddressLimit; one reaching the limit is refused, and
// so is any other region over 1 GiB, which would run into the next region's
// segment and alias it.
func TestValidateAddressSpace(t *testing.T) {
	hot := Region{Name: "hot", Bytes: 16 << 10, Weight: 1, Pattern: RandomLine}
	last := func(end uint64) LocalityProfile {
		return LocalityProfile{Regions: []Region{hot, {Name: "stream", Bytes: int64(end - base(1)), Weight: 1}}}
	}
	for _, c := range []struct {
		name string
		p    LocalityProfile
		ok   bool
	}{
		{"last region ending one line below the limit", last(AddressLimit - LineBytes), true},
		{"last region ending at the limit", last(AddressLimit), false},
		{"last region over its segment", last(base(1) + 3*regionSegment), true},
		{"segment-sized region before another", LocalityProfile{Regions: []Region{{Name: "a", Bytes: regionSegment, Weight: 1}, hot}}, true},
		{"region over its segment before another", LocalityProfile{Regions: []Region{{Name: "a", Bytes: regionSegment + LineBytes, Weight: 1}, hot}}, false},
	} {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
	// The last line a valid profile reaches is one a cache holds.
	top := uint64(AddressLimit - LineBytes)
	c := New(Config{Name: "top", SizeBytes: 4 * LineBytes, Assoc: 2})
	c.Access(top, true)
	if !c.Contains(top) {
		t.Errorf("the line at %#x is not held after an access", top)
	}
}
