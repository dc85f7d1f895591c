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
