package cache

import (
	"fmt"
	"slices"

	"musa/internal/xrand"
)

// AccessPattern selects how a Region is traversed by the synthetic address
// generator.
type AccessPattern uint8

const (
	// Sequential walks the region with a fixed stride, wrapping around.
	// Reuse distance equals the region footprint, producing the classic
	// working-set knee: the region hits in every cache at least as large as
	// its footprint and misses in smaller ones (beyond spatial reuse inside
	// a line).
	Sequential AccessPattern = iota
	// RandomLine touches a uniformly random line of the region, producing a
	// hit rate proportional to cacheSize/footprint when the region does not
	// fit.
	RandomLine
	// RandomBlock picks a uniformly random BlockBytes-aligned block and
	// walks it sequentially before picking the next. Cache behavior is
	// random-like at capacities below the footprint, while the DRAM row
	// buffer sees good locality — the access shape of blocked/tiled HPC
	// kernels.
	RandomBlock
)

func (p AccessPattern) String() string {
	switch p {
	case Sequential:
		return "seq"
	case RandomBlock:
		return "randblock"
	}
	return "rand"
}

// Region is one logical data structure of an application's working set.
type Region struct {
	Name    string
	Bytes   int64   // footprint
	Weight  float64 // fraction of memory accesses that land here
	Pattern AccessPattern
	Stride  int64 // element stride for Sequential/RandomBlock (bytes); 0 means 8
	// BlockBytes is the block size for RandomBlock; 0 means 4096.
	BlockBytes int64
	WriteFrac  float64 // fraction of accesses to this region that are stores
}

// LocalityProfile is the memory-locality model of an application: a weighted
// mixture of regions. It substitutes for the address streams that the paper
// collects with DynamoRIO (see DESIGN.md §2).
type LocalityProfile struct {
	Regions []Region
}

// AddressLimit bounds the address space a profile may use: region i
// occupies [base(i), base(i)+Bytes), base(i) = (i+1) GiB, and every region
// must end below AddressLimit. A cache models addresses up to 128 GiB
// exactly (4 bytes a line); the rest is headroom for an access straddling a
// region's end and for prefetches past it.
const AddressLimit = 64 << 30

// Validate reports profile errors. Besides footprints and weights it refuses
// a region that would alias the next one (only the last region may exceed
// its 1 GiB segment) and a region that ends at or past AddressLimit.
func (p LocalityProfile) Validate() error {
	if len(p.Regions) == 0 {
		return fmt.Errorf("locality: no regions")
	}
	var w float64
	for i, r := range p.Regions {
		if r.Bytes <= 0 {
			return fmt.Errorf("locality: region %d (%s) has footprint %d", i, r.Name, r.Bytes)
		}
		if i < len(p.Regions)-1 && r.Bytes > regionSegment {
			return fmt.Errorf("locality: region %d (%s) has footprint %d, over the %d bytes between regions (only the last region may be larger)",
				i, r.Name, r.Bytes, regionSegment)
		}
		if end := base(i) + uint64(r.Bytes); end >= AddressLimit {
			return fmt.Errorf("locality: region %d (%s) ends at %#x, at or past the address limit %#x", i, r.Name, end, AddressLimit)
		}
		if r.Weight < 0 {
			return fmt.Errorf("locality: region %d (%s) has negative weight", i, r.Name)
		}
		w += r.Weight
	}
	if w <= 0 {
		return fmt.Errorf("locality: weights sum to zero")
	}
	return nil
}

// AddressGen produces a synthetic address stream following a profile. Each
// region lives in its own segment of the address space, and Validate keeps
// every region but the last inside its segment, so distinct regions never
// alias.
type AddressGen struct {
	profile LocalityProfile
	pick    xrand.Discrete
	rng     *xrand.RNG
	weights []float64 // the regions' weights, the table pick is rebuilt from
	cursors []uint64
	blocks  []uint64 // current block base offset for RandomBlock regions
}

// regionSegment spaces region base addresses 1 GiB apart: region i starts at
// base(i).
const regionSegment = 1 << 30

func base(i int) uint64 { return uint64(i+1) * regionSegment }

// NewAddressGen builds a generator; it panics on an invalid profile.
func NewAddressGen(p LocalityProfile, rng *xrand.RNG) *AddressGen {
	g := &AddressGen{}
	g.Reset(p, rng)
	return g
}

// Reset makes g, whatever it generated before, the generator
// NewAddressGen(p, rng) returns, reusing its tables when they are large
// enough; it panics on an invalid profile.
func (g *AddressGen) Reset(p LocalityProfile, rng *xrand.RNG) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g.weights = slices.Grow(g.weights[:0], len(p.Regions))
	for _, r := range p.Regions {
		g.weights = append(g.weights, r.Weight)
	}
	g.pick.Reset(g.weights)
	g.profile, g.rng = p, rng
	g.cursors = zeroed(g.cursors, len(p.Regions))
	g.blocks = zeroed(g.blocks, len(p.Regions))
}

// AddressPos is where an AddressGen is in its stream, short of its RNG's
// state: each region's cursor and current block.
type AddressPos struct {
	cursors, blocks []uint64
}

// Pos returns a copy of g's position.
func (g *AddressGen) Pos() AddressPos {
	return AddressPos{slices.Clone(g.cursors), slices.Clone(g.blocks)}
}

// Seek moves g to pos, a position of a generator over g's profile. With
// the RNG at the state it had when pos was taken, g then continues that
// generator's stream exactly.
func (g *AddressGen) Seek(pos AddressPos) {
	copy(g.cursors, pos.cursors)
	copy(g.blocks, pos.blocks)
}

// Bytes is the storage pos holds.
func (pos AddressPos) Bytes() int64 { return 8 * int64(cap(pos.cursors)+cap(pos.blocks)) }

// zeroed returns s resized to n zeros, reusing its backing array when it is
// large enough.
func zeroed(s []uint64, n int) []uint64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Next returns the next access: its byte address and whether it is a store.
func (g *AddressGen) Next() (addr uint64, write bool) {
	i := g.pick.Sample(g.rng)
	r := &g.profile.Regions[i]
	switch r.Pattern {
	case Sequential:
		stride := r.Stride
		if stride <= 0 {
			stride = 8
		}
		addr = base(i) + g.cursors[i]
		g.cursors[i] = (g.cursors[i] + uint64(stride)) % uint64(r.Bytes)
	case RandomLine:
		lines := r.Bytes / LineBytes
		if lines < 1 {
			lines = 1
		}
		addr = base(i) + uint64(g.rng.Int63n(lines))*LineBytes + uint64(g.rng.Intn(LineBytes/8))*8
	case RandomBlock:
		block := r.BlockBytes
		if block <= 0 {
			block = 4096
		}
		if block > r.Bytes {
			block = r.Bytes
		}
		stride := r.Stride
		if stride <= 0 {
			stride = 8
		}
		if g.cursors[i] == 0 {
			// Pick a new random block, aligned to the block size.
			nBlocks := r.Bytes / block
			if nBlocks < 1 {
				nBlocks = 1
			}
			g.blocks[i] = uint64(g.rng.Int63n(nBlocks)) * uint64(block)
		}
		addr = base(i) + g.blocks[i] + g.cursors[i]
		g.cursors[i] = (g.cursors[i] + uint64(stride)) % uint64(block)
	}
	write = g.rng.Bernoulli(r.WriteFrac)
	return addr, write
}

// NextIn draws a uniformly random line address from region i, regardless of
// the region's configured pattern. The workload synthesizer uses it for
// pointer-chase loops, which dereference random locations of a specific
// data structure.
func (g *AddressGen) NextIn(i int) uint64 {
	r := &g.profile.Regions[i]
	lines := r.Bytes / LineBytes
	if lines < 1 {
		lines = 1
	}
	return base(i) + uint64(g.rng.Int63n(lines))*LineBytes
}

// RegionIndex returns the index of the named region, or -1.
func (p LocalityProfile) RegionIndex(name string) int {
	for i, r := range p.Regions {
		if r.Name == name {
			return i
		}
	}
	return -1
}
