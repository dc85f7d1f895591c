package cache

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// access is one operation of an access-only stream.
type access struct {
	addr  uint64
	write bool
}

// corpusStreams decodes FuzzCacheMatchesReference's checked-in inputs into
// access-only streams: each input's reads and writes in order, its inserts,
// dirty marks and flushes dropped.
func corpusStreams(t *testing.T) map[string][]access {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCacheMatchesReference")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]access{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a fuzz input whose first argument is a []byte", e.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var s []access
		for i := 0; i+3 <= len(data); i += 3 {
			if op := data[i] % 16; op < 10 { // diffCache's reads and writes
				s = append(s, access{fuzzAddr(data[i], data[i+1], data[i+2]), op >= 6})
			}
		}
		streams[e.Name()] = s
	}
	if len(streams) == 0 {
		t.Fatal("no corpus inputs")
	}
	return streams
}

// randomStream is n accesses over a footprint of 16 to 512 lines, three in
// four of them to one of the last 64 lines touched, so that every
// associativity both hits and misses.
func randomStream(seed uint64, n int) []access {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	lines := uint64(16) << r.IntN(6)
	s := make([]access, n)
	for i := range s {
		line := r.Uint64N(lines)
		if i > 0 && r.IntN(4) > 0 {
			line = s[i-1-r.IntN(min(i, 64))].addr >> lineShift
		}
		s[i] = access{line<<lineShift | r.Uint64N(LineBytes), r.IntN(3) == 0}
	}
	return s
}

// TestLRUInclusion checks the LRU stack property (Mattson et al., 1970):
// with the same set count, a w-way LRU cache holds a subset of what the
// (w+1)-way cache holds, so every hit of the first is a hit of the second.
// Access-only streams — FuzzCacheMatchesReference's corpus and seeded
// random ones — run through caches of 1 to 17 ways at 1, 4 and 64 sets.
func TestLRUInclusion(t *testing.T) {
	streams := corpusStreams(t)
	for seed := uint64(1); seed <= 8; seed++ {
		streams[fmt.Sprintf("random-%d", seed)] = randomStream(seed, 4000)
	}
	gained := false // more ways hit more somewhere: the check is not vacuous
	for name, s := range streams {
		for _, sets := range []int{1, 4, 64} {
			caches := make([]*Cache, 17) // caches[w-1] has w ways
			for i := range caches {
				caches[i] = New(Config{Name: "inclusion", SizeBytes: sets * (i + 1) * LineBytes, Assoc: i + 1})
			}
			for i, a := range s {
				fewerHit := false
				for w, c := range caches {
					hit := c.Access(a.addr, a.write).Hit
					if fewerHit && !hit {
						t.Fatalf("%s, %d sets: access %d (%#x) hits %d ways and misses %d", name, sets, i, a.addr, w, w+1)
					}
					fewerHit = hit
				}
			}
			gained = gained || caches[16].Stats.Misses < caches[0].Stats.Misses
		}
	}
	if !gained {
		t.Fatal("no stream hit more with more ways")
	}
}
