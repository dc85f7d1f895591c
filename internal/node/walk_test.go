package node

import (
	"reflect"
	"testing"

	"musa/internal/apps"
	"musa/internal/cache"
	"musa/internal/cpu"
	"musa/internal/isa"
)

// referenceAnnotateTrace is the per-configuration cache walk walkCaches
// replaced, kept as the plain implementation the shared walk is checked
// against: one private hierarchy, every access through Hierarchy.Access, the
// meta column overlaid as the walk goes and then compiled.
func referenceAnnotateTrace(ft *FusedTrace, cfg Config) (Annotation, HitRateTable) {
	hier := newHierarchy(cfg.hierarchyConfig(0))
	for _, op := range ft.WarmOps {
		hier.Access(op.Addr, int(op.Size), op.Write)
	}
	hier.ResetStats()
	levels := make([]uint8, len(ft.Meta))
	meta := make([]uint32, len(ft.Meta))
	copy(meta, ft.Meta)
	for _, op := range ft.SampleOps {
		lvl, _ := hier.Access(op.Addr, int(op.Size), op.Write)
		levels[op.Idx] = uint8(lvl)
		meta[op.Idx] |= uint32(lvl) << cpu.MetaLevelShift
	}
	hrt := HitRateTable{
		Levels: levels,
		L1:     hier.L1Stats(), L2: hier.L2Stats(), L3: hier.L3Stats(),
		MemReads: hier.MemReads, MemWrites: hier.MemWrites,
		HierCfg: hier.Config(),
	}
	return Annotation{
		Ann: cpu.AnnotateResult{
			Ops: cpu.Compile(ft.Deps, meta, make([]uint8, len(meta))), Counts: ft.Counts,
			L1: hrt.L1, L2: hrt.L2, L3: hrt.L3,
			MemReads: hrt.MemReads, MemWrites: hrt.MemWrites,
		},
		HierCfg: hrt.HierCfg,
	}, hrt
}

// tableICacheConfigs returns the nine (cores, cache) combinations of Table I
// at one vector width: every hierarchy a sweep walks for one fused trace.
func tableICacheConfigs(vec int) []Config {
	var cfgs []Config
	for _, cores := range []int{1, 32, 64} {
		for _, c := range [][2]int{{256, 32}, {512, 64}, {1024, 96}} {
			cfg := baseCfg()
			cfg.Cores, cfg.VectorBits, cfg.L2KBPerCore, cfg.L3MBTotal = cores, vec, c[0], c[1]
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestSharedWalkMatchesPerConfigWalks walks every application's trace at
// every Table I width through all nine (cores, cache) hierarchies at once,
// and compares each table — and the annotation it overlays to — with a walk
// of that configuration alone, through AnnotateTrace and through the
// reference walk.
func TestSharedWalkMatchesPerConfigWalks(t *testing.T) {
	for _, app := range apps.All() {
		st := BuildScalarTrace(app, 20000, 40000, 1)
		for _, vec := range []int{128, 256, 512} {
			ft := FuseScalarTrace(st, app, vec, 1)
			cfgs := tableICacheConfigs(vec)
			shared := walkCaches(ft, cfgs)
			for i, cfg := range cfgs {
				ann, hrt := AnnotateTrace(ft, cfg)
				refAnn, refHrt := referenceAnnotateTrace(ft, cfg)
				if !reflect.DeepEqual(shared[i], refHrt) || !reflect.DeepEqual(hrt, refHrt) {
					t.Errorf("%s %d-bit, %d cores %d/%d: tables differ from the reference walk",
						app.Name, vec, cfg.Cores, cfg.L2KBPerCore, cfg.L3MBTotal)
				}
				combined, ok := CombineAnnotation(ft, shared[i])
				if !ok || !reflect.DeepEqual(combined, refAnn) || !reflect.DeepEqual(ann, refAnn) {
					t.Errorf("%s %d-bit, %d cores %d/%d: annotations differ from the reference walk",
						app.Name, vec, cfg.Cores, cfg.L2KBPerCore, cfg.L3MBTotal)
				}
			}
		}
	}
}

// TestStraddlingL3AndDRAMAnnotatesL3 pins a known inexactness of the cache
// walk, kept because fixing it changes outputs. The walk's hierarchies have
// no memory latency, so an L3 hit and a DRAM access tie, and the slowest-line
// rule keeps the first of equal latencies: an access whose first line hits
// the L3 and whose second goes to DRAM is annotated L3, and the timing replay
// charges it L3 latency. With a memory latency the same access is DRAM.
func TestStraddlingL3AndDRAMAnnotatesL3(t *testing.T) {
	cfg := baseCfg() // 64 cores, 64M:512K: a 1 MiB L3 partition, a 512 KiB L2
	const lineA = uint64(0x10000000)
	// Line A, then a 768 KiB stream elsewhere: A falls out of the L1 and the
	// L2 but stays in the L3, and line A+1 is never touched or prefetched.
	warm := []WarmOp{{Addr: lineA, Size: 8}}
	for a := uint64(1 << 32); a < 1<<32+768<<10; a += cache.LineBytes {
		warm = append(warm, WarmOp{Addr: a, Size: 8})
	}
	straddle := SampleOp{Addr: lineA + cache.LineBytes - 4, Size: 8}
	ft := &FusedTrace{
		WarmOps:   warm,
		SampleOps: []SampleOp{straddle},
		Deps:      []uint32{0},
		Meta:      []uint32{cpu.PackMeta(isa.Load, 1, 0, 0)},
	}
	_, hrt := AnnotateTrace(ft, cfg)
	if got := cache.Level(hrt.Levels[0]); got != cache.LevelL3 {
		t.Errorf("straddling access annotated %v, want L3 (the tie with DRAM keeps the first line's level)", got)
	}
	if hrt.L3.Accesses != 2 || hrt.L3.Misses != 1 {
		t.Errorf("L3 saw %+v, want two demand accesses and one miss: the second line did go to DRAM", hrt.L3)
	}

	h := newHierarchy(cfg.hierarchyConfig(60))
	for _, op := range warm {
		h.Access(op.Addr, int(op.Size), op.Write)
	}
	if lvl, _ := h.Access(straddle.Addr, int(straddle.Size), false); lvl != cache.LevelMem {
		t.Errorf("with a 60 ns memory latency the access is %v, want mem", lvl)
	}
}

// newHierarchy builds one cache hierarchy: a SharedL1 over one configuration.
func newHierarchy(cfg cache.HierarchyConfig) *cache.Hierarchy {
	return cache.NewSharedL1([]cache.HierarchyConfig{cfg}).Hierarchies()[0]
}
