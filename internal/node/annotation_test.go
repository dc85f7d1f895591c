package node

import (
	"reflect"
	"testing"

	"musa/internal/apps"
	"musa/internal/cpu"
	"musa/internal/isa"
)

// TestCompiledColumnsAgree builds the op column of every application at the
// three Table I widths under the nine Table I (cores, cache) hierarchies
// both ways: the node way, a fused trace overlaid with its hit-rate table
// (CombineAnnotation), and the cpu way, the same fused sample stream
// annotated single-shot through a warmed private hierarchy (cpu.Annotate),
// with the fused trace's mispredict draws. The two annotations must be
// equal, op column, counts and cache statistics alike.
func TestCompiledColumnsAgree(t *testing.T) {
	const seed = 1
	for _, app := range apps.All() {
		st := BuildScalarTrace(app, 20000, 40000, seed)
		for _, vec := range []int{128, 256, 512} {
			ft := FuseScalarTrace(st, app, vec, seed)
			cfgs := tableICacheConfigs(vec)
			for i, hrt := range walkCaches(ft, cfgs) {
				nodeWay, ok := CombineAnnotation(ft, hrt)
				if !ok {
					t.Fatal("a table does not fit the trace it was walked from")
				}
				hier := newHierarchy(hrt.HierCfg)
				for _, op := range ft.WarmOps {
					hier.Access(op.Addr, int(op.Size), op.Write)
				}
				sample := isa.NewFuser(isa.NewSliceStream(st.Instrs[st.Warm:]), isa.DefaultFuserConfig(vec))
				cpuWay := cpu.Annotate(sample, hier, app.MispredictRate, seed^mispredictSalt, 0)
				if !reflect.DeepEqual(nodeWay.Ann, cpuWay) {
					t.Errorf("%s %d-bit, %d cores %d/%d: the node and cpu op columns differ",
						app.Name, vec, cfgs[i].Cores, cfgs[i].L2KBPerCore, cfgs[i].L3MBTotal)
				}
			}
		}
	}
}

func TestSimulateAnnotatedMatchesSimulate(t *testing.T) {
	// Simulate must be exactly the composition of BuildAnnotation and
	// SimulateAnnotated — the DSE runner relies on this equivalence.
	app := apps.Spec3D()
	cfg := baseCfg()
	cfg.SampleInstrs = 60000
	cfg.WarmupInstrs = 200000
	direct := Simulate(app, cfg)
	ann := BuildAnnotation(app, cfg)
	reused := SimulateAnnotated(app, cfg, ann)
	if direct.ComputeNs != reused.ComputeNs || direct.EnergyJ != reused.EnergyJ {
		t.Fatalf("annotated path diverges: %v/%v vs %v/%v",
			direct.ComputeNs, direct.EnergyJ, reused.ComputeNs, reused.EnergyJ)
	}
}

func TestAnnotationReuseAcrossTimingVariants(t *testing.T) {
	// One annotation must serve different OoO/frequency variants: results
	// must differ (timing changed) while cache statistics stay identical.
	app := apps.BTMZ()
	cfg := baseCfg()
	cfg.SampleInstrs = 60000
	cfg.WarmupInstrs = 200000
	ann := BuildAnnotation(app, cfg)

	slow := cfg
	slow.FreqGHz = 1.5
	fast := cfg
	fast.FreqGHz = 3.0
	rs := SimulateAnnotated(app, slow, ann)
	rf := SimulateAnnotated(app, fast, ann)
	if rf.ComputeNs >= rs.ComputeNs {
		t.Errorf("3 GHz (%v) not faster than 1.5 GHz (%v)", rf.ComputeNs, rs.ComputeNs)
	}
	if rs.CoreRes.L1 != rf.CoreRes.L1 || rs.CoreRes.L2 != rf.CoreRes.L2 {
		t.Error("cache stats changed across timing-only variants")
	}
}

func TestL3PartitionRounding(t *testing.T) {
	// The per-core L3 partition must stay a valid power-of-two-set cache
	// for every Table I combination of cores and L3 size.
	for _, cores := range []int{1, 32, 64} {
		for _, l3 := range []int{32, 64, 96} {
			cfg := baseCfg()
			cfg.Cores = cores
			cfg.L3MBTotal = l3
			h := newHierarchy(cfg.hierarchyConfig(60)) // panics on invalid config
			if h == nil {
				t.Fatal("nil hierarchy")
			}
		}
	}
}

func TestDramVisibleProfileFiltering(t *testing.T) {
	for _, app := range apps.All() {
		vis := dramVisibleProfile(app.Locality)
		if err := vis.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, r := range vis.Regions {
			if r.Bytes <= 2*1024*1024 && len(vis.Regions) > 1 {
				t.Errorf("%s: on-chip region %s (%d B) in DRAM-visible profile", app.Name, r.Name, r.Bytes)
			}
		}
	}
}
