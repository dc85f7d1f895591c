package dse

import (
	"context"

	"musa/internal/apps"
	"musa/internal/cpu"
)

// UnconventionalRow is one row of Table II / Fig. 11: a named configuration
// with its performance, power and energy relative to the DSE-Best baseline.
type UnconventionalRow struct {
	App       string
	Label     string
	Arch      ArchPoint
	TimeNs    float64
	PowerW    float64
	EnergyJ   float64
	RelPerf   float64 // baseline time / this time
	RelPower  float64
	RelEnergy float64
	// EnergyKnown is false for HBM (the paper cannot report HBM energy
	// either, for lack of public power data).
	EnergyKnown bool
}

// unconvEntry is one Table II configuration.
type unconvEntry struct {
	label       string
	arch        ArchPoint
	energyKnown bool
}

// unconvSpec pairs an application with its Table II configurations; the
// first entry is the DSE-Best baseline.
type unconvSpec struct {
	app  *apps.Profile
	rows []unconvEntry
}

func tableII() []unconvSpec {
	cache96 := CacheConfigs()[2]
	cache64 := CacheConfigs()[1]
	mk := func(core cpu.Config, vec int, cache CacheCfg, ch int, mem MemKind) ArchPoint {
		return ArchPoint{Cores: 64, Core: core, FreqGHz: 2.0, VectorBits: vec, Cache: cache, Channels: ch, Mem: mem}
	}
	return []unconvSpec{
		{
			// SPMZ: push SIMD width beyond the sweep (Vector+ 1024-bit,
			// Vector++ 2048-bit) while trimming what barely matters for it.
			app: apps.SPMZ(),
			rows: []unconvEntry{
				{"Best-DSE", mk(cpu.Aggressive(), 512, cache96, 8, DDR4), true},
				{"Vector+", mk(cpu.High(), 1024, cache64, 4, DDR4), true},
				{"Vector++", mk(cpu.High(), 2048, cache64, 4, DDR4), true},
			},
		},
		{
			// LULESH: narrow FPUs, moderate cores, double-then-HBM memory.
			app: apps.LULESH(),
			rows: []unconvEntry{
				{"Best-DSE", mk(cpu.High(), 512, cache96, 8, DDR4), true},
				{"MEM+", mk(cpu.Medium(), 64, cache64, 16, DDR4), true},
				{"MEM++", mk(cpu.Medium(), 64, cache64, 16, HBM), false},
			},
		},
	}
}

// Unconventional runs the Table II application-specific configurations
// and returns the Fig. 11 rows, normalized to each application's Best-DSE.
// Each application's points go through Run as one node-only run: opts
// carries the fidelity, seed, workers and whatever store, artifact and
// scratch wiring the caller gives its runs; Unconventional sets Apps,
// Points and Replay. A canceled ctx returns ctx.Err().
func Unconventional(ctx context.Context, opts Options) ([]UnconventionalRow, error) {
	opts.Replay = ReplayConfig{Disable: true}
	var out []UnconventionalRow
	for _, spec := range tableII() {
		opts.Apps, opts.Points = []*apps.Profile{spec.app}, nil
		for _, r := range spec.rows {
			opts.Points = append(opts.Points, r.arch)
		}
		d := Run(ctx, opts)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Run returns every point of an uncanceled run, sorted by label.
		byLabel := map[string]Measurement{}
		for _, m := range d.Measurements {
			byLabel[m.Arch.Label()] = m
		}
		base := byLabel[spec.rows[0].arch.Label()]
		for _, r := range spec.rows {
			m := byLabel[r.arch.Label()]
			out = append(out, UnconventionalRow{
				App:         spec.app.Name,
				Label:       r.label,
				Arch:        r.arch,
				TimeNs:      m.TimeNs,
				PowerW:      m.Power.Total(),
				EnergyJ:     m.EnergyJ,
				RelPerf:     base.TimeNs / m.TimeNs, // exactly 1 on the baseline
				RelPower:    m.Power.Total() / base.Power.Total(),
				RelEnergy:   m.EnergyJ / base.EnergyJ,
				EnergyKnown: r.energyKnown,
			})
		}
	}
	return out, nil
}
