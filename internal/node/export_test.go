package node

import (
	"musa/internal/apps"
	"musa/internal/isa"
)

// BuildSampleWindow generates the sample window alone, from its checkpoint:
// the generator is stepped through the warm window — its random draws are
// the stream — without materialising it. The result equals the sample
// window of BuildScalarTrace at the same arguments, instruction for
// instruction.
func BuildSampleWindow(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	sampleInstrs, _ = apps.EffectiveFidelity(sampleInstrs, warmupInstrs)
	return windowFrom(NewScratch().SampleCheckpoint(app, sampleInstrs, warmupInstrs, seed), sampleInstrs)
}

// windowFrom materialises the n micro-ops that follow cp as a sample window.
func windowFrom(cp *apps.Checkpoint, n int64) ScalarTrace {
	gen := new(apps.DetailedStream)
	gen.Restore(cp)
	instrs := make([]isa.Instr, n)
	gen.Read(instrs)
	return ScalarTrace{Instrs: instrs}
}

// FuseSample fuses the sample window of a scalar trace on new storage.
func FuseSample(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	return fuseScalarSample(st, app, vectorBits, seed)
}
