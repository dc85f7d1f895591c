package node

import "musa/internal/apps"

// BuildSampleWindow generates the sample window alone: the generator is
// stepped through the warm window — its random draws are the stream — without
// materialising it. The result equals the sample window of BuildScalarTrace
// at the same arguments, instruction for instruction.
func BuildSampleWindow(app *apps.Profile, sampleInstrs, warmupInstrs int64, seed uint64) ScalarTrace {
	return NewScratch().SampleWindow(app, sampleInstrs, warmupInstrs, seed)
}

// FuseSample fuses the sample window of a scalar trace on new storage.
func FuseSample(st ScalarTrace, app *apps.Profile, vectorBits int, seed uint64) *FusedTrace {
	return NewScratch().FuseSample(st, app, vectorBits, seed)
}
