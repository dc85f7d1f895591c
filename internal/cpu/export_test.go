package cpu

// ReferenceRunTiming exposes the test-only reference timing loop to the
// external test package, which needs internal/apps and internal/node (both
// import cpu) for the applications' real annotations.
var ReferenceRunTiming = referenceRunTiming
