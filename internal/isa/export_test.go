package isa

// NewReferenceFuser exposes the test-only reference fuser to the external
// test package, which needs internal/apps and internal/node (both import isa)
// for the applications' real scalar windows.
var NewReferenceFuser = newReferenceFuser
