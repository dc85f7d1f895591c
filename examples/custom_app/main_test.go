package main

import (
	"testing"

	"musa"
)

// TestSmootherValid: the example's workload model passes the validation
// RegisterApplication runs — its regions inside the modelled address space
// among it — without running the example's simulations.
func TestSmootherValid(t *testing.T) {
	if _, err := musa.NewApplication(smoother()); err != nil {
		t.Fatal(err)
	}
}
