//go:build race

package musa_test

func init() { raceEnabled = true }
