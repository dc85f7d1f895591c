//go:build race

package dram

func init() { raceEnabled = true }
