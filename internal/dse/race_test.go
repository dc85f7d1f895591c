//go:build race

package dse

func init() { raceEnabled = true }
