//go:build race

package topo

func init() { raceEnabled = true }
