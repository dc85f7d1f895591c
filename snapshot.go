package musa

import (
	"path/filepath"

	"musa/internal/store"
	"musa/internal/store/lsm"
)

// Snapshot is one coherent view of everything a Client exposes for
// introspection: the request counters, job-pool occupancy, result-store
// state and effective sizing, the artifact cache, and the default replay
// configuration. The struct marshals cleanly, so
// /stats-style endpoints can serve it (or pieces of it) directly.
type Snapshot struct {
	// Stats are the client request counters.
	Stats ClientStats `json:"stats"`
	// Jobs is the simulation job pool's occupancy.
	Jobs JobsSnapshot `json:"jobs"`
	// Store is the result store's state (Enabled false without CacheDir).
	Store StoreSnapshot `json:"store"`
	// Artifacts is the artifact cache's state (Enabled false with
	// NoArtifacts).
	Artifacts ArtifactsSnapshot `json:"artifacts"`
	// Replay is the client's default replay configuration.
	Replay ReplaySnapshot `json:"replay"`
}

// JobsSnapshot is the job pool's occupancy: Max is the concurrent-job
// bound a `musa serve` worker advertises on /capacity, InFlight how many
// jobs currently hold a slot.
type JobsSnapshot struct {
	Max      int `json:"max"`
	InFlight int `json:"inFlight"`
}

// StoreSnapshot is the result store's state: entry count, writer mode,
// the LSM engine counters, and the engine's sizing (its flush bound and
// block-cache bound, both constants).
type StoreSnapshot struct {
	Enabled         bool      `json:"enabled"`
	ReadOnly        bool      `json:"readOnly"`
	Len             int       `json:"len"`
	Engine          lsm.Stats `json:"engine"`
	MemtableBytes   int64     `json:"memtableBytes"`
	BlockCacheBytes int64     `json:"blockCacheBytes"`
	// Front counts the reply forms the decoded front built for node
	// requests and the bytes of them it holds.
	Front store.FrontStats `json:"front"`
	// Dir is the store directory ("" without one).
	Dir string `json:"dir,omitempty"`
}

// ArtifactsSnapshot is the artifact cache's state. Err carries the first
// swallowed blob I/O error as text (the cache is best-effort; a failing
// disk degrades it to rebuild-every-time rather than failing runs).
type ArtifactsSnapshot struct {
	Enabled bool          `json:"enabled"`
	Stats   ArtifactStats `json:"stats"`
	// SampleWindows is the client-lifetime front of scalar sample windows:
	// requests it served, windows it had to generate, bytes it holds.
	SampleWindows SampleWindowStats `json:"sampleWindows"`
	Err           string            `json:"err,omitempty"`
	// Dir is the cache directory ("" for the in-memory cache).
	Dir string `json:"dir,omitempty"`
}

// ReplaySnapshot is the client's normalized default replay configuration
// for experiments that do not set their own.
type ReplaySnapshot struct {
	Disabled bool   `json:"disabled"`
	Ranks    []int  `json:"ranks,omitempty"`
	Network  string `json:"network,omitempty"`
}

// Snapshot returns one coherent introspection snapshot of the client.
// The facets are read independently (each atomically consistent with
// itself); taking a snapshot is cheap enough for scrape paths.
func (c *Client) Snapshot() Snapshot {
	return Snapshot{
		Stats:     c.Stats(),
		Jobs:      JobsSnapshot{Max: cap(c.sem), InFlight: len(c.sem)},
		Store:     c.storeSnapshot(),
		Artifacts: c.artifactsSnapshot(),
		Replay:    c.replaySnapshot(),
	}
}

func (c *Client) storeSnapshot() StoreSnapshot {
	out := StoreSnapshot{
		Enabled:         c.st != nil,
		MemtableBytes:   lsm.DefaultMemtableBytes,
		BlockCacheBytes: lsm.BlockCacheBytes,
		Dir:             c.opts.CacheDir,
	}
	if c.st != nil {
		out.ReadOnly = c.st.ReadOnly()
		out.Len = c.st.Len()
		out.Engine = c.st.EngineStats()
		out.Front = c.st.FrontStats()
	}
	return out
}

func (c *Client) artifactsSnapshot() ArtifactsSnapshot {
	if c.art == nil {
		return ArtifactsSnapshot{}
	}
	out := ArtifactsSnapshot{Enabled: true, Stats: c.art.Stats(), SampleWindows: c.windows.Stats()}
	if err := c.art.Err(); err != nil {
		out.Err = err.Error()
	}
	if dir := c.opts.ArtifactCache; dir != "" {
		out.Dir = dir
	} else if c.opts.CacheDir != "" {
		out.Dir = filepath.Join(c.opts.CacheDir, "artifacts")
	}
	return out
}

func (c *Client) replaySnapshot() ReplaySnapshot {
	if c.opts.NoReplay {
		return ReplaySnapshot{Disabled: true}
	}
	ranks := c.opts.ReplayRanks
	if ranks == nil {
		ranks = DefaultReplayRanks()
	}
	network := c.opts.Network
	if network == "" {
		network = "mn4"
	}
	return ReplaySnapshot{Ranks: ranks, Network: network}
}
