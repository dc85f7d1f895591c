package musa

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"musa/internal/apps"
	"musa/internal/jsonenc"
	"musa/internal/net"
	"musa/internal/store"
)

// Kind selects the simulation scenario of an Experiment — the paper's
// methodology stages exposed as one request vocabulary.
type Kind string

const (
	// KindNode is one detailed node-level measurement (plus the cluster
	// replay stage unless disabled): the unit every figure aggregates.
	KindNode Kind = "node"
	// KindFullApp is detailed mode end to end: node simulation plus the
	// cross-rank MPI replay with system-level power/energy.
	KindFullApp Kind = "full-app"
	// KindScaling is the burst-mode (hardware-agnostic) §V-A analysis:
	// compute-region speedups and whole-application scaling incl. MPI.
	KindScaling Kind = "scaling"
	// KindSweep is the Table I design-space exploration (or a subset).
	KindSweep Kind = "sweep"
	// KindUnconventional simulates the Table II application-specific
	// configurations against their DSE-Best baselines.
	KindUnconventional Kind = "unconventional"
	// KindOptimize is a successive-halving multi-fidelity search over the
	// Table I grid (or a PointIndices subset): cheap probes first, survivors
	// promoted to full fidelity, a Pareto frontier over (time, energy, EDP)
	// as the result. Configured by the nested OptimizeSpec.
	KindOptimize Kind = "optimize"
)

// Typed request-validation errors. Every one of them wraps ErrExperiment,
// so callers can classify any invalid request with
// errors.Is(err, musa.ErrExperiment) (the HTTP layer maps that onto 400)
// and still discriminate the specific failure.
var (
	// ErrExperiment is the root of every experiment-validation error.
	ErrExperiment = errors.New("musa: invalid experiment")
	// ErrBadKind reports an unknown experiment kind.
	ErrBadKind = fmt.Errorf("%w: unknown kind", ErrExperiment)
	// ErrUnknownApp reports an unresolvable application name.
	ErrUnknownApp = fmt.Errorf("%w: unknown application", ErrExperiment)
	// ErrBadArch reports invalid architecture knobs.
	ErrBadArch = fmt.Errorf("%w: bad architecture", ErrExperiment)
	// ErrBadPoint reports a design-space index outside the Table I grid.
	ErrBadPoint = fmt.Errorf("%w: bad point index", ErrExperiment)
	// ErrBadReplayRanks reports an invalid cluster-replay rank list.
	ErrBadReplayRanks = fmt.Errorf("%w: bad replay ranks", ErrExperiment)
	// ErrBadRanks reports an invalid full-app/scaling MPI rank count.
	ErrBadRanks = fmt.Errorf("%w: bad rank count", ErrExperiment)
	// ErrBadNetwork reports an unknown interconnect scenario name.
	ErrBadNetwork = fmt.Errorf("%w: bad network", ErrExperiment)
	// ErrBadCoreCounts reports an invalid scaling core-count axis.
	ErrBadCoreCounts = fmt.Errorf("%w: bad core counts", ErrExperiment)
	// ErrBadFidelity reports invalid sample/warmup sizes.
	ErrBadFidelity = fmt.Errorf("%w: bad fidelity", ErrExperiment)
	// ErrBadOptimize reports an invalid or misplaced optimize sub-spec.
	ErrBadOptimize = fmt.Errorf("%w: bad optimize spec", ErrExperiment)
)

// Experiment is the one canonical request type of the MUSA-Go pipeline:
// node measurements, detailed full-application runs, burst-mode scaling
// studies, design-space sweeps and the Table II unconventional
// configurations are all expressed as an Experiment and executed through
// Client.Run / Client.RunStream. The zero value plus Kind, App and Arch is
// a valid node experiment; Normalize applies defaults and Validate reports
// typed errors (ErrUnknownApp, ErrBadArch, ...) instead of panicking.
//
// The JSON tags are the wire form of the HTTP API.
type Experiment struct {
	// Kind selects the scenario ("" = KindNode).
	Kind Kind `json:"kind,omitempty"`

	// App names the application of a node / full-app / scaling experiment:
	// one of the five built-ins, or a profile registered on the Client.
	App string `json:"app,omitempty"`
	// Apps restricts a sweep (nil = all five built-ins). For sweeps, App is
	// accepted as a single-entry shorthand.
	Apps []string `json:"apps,omitempty"`

	// Arch is the node architecture of a node / full-app experiment.
	Arch *Arch `json:"arch,omitempty"`
	// PointIndex addresses the architecture by its Table I grid index
	// instead of explicit knobs (exactly one of Arch / PointIndex).
	PointIndex *int `json:"pointIndex,omitempty"`
	// PointIndices restricts a sweep to a subset of the Table I grid
	// (nil = the full 864-point grid).
	PointIndices []int `json:"pointIndices,omitempty"`

	// Sample / Warmup are the detailed-sample fidelity knobs in micro-ops
	// (0 = package defaults, picking up Client defaults first).
	Sample int64 `json:"sample,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
	// Seed drives deterministic trace synthesis (0 = 1).
	Seed uint64 `json:"seed,omitempty"`

	// Ranks is the MPI rank count of a full-app or scaling experiment
	// (0 = 256, the paper's full-application scale).
	Ranks int `json:"ranks,omitempty"`
	// CoreCounts is the per-node core-count axis of a scaling experiment
	// (nil = 1, 32, 64).
	CoreCounts []int `json:"coreCounts,omitempty"`

	// ReplayRanks are the cluster-replay rank counts attached to node and
	// sweep measurements (nil = 64 and 256; an explicit empty list means
	// node-only, like NoReplay).
	ReplayRanks []int `json:"replayRanks,omitempty"`
	// NoReplay disables the cluster replay stage of node/sweep experiments.
	NoReplay bool `json:"noReplay,omitempty"`
	// Network names the interconnect scenario: "mn4", "hdr200" or "eth10"
	// ("" = "mn4"). It drives the cluster replay of node/sweep experiments
	// and the whole replay of full-app/scaling ones.
	Network string `json:"network,omitempty"`

	// Optimize configures a KindOptimize experiment's successive-halving
	// search (nil on that kind = all defaults; rejected on every other).
	Optimize *OptimizeSpec `json:"optimize,omitempty"`

	// Recompute forces fresh simulation even for stored results (the fresh
	// measurements overwrite the store). It is an execution hint: it does
	// not participate in the canonical encoding or the store key.
	Recompute bool `json:"recompute,omitempty"`
}

// appResolver reports whether an application name resolves (nil) or why
// not; the package-level resolver knows the five built-ins, a Client's
// resolver adds registered custom applications. Validation asks by name
// only: no profile is built to answer it.
type appResolver func(name string) error

func builtinApps(name string) error {
	if apps.IsBuiltin(name) {
		return nil
	}
	_, err := apps.ByName(name) // the error that lists the built-ins
	return err
}

// Normalize validates the experiment and returns its canonical form:
// defaults applied, lists sorted and deduplicated, PointIndex resolved into
// Arch, and fields irrelevant to the kind rejected. All errors wrap
// ErrExperiment and one of the typed causes (ErrUnknownApp, ErrBadArch,
// ErrBadReplayRanks, ...). Two experiments with equal normalized forms are
// the same experiment — the canonical encoding (and therefore the result
// store key) is derived from it.
func (e Experiment) Normalize() (Experiment, error) {
	return e.normalize(builtinApps)
}

// Validate reports whether the experiment is well-formed without returning
// the normalized form.
func (e Experiment) Validate() error {
	_, err := e.Normalize()
	return err
}

func (e Experiment) normalize(resolve appResolver) (Experiment, error) {
	if e.Kind == "" {
		e.Kind = KindNode
	}
	switch e.Kind {
	case KindNode, KindFullApp, KindScaling, KindSweep, KindUnconventional, KindOptimize:
	default:
		return Experiment{}, fmt.Errorf("%w %q (valid: %s, %s, %s, %s, %s, %s)",
			ErrBadKind, e.Kind, KindNode, KindFullApp, KindScaling, KindSweep, KindUnconventional, KindOptimize)
	}

	// Fidelity knobs are kind-independent.
	if e.Sample < 0 || e.Warmup < 0 {
		return Experiment{}, fmt.Errorf("%w: negative sample/warmup (%d/%d)",
			ErrBadFidelity, e.Sample, e.Warmup)
	}
	if err := checkWindow(e.Sample, e.Warmup); err != nil {
		return Experiment{}, err
	}
	if e.Seed == 0 {
		e.Seed = 1
	}

	// Application resolution. An optimize search targets one application:
	// its probes answer a question about that app, not a cross-app survey.
	switch e.Kind {
	case KindNode, KindFullApp, KindScaling, KindOptimize:
		if len(e.Apps) > 0 {
			return Experiment{}, fmt.Errorf("%w: %s experiments take App, not Apps", ErrExperiment, e.Kind)
		}
		if e.App == "" {
			return Experiment{}, fmt.Errorf("%w: missing App", ErrUnknownApp)
		}
		if err := resolve(e.App); err != nil {
			return Experiment{}, fmt.Errorf("%w: %v", ErrUnknownApp, err)
		}
	case KindSweep:
		if e.App != "" {
			if e.Apps != nil {
				return Experiment{}, fmt.Errorf("%w: sweep takes App or Apps, not both", ErrExperiment)
			}
			e.Apps, e.App = []string{e.App}, ""
		}
		for _, name := range e.Apps {
			if err := resolve(name); err != nil {
				return Experiment{}, fmt.Errorf("%w: %v", ErrUnknownApp, err)
			}
		}
		if e.Apps != nil {
			e.Apps = append([]string(nil), e.Apps...)
			sort.Strings(e.Apps)
			e.Apps = slices.Compact(e.Apps)
		}
	case KindUnconventional:
		if e.App != "" || e.Apps != nil {
			return Experiment{}, fmt.Errorf("%w: unconventional experiments simulate the fixed Table II set; drop App/Apps", ErrExperiment)
		}
	}

	// Architecture resolution.
	switch e.Kind {
	case KindNode, KindFullApp:
		switch {
		case e.Arch != nil && e.PointIndex != nil:
			return Experiment{}, fmt.Errorf("%w: give either Arch or PointIndex, not both", ErrBadArch)
		case e.PointIndex != nil:
			a, err := PointArch(*e.PointIndex)
			if err != nil {
				return Experiment{}, err
			}
			e.Arch, e.PointIndex = &a, nil
		case e.Arch == nil:
			return Experiment{}, fmt.Errorf("%w: missing Arch or PointIndex", ErrBadArch)
		default:
			a := *e.Arch // canonical form owns its copy
			e.Arch = &a
		}
		if _, err := e.Arch.toPoint(); err != nil {
			return Experiment{}, err
		}
		if e.PointIndices != nil {
			return Experiment{}, fmt.Errorf("%w: PointIndices is a sweep field", ErrBadPoint)
		}
	case KindSweep, KindOptimize:
		if e.Arch != nil || e.PointIndex != nil {
			return Experiment{}, fmt.Errorf("%w: %s experiments take PointIndices, not Arch/PointIndex", ErrBadArch, e.Kind)
		}
		if e.PointIndices != nil {
			if len(e.PointIndices) == 0 {
				return Experiment{}, fmt.Errorf("%w: empty PointIndices (nil means the full grid)", ErrBadPoint)
			}
			idx := append([]int(nil), e.PointIndices...)
			slices.Sort(idx)
			idx = slices.Compact(idx)
			for _, i := range idx {
				if _, err := PointArch(i); err != nil {
					return Experiment{}, err
				}
			}
			e.PointIndices = idx
		}
	default:
		if e.Arch != nil || e.PointIndex != nil || e.PointIndices != nil {
			return Experiment{}, fmt.Errorf("%w: %s experiments take no architecture", ErrBadArch, e.Kind)
		}
	}

	// MPI rank count and core-count axis.
	switch e.Kind {
	case KindFullApp, KindScaling:
		if e.Ranks == 0 {
			e.Ranks = 256
		}
		if e.Ranks < 2 || e.Ranks > MaxReplayRanks {
			return Experiment{}, fmt.Errorf("%w: %d ranks out of range [2, %d]",
				ErrBadRanks, e.Ranks, MaxReplayRanks)
		}
	default:
		if e.Ranks != 0 {
			return Experiment{}, fmt.Errorf("%w: Ranks applies to %s and %s experiments",
				ErrBadRanks, KindFullApp, KindScaling)
		}
	}
	if e.Kind == KindScaling {
		if e.CoreCounts == nil {
			e.CoreCounts = []int{1, 32, 64}
		}
		if len(e.CoreCounts) == 0 || len(e.CoreCounts) > 16 {
			return Experiment{}, fmt.Errorf("%w: %d core counts (want 1-16)",
				ErrBadCoreCounts, len(e.CoreCounts))
		}
		for _, c := range e.CoreCounts {
			if c < 1 || c > 1024 {
				return Experiment{}, fmt.Errorf("%w: core count %d out of range [1, 1024]",
					ErrBadCoreCounts, c)
			}
		}
		e.CoreCounts = append([]int(nil), e.CoreCounts...)
	} else if e.CoreCounts != nil {
		return Experiment{}, fmt.Errorf("%w: CoreCounts is a scaling field", ErrBadCoreCounts)
	}

	// Replay configuration and network. Optimize experiments carry the
	// full-fidelity (final-rung) replay configuration: cheap rungs drop the
	// replay stage on their own, and the final rung reuses these fields
	// verbatim so its probes share store keys with an equivalent sweep.
	switch e.Kind {
	case KindNode, KindSweep, KindOptimize:
		if e.ReplayRanks != nil && len(e.ReplayRanks) == 0 {
			// An explicit empty list means node-only, like NoReplay.
			e.NoReplay, e.ReplayRanks = true, nil
		}
		if e.NoReplay {
			e.ReplayRanks, e.Network = nil, ""
			break
		}
		if e.ReplayRanks == nil {
			e.ReplayRanks = DefaultReplayRanks()
		} else {
			if err := ValidateReplayRanks(e.ReplayRanks); err != nil {
				return Experiment{}, fmt.Errorf("%w: %v", ErrBadReplayRanks, err)
			}
			ranks := append([]int(nil), e.ReplayRanks...)
			slices.Sort(ranks)
			e.ReplayRanks = slices.Compact(ranks)
		}
		if e.Network == "" {
			e.Network = "mn4"
		}
		if _, err := net.ByName(e.Network); err != nil {
			return Experiment{}, fmt.Errorf("%w: %v", ErrBadNetwork, err)
		}
	case KindFullApp, KindScaling:
		if e.ReplayRanks != nil || e.NoReplay {
			return Experiment{}, fmt.Errorf("%w: %s experiments replay at Ranks; drop ReplayRanks/NoReplay",
				ErrBadReplayRanks, e.Kind)
		}
		if e.Network == "" {
			e.Network = "mn4"
		}
		if _, err := net.ByName(e.Network); err != nil {
			return Experiment{}, fmt.Errorf("%w: %v", ErrBadNetwork, err)
		}
	case KindUnconventional:
		if e.ReplayRanks != nil || e.NoReplay || e.Network != "" {
			return Experiment{}, fmt.Errorf("%w: unconventional experiments take no replay configuration", ErrBadReplayRanks)
		}
	}

	// Optimize sub-spec: validated and materialized on KindOptimize,
	// rejected everywhere else.
	if e.Kind == KindOptimize {
		spec := e.Optimize
		if spec == nil {
			spec = &OptimizeSpec{}
		}
		n := len(e.PointIndices)
		if n == 0 {
			n = PointCount()
		}
		ns, err := spec.normalized(n)
		if err != nil {
			return Experiment{}, err
		}
		// A cheap rung samples at least MinSample after the full warmup.
		_, warmup := apps.EffectiveFidelity(e.Sample, e.Warmup)
		if err := checkWindow(ns.MinSample, warmup); err != nil {
			return Experiment{}, err
		}
		e.Optimize = ns
	} else if e.Optimize != nil {
		return Experiment{}, fmt.Errorf("%w: Optimize applies to %s experiments only", ErrBadOptimize, KindOptimize)
	}

	return e, nil
}

// checkWindow refuses a fidelity whose effective window exceeds
// apps.MaxWindow: the window is allocated whole, inside a sweep worker, so
// an unbounded one would take the process down.
func checkWindow(sample, warmup int64) error {
	s, w := apps.EffectiveFidelity(sample, warmup)
	if s > apps.MaxWindow || w > apps.MaxWindow || s+w > apps.MaxWindow {
		return fmt.Errorf("%w: sample %d + warmup %d exceeds the %d-micro-op window",
			ErrBadFidelity, s, w, apps.MaxWindow)
	}
	return nil
}

// canonicalExperiment is the deterministic encoding of a normalized
// experiment: fixed field order, defaults made explicit, the network
// resolved to its model (so renamed scenarios with identical parameters
// address the same results), and a registered custom application embedded
// by content. Its SHA-256 is the result-store key (schema v3).
type canonicalExperiment struct {
	V            int           `json:"v"`
	Kind         Kind          `json:"kind"`
	App          string        `json:"app,omitempty"`
	CustomApp    *apps.Profile `json:"customApp,omitempty"`
	Apps         []string      `json:"apps,omitempty"`
	Arch         *Arch         `json:"arch,omitempty"`
	PointIndices []int         `json:"pointIndices,omitempty"`
	Sample       int64         `json:"sample,omitempty"`
	Warmup       int64         `json:"warmup,omitempty"`
	Seed         uint64        `json:"seed"`
	Ranks        int           `json:"ranks,omitempty"`
	CoreCounts   []int         `json:"coreCounts,omitempty"`
	ReplayRanks  []int         `json:"replayRanks,omitempty"`
	Network      *net.Model    `json:"network,omitempty"`
	NoReplay     bool          `json:"noReplay,omitempty"`
	// Optimize is only set on KindOptimize experiments (nil elsewhere and
	// omitted, so the encodings — and store keys — of every pre-existing
	// kind are byte-identical to schema v3 before the field existed).
	Optimize *OptimizeSpec `json:"optimize,omitempty"`
}

// appendCanonical appends the encoding of c to dst: byte for byte what
// json.Marshal(c) returns (FuzzCanonicalMatchesMarshal holds it to that),
// written field by field in declaration order instead of reflected, because
// every store key and ring route key — one per request, one per sweep point
// — hashes it. Only the two nested user-shaped members, CustomApp and
// Optimize, go through json.Marshal, and each as a copy: handing Marshal a
// pointer read from c would move everything c points to onto the heap in
// every caller, the node key's Arch and network model included.
func appendCanonical(dst []byte, c *canonicalExperiment) []byte {
	num := func(name string, v int64) { // omitempty
		if v != 0 {
			dst = strconv.AppendInt(append(dst, name...), v, 10)
		}
	}
	ints := func(name string, vs []int) { // omitempty; name ends in '['
		if len(vs) == 0 {
			return
		}
		dst = append(dst, name...)
		for i, v := range vs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	nested := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			// Both members are trees of plain exported fields that their
			// constructors validated; Marshal cannot fail.
			panic(fmt.Sprintf("musa: marshal canonical experiment: %v", err))
		}
		dst = append(append(dst, name...), b...)
	}

	dst = strconv.AppendInt(append(dst, `{"v":`...), int64(c.V), 10)
	dst = jsonenc.AppendString(append(dst, `,"kind":`...), string(c.Kind))
	if c.App != "" {
		dst = jsonenc.AppendString(append(dst, `,"app":`...), c.App)
	}
	if c.CustomApp != nil {
		custom := *c.CustomApp
		nested(`,"customApp":`, &custom)
	}
	if len(c.Apps) > 0 {
		dst = append(dst, `,"apps":[`...)
		for i, a := range c.Apps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendString(dst, a)
		}
		dst = append(dst, ']')
	}
	if a := c.Arch; a != nil {
		dst = strconv.AppendInt(append(dst, `,"arch":{"cores":`...), int64(a.Cores), 10)
		dst = jsonenc.AppendString(append(dst, `,"coreType":`...), a.CoreType)
		dst = jsonenc.AppendFloat(append(dst, `,"freqGHz":`...), a.FreqGHz)
		dst = strconv.AppendInt(append(dst, `,"vectorBits":`...), int64(a.VectorBits), 10)
		dst = jsonenc.AppendString(append(dst, `,"cacheLabel":`...), a.CacheLabel)
		dst = strconv.AppendInt(append(dst, `,"channels":`...), int64(a.Channels), 10)
		if a.HBM {
			dst = append(dst, `,"hbm":true`...)
		}
		dst = append(dst, '}')
	}
	ints(`,"pointIndices":[`, c.PointIndices)
	num(`,"sample":`, c.Sample)
	num(`,"warmup":`, c.Warmup)
	dst = strconv.AppendUint(append(dst, `,"seed":`...), c.Seed, 10)
	num(`,"ranks":`, int64(c.Ranks))
	ints(`,"coreCounts":[`, c.CoreCounts)
	ints(`,"replayRanks":[`, c.ReplayRanks)
	if m := c.Network; m != nil {
		dst = jsonenc.AppendFloat(append(dst, `,"network":{"LatencyNs":`...), m.LatencyNs)
		dst = jsonenc.AppendFloat(append(dst, `,"BandwidthBps":`...), m.BandwidthBps)
		dst = strconv.AppendInt(append(dst, `,"EagerBytes":`...), m.EagerBytes, 10)
		dst = jsonenc.AppendFloat(append(dst, `,"CollectiveLatencyNs":`...), m.CollectiveLatencyNs)
		dst = append(dst, '}')
	}
	if c.NoReplay {
		dst = append(dst, `,"noReplay":true`...)
	}
	if c.Optimize != nil {
		spec := *c.Optimize
		nested(`,"optimize":`, &spec)
	}
	return append(dst, '}')
}

// CanonicalJSON returns the canonical encoding of the experiment: the
// normalized form marshaled with a fixed field order and a schema version
// marker. The encoding is byte-stable across runs and releases of the same
// schema version (see TestExperimentKeyGolden) — it is what Key hashes.
func (e Experiment) CanonicalJSON() ([]byte, error) {
	ne, err := e.Normalize()
	if err != nil {
		return nil, err
	}
	return ne.appendCanonicalJSON(nil, nil)
}

// appendCanonicalJSON appends the canonical encoding of an
// already-normalized experiment to dst. custom carries the registered
// profile when App is not a built-in (Client fills it).
func (e Experiment) appendCanonicalJSON(dst []byte, custom *apps.Profile) ([]byte, error) {
	c := canonicalExperiment{
		V:    store.SchemaVersion,
		Kind: e.Kind,
		App:  e.App, CustomApp: custom, Apps: e.Apps,
		Arch: e.Arch, PointIndices: e.PointIndices,
		Sample: e.Sample, Warmup: e.Warmup, Seed: e.Seed,
		Ranks: e.Ranks, CoreCounts: e.CoreCounts,
		ReplayRanks: e.ReplayRanks, NoReplay: e.NoReplay,
		Optimize: e.Optimize,
	}
	if e.Network != "" {
		// Normalize resolved the name. An error naming it would move e, and
		// the Arch it points to, onto the heap in every caller.
		m, ok := net.Lookup(e.Network)
		if !ok {
			return nil, fmt.Errorf("%w: unresolved network", ErrBadNetwork)
		}
		c.Network = &m
	}
	return appendCanonical(dst, &c), nil
}

// Key returns the content address of the experiment: the hex SHA-256 of
// its canonical encoding. Node-experiment keys are the result-store keys;
// sweeps derive one node key per (application, point), so sweep checkpoints
// and single-point requests address the same results.
func (e Experiment) Key() (string, error) {
	b, err := e.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return hashKey(b), nil
}

func hashKey(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// nodeKey builds the store key of one measurement of a normalized node or
// sweep experiment: the canonical node experiment for (app, arch) with the
// sweep's shared fidelity and replay fields. custom is the registered
// profile when app is not a built-in.
func nodeKey(e Experiment, app string, custom *apps.Profile, arch Arch) string {
	ne := Experiment{
		Kind: KindNode, App: app, Arch: &arch,
		Sample: e.Sample, Warmup: e.Warmup, Seed: e.Seed,
		ReplayRanks: e.ReplayRanks, NoReplay: e.NoReplay, Network: e.Network,
	}
	// A built-in node encoding is ~350 bytes: it is hashed off the stack.
	var buf [512]byte
	b, err := ne.appendCanonicalJSON(buf[:0], custom)
	if err != nil {
		// e is normalized, so its network name resolves.
		panic(fmt.Sprintf("musa: node key: %v", err))
	}
	return hashKey(b)
}

// SetReplayFlags parses the shared CLI replay flags — a comma-separated
// rank-count list, a no-replay switch and a network scenario name — into
// the experiment's replay fields. It is the one flag parser behind
// `musa dse` and `musa serve`; validation beyond syntax happens in Normalize.
func (e *Experiment) SetReplayFlags(ranksCSV string, noReplay bool, network string) error {
	ranks, err := ParseReplayRanks(ranksCSV)
	if err != nil {
		return err
	}
	e.ReplayRanks = ranks
	e.NoReplay = noReplay
	e.Network = network
	return nil
}

// parseReplayRanks is the underlying CSV parser of ParseReplayRanks, kept
// separate so the typed error wraps consistently.
func parseReplayRanks(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("%w: bad rank count %q", ErrBadReplayRanks, f)
		}
		out = append(out, n)
	}
	if err := ValidateReplayRanks(out); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReplayRanks, err)
	}
	return out, nil
}
