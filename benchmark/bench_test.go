package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeScale runs every workload's real code at a hundredth of the size:
// tiny simulation fidelity, a 360-key store, blocks of a few dozen requests.
// With no golden digests, datasets are checked against each other.
func smokeScale() scale {
	tiny := fidelity{2000, 5000}
	return scale{
		fid:          tiny,
		ringFid:      tiny,
		primeAll:     false,
		setupRepeats: map[string]int{"sweep-cold": 1, "sweep-warm": 1, "serve-hit": 1, "serve-ring-mix": 2},
		hitWarmup:    50,
		hitBlock:     100,
		ringBlock:    30,
		ringNewKeys:  3,
		minBlocks:    1,
		ladderReps:   20,
	}
}

func smokeConfig(t *testing.T, workload string, seed uint64, traced bool) config {
	t.Helper()
	dir := t.TempDir()
	return config{
		workload: workload, seed: seed, seconds: 0.05, traced: traced,
		tmpRoot: dir, traceOut: filepath.Join(dir, "spans.ndjson"), sc: smokeScale(),
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode holds BENCHMARK.json to the metric tables and the
// workload list the program emits.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(workloadOrder))
	}
	for i, w := range man.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadOrder[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		if got := man.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
		if b := man.EndToEnd[i].Bound; b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, b)
		}
	}
	for i, d := range perLayer {
		if got := man.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is not made of letters, digits, '_', '.', '-'", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs all four workloads traced at smoke scale and checks what
// the issue asks of every run: every declared metric is emitted with its
// unit, no op fails, the stage counts are exact, the span tree is well
// formed, the result line has exactly the contract's keys, temp directories
// are gone, and no goroutine outlives a workload.
func TestSmoke(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	stageWant := map[string]map[string]float64{
		"sweep-cold": {"dse.builds_fuse": 15, "dse.builds_annotate": 45, "dse.builds_latency_fit": 10,
			"dse.builds_burst": 5, "dse.node_sims": 360, "dse.replays": 360},
		"sweep-warm": {"dse.builds_fuse": 15, "dse.builds_annotate": 0, "dse.builds_latency_fit": 0,
			"dse.builds_burst": 0, "dse.node_sims": 360, "dse.replays": 360},
	}
	for _, name := range workloadOrder {
		cfg := smokeConfig(t, name, 1, true)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.failed, res.attempted, res.failures)
		}
		// A traced run computes both sets; each mode's result line carries
		// exactly its own.
		for _, traced := range []bool{false, true} {
			res.traced = traced
			var buf bytes.Buffer
			if err := res.print(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not a JSON object: %v", name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: result line keys are not exactly correct, attempted, failed, metrics: %s", name, lines[len(lines)-1])
			}
			var got map[string]wireMetric
			if err := json.Unmarshal(last["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics on the result line, want %d", name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				if g, ok := got[d.name]; !ok || g.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q, want %q", name, traced, d.name, g.Unit, d.unit)
				}
			}
		}
		for _, d := range endToEnd {
			if !(res.m[d.name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.name, res.m[d.name])
			}
		}
		for metric, want := range stageWant[name] {
			if got := res.m[metric]; got != want {
				t.Errorf("%s: %s = %v per op, want exactly %v", name, metric, got, want)
			}
		}
		// The ladder's sum for one op fits inside the op's wall time on
		// both workers. (checkSpanTree already ran inside runWorkload.)
		if strings.HasPrefix(name, "sweep-") && res.m["dse.unattributed_share"] < 0 {
			t.Errorf("%s: ladder sum exceeds op wall x workers (unattributed share %v)", name, res.m["dse.unattributed_share"])
		}
		if name == "serve-ring-mix" && res.m["serve.proxied_share"] <= 0 {
			t.Errorf("%s: no request crossed the ring", name)
		}
		if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", name, err)
		}
		if left, _ := filepath.Glob(filepath.Join(cfg.tmpRoot, name+"-*")); len(left) > 0 {
			t.Errorf("%s: temp directories left behind: %v", name, left)
		}
	}
	// Connection goroutines take a moment to notice their sockets closed.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the workloads, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestSequenceFollowsSeed: the same seed gives the same request sequence,
// another seed another one. The serve workloads are run; a sweep's seed only
// shuffles the order its request lists applications and points in, which the
// generator shows without a run.
func TestSequenceFollowsSeed(t *testing.T) {
	points, err := sliceIndices()
	if err != nil {
		t.Fatal(err)
	}
	op := func(seed uint64) string {
		b, err := json.Marshal(sweepOp(rand.New(rand.NewPCG(seed, 0)), points))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if op(7) != op(7) || op(7) == op(8) {
		t.Error("sweep op does not follow the seed")
	}
	for _, name := range []string{"serve-hit", "serve-ring-mix"} {
		sha := func(seed uint64) string {
			res, err := runWorkload(smokeConfig(t, name, seed, false))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.failed != 0 {
				t.Errorf("%s seed %d: failed ops: %v", name, seed, res.failures)
			}
			return res.sequenceSHA
		}
		a, b, c := sha(7), sha(7), sha(8)
		if a != b {
			t.Errorf("%s: seed 7 gave sequences %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", name, a)
		}
	}
}

// TestSpanTreeChecks: the checker accepts a well-formed tree and names what
// is wrong with a malformed one.
func TestSpanTreeChecks(t *testing.T) {
	good := []span{
		{ID: 1, Op: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", StartNs: 40, EndNs: 90},
	}
	if err := checkSpanTree(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if self := selfTimes(good); self[1] != 20 || self[2] != 30 || self[3] != 50 {
		t.Errorf("self times %v, want 20/30/50", self)
	}
	for what, bad := range map[string][]span{
		"child outside parent": {good[0], {ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 10, EndNs: 140}},
		"child of another op":  {good[0], {ID: 2, Parent: 1, Op: 2, Name: "a", StartNs: 10, EndNs: 40}},
		"negative self time": {good[0], {ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 0, EndNs: 100},
			{ID: 3, Parent: 1, Op: 1, Name: "b", StartNs: 0, EndNs: 100}},
		"never ended": {{ID: 1, Op: 1, Name: "op", StartNs: 5}},
	} {
		if checkSpanTree(bad) == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

// TestFailedSetupNamesTheStep: a set-up that cannot proceed returns an error
// naming the step, and no result.
func TestFailedSetupNamesTheStep(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-directory")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, "sweep-cold", 1, false)
	cfg.tmpRoot = file
	res, err := runWorkload(cfg)
	if err == nil || res != nil {
		t.Fatalf("set-up under a regular file succeeded: %v", res)
	}
	if !strings.Contains(err.Error(), "temp") {
		t.Errorf("error does not name the step: %v", err)
	}
	if _, err := runWorkload(smokeConfig(t, "no-such-workload", 1, false)); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestHostCorrection: a corrected phase divides every block's wall time, CPU
// time and latencies by the block's host factor, and keeps what it measured.
func TestHostCorrection(t *testing.T) {
	p := &phase{corrected: true, latMs: []float64{1, 3, 4, 4}, blocks: []block{
		{wall: time.Second, cpu: 500 * time.Millisecond, points: 100, ops: 2, host: 2},
		{wall: time.Second, cpu: 500 * time.Millisecond, points: 100, ops: 2, host: 1},
	}}
	res := &result{m: metrics{}}
	if err := p.endToEnd(res); err != nil {
		t.Fatal(err)
	}
	// Block 0 on a host twice as slow: 200 points/s, 2.5 ms of CPU per point
	// and latencies 0.5 and 1.5 ms once corrected.
	for name, want := range map[string]float64{"points_per_s": 150, "cpu_ms_per_point": 3.75, "latency_p50_ms": 2.75} {
		if got := res.m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("corrected %s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{"points_per_s": 100, "cpu_ms_per_point": 5, "latency_p50_ms": 3.5} {
		if got := res.asMeasured[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("as measured %s = %v, want %v", name, got, want)
		}
	}
	p.probeErr = os.ErrClosed
	if p.endToEnd(res) == nil {
		t.Error("a failed host probe was not reported")
	}
}
