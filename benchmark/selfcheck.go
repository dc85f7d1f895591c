package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"

	"musa"
)

// manifest is the part of BENCHMARK.json the self-check reads: the bounds
// live there and nowhere else.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, fmt.Errorf("benchmark: %w (run from the repository root)", err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	return m, nil
}

// runSelfcheck runs all four workloads in two sets of three runs each, in
// ABBAAB order, the workloads forward and backward in turn, so neither set
// owns the quiet end of the session. A set's value is the median of its runs,
// so one burst of host noise cannot fail it. It prints, for every end-to-end
// metric, how far the two sets disagree next to the bound, and fails
// when any metric disagrees beyond its bound: a bound the benchmark cannot
// keep against itself is no bound.
func runSelfcheck(seed uint64, seconds int) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	type set map[string]map[string][]float64 // workload -> metric -> one value per run
	sets := [2]set{{}, {}}
	failedOps := [2]map[string]int{{}, {}}
	for i, which := range []int{0, 1, 1, 0, 0, 1} {
		for j := range workloadOrder {
			name := workloadOrder[j]
			if i%2 == 1 {
				name = workloadOrder[len(workloadOrder)-1-j]
			}
			wr, err := child(workloadArgs(name, seed+uint64(i), seconds, 0)...)
			if err != nil {
				return err
			}
			if sets[which][name] == nil {
				sets[which][name] = map[string][]float64{}
			}
			for metric, v := range wr.Metrics {
				sets[which][name][metric] = append(sets[which][name][metric], v.Value)
			}
			failedOps[which][name] += wr.Failed
		}
	}
	fmt.Printf("| workload | metric | set A | set B | disagreement | bound | |\n|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, name := range workloadOrder {
		if fa, fb := failedOps[0][name], failedOps[1][name]; fa+fb > 0 {
			fmt.Printf("| %s | failed ops | %d | %d | | | FAIL |\n", name, fa, fb)
			bad++
		}
		for _, d := range man.EndToEnd {
			va, vb := median(sets[0][name][d.Name]), median(sets[1][name][d.Name])
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.3f | %.2f | %s |\n", name, d.Name, va, vb, diff, d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("benchmark: self-check: %d end-to-end metrics disagree beyond their bound", bad)
	}
	return nil
}

// runWriteGolden recomputes golden.json from the program as it stands. It
// refuses on a dirty tree: the digests must describe a commit, not an edit
// in progress.
func runWriteGolden() error {
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return fmt.Errorf("benchmark: -write-golden needs a git work tree: %w", err)
	}
	if len(bytes.TrimSpace(status)) > 0 {
		return fmt.Errorf("benchmark: -write-golden refuses to run on a dirty tree:\n%s", status)
	}
	sc, err := productionScale()
	if err != nil {
		return err
	}
	opts := clientOptions(sc.fid, "")
	c, err := musa.NewClient(opts)
	if err != nil {
		return err
	}
	defer c.Close()
	slice, err := sliceIndices()
	if err != nil {
		return err
	}
	golden := map[string]string{}
	for name, points := range map[string][]int{goldenSweep: slice, goldenPrime: gridPoints()} {
		out, err := c.Run(context.Background(), musa.Experiment{Kind: musa.KindSweep, PointIndices: points})
		if err != nil {
			return err
		}
		if golden[name], err = datasetDigest(out.Sweep.Measurements); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("benchmark/golden.json", append(b, '\n'), 0o644)
}
