// Command benchmark is the repository's end-to-end benchmark: it drives the
// real musa.Client and the real internal/serve handler over loopback sockets
// from one process, prints every metric by name with its unit, and checks
// every output byte against the digests in golden.json.
//
//	go run ./benchmark -workload sweep-cold -seed 1
//	go run ./benchmark -workload serve-hit -seed 7 -trace 1
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -selfcheck
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed of the request order and key choice")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
	out := flag.String("out", "", "also write the run's result as JSON to this file")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.ndjson)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice in ABBA order and compare the two sets against the bounds")
	writeGolden := flag.Bool("write-golden", false, "recompute benchmark/golden.json (refuses on a dirty tree)")
	flag.Parse()

	err := func() error {
		if flag.NArg() > 0 {
			return fmt.Errorf("benchmark: unexpected argument %q", flag.Arg(0))
		}
		switch {
		case *writeGolden:
			return runWriteGolden()
		case *selfcheck:
			return runSelfcheck(*seed, *seconds)
		case *workload == "all":
			return runAll(*seed, *seconds, *trace)
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			return fmt.Errorf("benchmark: -seconds must be at least 1 and -trace 0 or 1")
		}
		sc, err := productionScale()
		if err != nil {
			return err
		}
		cfg := config{
			workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *trace == 1,
			tmpRoot: filepath.Join(buildDir, "tmp"), traceOut: *traceOut, sc: sc,
		}
		if cfg.traced && cfg.traceOut == "" {
			cfg.traceOut = filepath.Join(buildDir, "trace-"+cfg.workload+".ndjson")
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		if *out != "" {
			wr, err := res.wire()
			if err != nil {
				return err
			}
			b, err := json.MarshalIndent(wr, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
				return err
			}
		}
		return res.print(os.Stdout)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// buildDir holds everything a run leaves behind; .gitignore names it.
const buildDir = ".bench_build"

// child runs this executable once more with the given arguments and returns
// the JSON object on the last line of its output. Each workload gets a
// process of its own, so peak RSS and GC state do not leak between them.
func child(args ...string) (wireResult, error) {
	var wr wireResult
	exe, err := os.Executable()
	if err != nil {
		return wr, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return wr, fmt.Errorf("benchmark: %s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &wr); err != nil {
		return wr, fmt.Errorf("benchmark: %s: last line is not a result: %w", strings.Join(args, " "), err)
	}
	return wr, nil
}

func workloadArgs(name string, seed uint64, seconds, trace int) []string {
	return []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
}

// runAll runs every workload, each in a process of its own, and prints each
// one's result line.
func runAll(seed uint64, seconds, trace int) error {
	failed := false
	for _, name := range workloadOrder {
		wr, err := child(workloadArgs(name, seed, seconds, trace)...)
		if err != nil {
			return err
		}
		line, err := json.Marshal(wr)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", name, line)
		failed = failed || !wr.Correct
	}
	if failed {
		return fmt.Errorf("benchmark: a workload had failed ops")
	}
	return nil
}
