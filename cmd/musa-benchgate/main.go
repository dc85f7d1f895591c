// musa-benchgate turns `go test -bench` output into a benchmark trajectory
// artifact and gates CI on performance regressions.
//
// Usage:
//
//	go test -run '^$' -bench 'ClientSweepReduced|SweepReplayOverhead' -benchtime 1x . | tee bench.txt
//	musa-benchgate -in bench.txt -out BENCH.json -baseline bench/BENCH_baseline.json
//
// The tool parses the standard benchmark lines (name, iterations, ns/op,
// plus -benchmem's B/op and allocs/op when present), writes them as a JSON
// document, and — when a baseline is given — fails
// with exit status 1 if any benchmark regressed by more than -max-regress
// (default 0.25, i.e. >25% slower than the checked-in baseline) or
// disappeared. Benchmarks absent from the baseline (newly added ones) are
// reported with a "new" marker and never gate: the benchmark suite can
// grow without touching the baseline in the same change. Adopt their
// numbers later with -write-baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchFile is the schema of BENCH_*.json and the checked-in baseline.
type BenchFile struct {
	Schema     string  `json:"schema"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one parsed benchmark result. BytesPerOp and AllocsPerOp are
// filled when the run used -benchmem; they appear in the artifact and the
// report as allocation-trajectory columns but are never gated (allocation
// counts shift with compiler versions in ways wall time does not). Extra
// carries any further custom b.ReportMetric pairs trailing the ns/op column
// (unit -> value), e.g. the optimizer's probe-cost-ratio; extras ride along
// in the artifact and the report but are never gated either.
type Bench struct {
	Name        string             `json:"name"`
	Iters       int64              `json:"iters"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  float64            `json:"bytesPerOp,omitempty"`
	AllocsPerOp float64            `json:"allocsPerOp,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// benchLine matches `BenchmarkName-8   12   3456 ns/op [...]`; the GOMAXPROCS
// suffix is stripped so baselines survive runner-core-count changes. The
// trailing capture holds any further `value unit` metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(.*)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("musa-benchgate: ")

	in := flag.String("in", "-", "benchmark output to parse (- = stdin)")
	out := flag.String("out", "", "write the parsed results as JSON here")
	baseline := flag.String("baseline", "", "baseline JSON to gate against")
	maxRegress := flag.Float64("max-regress", 0.25, "maximum tolerated slowdown vs the baseline (0.25 = +25%)")
	writeBaseline := flag.String("write-baseline", "", "write the parsed results as a new baseline here and skip the gate")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	results, err := Parse(r)
	if err != nil {
		log.Fatal(err)
	}
	if len(results.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	for _, path := range []string{*out, *writeBaseline} {
		if path == "" {
			continue
		}
		if err := writeJSON(path, results); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d benchmarks to %s", len(results.Benchmarks), path)
	}
	if *baseline == "" || *writeBaseline != "" {
		return
	}

	base, err := readJSON(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	report, failed := Gate(base, results, *maxRegress)
	for _, line := range report {
		log.Print(line)
	}
	if failed {
		log.Fatalf("benchmark regression gate FAILED (max tolerated +%.0f%%)", *maxRegress*100)
	}
	log.Print("benchmark regression gate passed")
}

// Parse extracts benchmark results from `go test -bench` output, sorted by
// name for a stable artifact.
func Parse(r io.Reader) (*BenchFile, error) {
	out := &BenchFile{Schema: "musa-bench/v1"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %v", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		b := Bench{Name: m[1], Iters: iters, NsPerOp: ns}
		// Trailing `value unit` pairs: testing's standard extras (B/op,
		// allocs/op, MB/s) and anything a benchmark adds via b.ReportMetric.
		// The -benchmem pair gets first-class columns; the rest lands in
		// Extra.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %v", sc.Text(), err)
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Extra == nil {
					b.Extra = map[string]float64{}
				}
				b.Extra[fields[i+1]] = v
			}
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool { return out.Benchmarks[i].Name < out.Benchmarks[j].Name })
	return out, nil
}

// Gate compares current results against the baseline. Every baseline entry
// must be present and at most maxRegress slower. Benchmarks the baseline
// does not know — newly added ones — are reported with a "new" marker but
// never fail the gate; they are adopted into the baseline explicitly via
// -write-baseline, not implicitly by erroring CI until someone edits JSON.
func Gate(base, cur *BenchFile, maxRegress float64) (report []string, failed bool) {
	curBy := map[string]Bench{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	for _, b := range base.Benchmarks {
		c, ok := curBy[b.Name]
		if !ok {
			report = append(report, fmt.Sprintf("FAIL %s: in baseline but not in current run", b.Name))
			failed = true
			continue
		}
		delete(curBy, b.Name)
		if b.NsPerOp <= 0 {
			report = append(report, fmt.Sprintf("FAIL %s: non-positive baseline %v ns/op", b.Name, b.NsPerOp))
			failed = true
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok  "
		if ratio > 1+maxRegress {
			verdict = "FAIL"
			failed = true
		}
		report = append(report, fmt.Sprintf("%s %s: %.0f ns/op vs baseline %.0f (%+.1f%%)",
			verdict, b.Name, c.NsPerOp, b.NsPerOp, (ratio-1)*100))
		report = append(report, extraLines(c)...)
	}
	var extra []string
	for name := range curBy {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		report = append(report, fmt.Sprintf("new  %s: %.0f ns/op — not in the baseline; reported, never gated (adopt with -write-baseline)",
			name, curBy[name].NsPerOp))
		report = append(report, extraLines(curBy[name])...)
	}
	return report, failed
}

// extraLines renders a benchmark's non-time metrics — the -benchmem columns
// and custom b.ReportMetric pairs (probe-cost-ratio and friends) — as
// informational report lines; they never gate.
func extraLines(b Bench) []string {
	var out []string
	if b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		out = append(out, fmt.Sprintf("info %s: %.0f B/op, %.0f allocs/op (reported, not gated)",
			b.Name, b.BytesPerOp, b.AllocsPerOp))
	}
	units := make([]string, 0, len(b.Extra))
	for u := range b.Extra {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		out = append(out, fmt.Sprintf("info %s: %g %s (reported, not gated)", b.Name, b.Extra[u], u))
	}
	return out
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSON(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out BenchFile
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &out, nil
}
