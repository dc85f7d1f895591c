package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// RegisterFlags wires the standard CLI observability flags onto fs:
//
//	-metrics FILE     Prometheus text metrics written at exit
//	-trace-out FILE   recorded spans written at exit (.ndjson extension =
//	                  NDJSON, anything else = Chrome trace_event JSON for
//	                  chrome://tracing / Perfetto)
//	-cpuprofile FILE  pprof CPU profile; starts the moment the flag is
//	                  parsed, stops at exit
//	-memprofile FILE  pprof heap profile written at exit (after a GC)
//
// The returned dump performs the exports against the package defaults;
// the caller runs it once the command is done, failed or not. Every
// subcommand of the musa binary registers the same set, so "add
// -cpuprofile" works identically across the CLI surface.
func RegisterFlags(fs *flag.FlagSet) func() error {
	metrics := fs.String("metrics", "",
		"write Prometheus text metrics to this file at exit")
	traceOut := fs.String("trace-out", "",
		"write the recorded trace to this file at exit (.ndjson = NDJSON, else Chrome trace JSON)")
	// The CPU profile is started from the flag's own Set callback, which
	// the flag package invokes during Parse — profiling covers the whole
	// run without the mains needing a second hook.
	var cpuFile *os.File
	fs.Func("cpuprofile",
		"write a pprof CPU profile to this file (starts at flag parse, stops at exit)",
		func(path string) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			cpuFile = f
			return nil
		})
	memProfile := fs.String("memprofile", "",
		"write a pprof heap profile to this file at exit")
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("obs: write cpu profile: %w", err)
			}
			cpuFile = nil
		}
		if *memProfile != "" {
			runtime.GC() // up-to-date heap statistics
			f, err := os.Create(*memProfile)
			if err != nil {
				return fmt.Errorf("obs: write mem profile: %w", err)
			}
			werr := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("obs: write mem profile: %w", werr)
			}
		}
		if *metrics != "" {
			if err := DefaultRegistry().WriteMetricsFile(*metrics); err != nil {
				return fmt.Errorf("obs: write metrics: %w", err)
			}
		}
		if *traceOut == "" {
			return nil
		}
		if strings.HasSuffix(*traceOut, ".ndjson") {
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("obs: write trace: %w", err)
			}
			werr := Default().WriteNDJSON(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("obs: write trace: %w", werr)
			}
			return nil
		}
		if err := Default().WriteChromeTraceFile(*traceOut); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
		return nil
	}
}
