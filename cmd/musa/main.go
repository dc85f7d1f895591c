// musa is the command-line face of the MUSA-Go simulator: one binary whose
// subcommands reach every result of the paper through the musa.Client
// pipeline.
//
// Usage:
//
//	musa sim     -app lulesh -cores 64 -vector 512   # one node simulation
//	musa dse     -fig 5 -apps hydro,lulesh           # the Table I sweep and its figures
//	musa dse     -demo 2 -apps btmz -points 0-31 -verify   # a sweep sharded over a fleet
//	musa serve   -addr :8080 -cache-dir musa-cache   # the HTTP API
//	musa scaling -mode full -ranks 256               # Figs. 2a/2b
//	musa trace   -app spec3d -timeline threads       # Fig. 3, trace dumps
//
// Each subcommand has its own flags (musa <sub> -h lists them); all of them
// take -metrics, -trace-out, -cpuprofile and -memprofile, and all of them
// write those files and close their result stores on the way out, also
// when the command fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"musa"
	"musa/internal/obs"
)

// command is one subcommand: it registers its flags on fs, parses args
// and does its work.
type command struct {
	name, doc string
	run       func(fs *flag.FlagSet, args []string) error
}

var commands = []command{
	{"sim", "simulate one application on one configuration", runSim},
	{"dse", "run the design space sweep, its figures or an optimizer search", runDSE},
	{"serve", "serve the simulation pipeline over HTTP", runServe},
	{"scaling", "burst-mode scaling analysis (Figs. 2a/2b)", runScaling},
	{"trace", "synthesize, inspect and draw traces (Fig. 3)", runTrace},
}

// opened holds the clients openClient handed out; the epilogue closes them.
var opened []*musa.Client

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run executes one musa command line and returns its exit status: 0, 1
// when the subcommand failed, 2 for a bad command line. The epilogue — the
// observability dump and closing every opened client — runs either way.
func run(args []string, stderr io.Writer) int {
	var cmd *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		fmt.Fprintln(stderr, "usage: musa <subcommand> [flags]\n\nsubcommands:")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-8s %s\n", c.name, c.doc)
		}
		return 2
	}
	log.SetFlags(0)
	log.SetOutput(stderr)
	log.SetPrefix("musa " + cmd.name + ": ")
	fs, dump := newFlagSet(cmd.name)
	fs.SetOutput(stderr)
	badFlags := false
	defaultUsage := fs.Usage
	fs.Usage = func() { badFlags = true; defaultUsage() }

	opened = nil
	err := cmd.run(fs, args[1:])
	for i := len(opened) - 1; i >= 0; i-- {
		if cerr := opened[i].Close(); cerr != nil {
			log.Printf("close: %v", cerr)
		}
	}
	if derr := dump(); derr != nil {
		log.Print(derr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case badFlags:
		return 2
	}
	log.Print(err)
	return 1
}

// newFlagSet returns a subcommand's flag set with the observability flags
// registered, and the dump that writes their files.
func newFlagSet(name string) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("musa "+name, flag.ContinueOnError)
	return fs, obs.RegisterFlags(fs)
}

// openClient opens a client whose metrics the -metrics dump reports; the
// epilogue closes it.
func openClient(opts musa.ClientOptions) (*musa.Client, error) {
	c, err := musa.NewClient(opts)
	if errors.Is(err, musa.ErrStoreBusy) {
		return nil, fmt.Errorf("%w\nanother process is writing %s; pass -store-readonly to read from it anyway", err, opts.CacheDir)
	}
	if err != nil {
		return nil, err
	}
	opened = append(opened, c)
	c.RegisterMetrics(obs.DefaultRegistry())
	return c, nil
}

// serveUntilSignal serves srv until SIGINT or SIGTERM, then calls onSignal
// and shuts srv down, giving in-flight requests up to 30 s to finish.
func serveUntilSignal(srv *http.Server, onSignal func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		onSignal()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// splitList parses a comma-separated flag value, dropping empty elements.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
