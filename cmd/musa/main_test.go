package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every subcommand takes the observability flags obs.RegisterFlags
// promises the whole CLI surface, and parses its arguments with them.
func TestEverySubcommandTakesTheObservabilityFlags(t *testing.T) {
	for _, c := range commands {
		fs, _ := newFlagSet(c.name)
		fs.SetOutput(io.Discard)
		if err := c.run(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: err = %v, want flag.ErrHelp", c.name, err)
		}
		for _, name := range []string{"metrics", "trace-out", "cpuprofile", "memprofile"} {
			if fs.Lookup(name) == nil {
				t.Errorf("%s has no -%s flag", c.name, name)
			}
		}
	}
}

func TestUnknownOrMissingSubcommandPrintsTheList(t *testing.T) {
	for _, args := range [][]string{nil, {"nosuch"}, {"-h"}} {
		var out bytes.Buffer
		if status := run(args, &out); status != 2 {
			t.Errorf("musa %q: status %d, want 2", args, status)
		}
		for _, c := range commands {
			if !strings.Contains(out.String(), "  "+c.name+" ") {
				t.Errorf("musa %q: usage does not list %s:\n%s", args, c.name, out.String())
			}
		}
	}
	var out bytes.Buffer
	if status := run([]string{"sim", "-nosuch"}, &out); status != 2 {
		t.Errorf("musa sim -nosuch: status %d, want 2", status)
	}
}

// A failing command still writes its -metrics file: the epilogue runs
// before the exit status is returned.
func TestFailingCommandStillWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	var out bytes.Buffer
	if status := run([]string{"sim", "-app", "nosuch", "-metrics", path}, &out); status != 1 {
		t.Fatalf("sim -app nosuch: status %d, want 1 (output %q)", status, out.String())
	}
	if !strings.Contains(out.String(), "nosuch") {
		t.Errorf("the error does not name the application: %q", out.String())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("metrics file after a failed command: %v, %v", fi, err)
	}
}

// A ring needs both halves: this replica's own URL and the members. Either
// alone is refused before anything opens, and the error names both flags.
func TestServeRingFlagsComeTogether(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"serve", "-self", "http://127.0.0.1:1", "-cache-dir", dir},
		{"serve", "-peers", "http://127.0.0.1:1,http://127.0.0.1:2", "-cache-dir", dir},
	} {
		var out bytes.Buffer
		if status := run(args, &out); status == 0 {
			t.Fatalf("musa %q: status 0, want a refusal", args)
		}
		if !strings.Contains(out.String(), "-self") || !strings.Contains(out.String(), "-peers") {
			t.Errorf("musa %q: the error does not name -self and -peers: %q", args, out.String())
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("musa %q opened the store before refusing: %v", args, err)
		}
	}
}

func TestParsePoints(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int // indices expected; -1 = an error
		last int
	}{
		{"0-95,100", 97, 100},
		{"863", 1, 863},
		{" 3 - 5 ", 3, 5},
		{"5-3", -1, 0},
		{"x", -1, 0},
		{"1-", -1, 0},
		{"0-9999999999", -1, 0},
		{"864", -1, 0},
		{"-1", -1, 0},
	} {
		got, err := parsePoints(tc.in)
		if tc.n < 0 {
			if err == nil {
				t.Errorf("parsePoints(%q) = %d indices, want an error", tc.in, len(got))
			}
			continue
		}
		if err != nil || len(got) != tc.n || got[len(got)-1] != tc.last {
			t.Errorf("parsePoints(%q) = %d indices, %v; want %d ending at %d", tc.in, len(got), err, tc.n, tc.last)
		}
	}
}
