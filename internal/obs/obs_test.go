package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeParenting(t *testing.T) {
	rec := NewRecorder(16)
	ctx := WithRecorder(context.Background(), rec)

	ctx, root := StartSpan(ctx, "root", A("kind", "sweep"))
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	r, c, g := byName["root"], byName["child"], byName["grandchild"]
	if r.Parent != "" {
		t.Errorf("root has parent %q", r.Parent)
	}
	if c.Parent != r.SpanID || g.Parent != c.SpanID {
		t.Errorf("parent chain broken: child.Parent=%q root=%q, grand.Parent=%q child=%q",
			c.Parent, r.SpanID, g.Parent, c.SpanID)
	}
	for _, s := range []Span{c, g} {
		if s.TraceID != r.TraceID {
			t.Errorf("span %s trace %q, want root's %q", s.Name, s.TraceID, r.TraceID)
		}
	}
	if len(r.Attrs) != 1 || r.Attrs[0] != (Attr{"kind", "sweep"}) {
		t.Errorf("root attrs = %v", r.Attrs)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	ctx := WithRecorder(context.Background(), nil) // recording disabled
	ctx2, s := StartSpan(ctx, "noop")
	if s != nil {
		t.Fatal("disabled recorder still produced a span")
	}
	if ctx2 != ctx {
		t.Error("disabled StartSpan should return ctx unchanged")
	}
	s.SetAttr("k", "v") // must not panic
	s.End()
	if got := s.HeaderValue(); got != "" {
		t.Errorf("nil span header = %q", got)
	}
}

func TestRemoteParentGraft(t *testing.T) {
	rec := NewRecorder(16)
	ctx := WithRecorder(context.Background(), rec)
	ctx = ContextWithRemote(ctx, "aaaa", "bbbb")
	_, s := StartSpan(ctx, "worker-side")
	s.End()
	got := rec.Spans()
	if len(got) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(got))
	}
	if got[0].TraceID != "aaaa" || got[0].Parent != "bbbb" {
		t.Errorf("remote graft: trace=%q parent=%q, want aaaa/bbbb", got[0].TraceID, got[0].Parent)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	_, s := StartSpan(ctx, "dispatch")
	hv := s.HeaderValue()
	tr, sp, ok := ParseTraceHeader(hv)
	if !ok || tr != s.TraceID || sp != s.SpanID {
		t.Fatalf("ParseTraceHeader(%q) = %q %q %v", hv, tr, sp, ok)
	}
	for _, bad := range []string{"", "no-colon", ":x", "x:"} {
		if _, _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
}

func TestRecorderRingWraps(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	for i := 0; i < 10; i++ {
		_, s := StartSpan(ctx, fmt.Sprintf("s%d", i))
		s.End()
	}
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", 6+i); s.Name != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first order)", i, s.Name, want)
		}
	}
	if rec.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", rec.Dropped())
	}
}

func TestNDJSONExport(t *testing.T) {
	rec := NewRecorder(8)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child", A("app", "lulesh"))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2", len(lines))
	}
	if lines[0]["name"] != "child" || lines[1]["name"] != "root" {
		t.Errorf("order: %v, %v (want completion order child, root)", lines[0]["name"], lines[1]["name"])
	}
	attrs, _ := lines[0]["attrs"].(map[string]any)
	if attrs["app"] != "lulesh" {
		t.Errorf("child attrs = %v", lines[0]["attrs"])
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := NewRecorder(8)
	ctx := WithRecorder(context.Background(), rec)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			TID  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %s phase %q, want X (complete)", e.Name, e.Ph)
		}
		if e.Dur <= 0 {
			t.Errorf("event %s has dur %v", e.Name, e.Dur)
		}
	}
	if doc.TraceEvents[0].TID != doc.TraceEvents[1].TID {
		t.Error("same trace should share one lane (tid)")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("musa_test_total", "help", L("kind", "a"))
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if again := reg.Counter("musa_test_total", "help", L("kind", "a")); again != c {
		t.Error("same identity must return the same counter")
	}

	g := reg.Gauge("musa_test_inflight", "help")
	g.Add(2)
	g.Add(-1)
	if g.Value() != 1 {
		t.Errorf("gauge = %d, want 1", g.Value())
	}

	h := reg.Histogram("musa_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Errorf("histogram sum = %v, want 55.55", h.Sum())
	}
}

// TestSeriesLookupDoesNotAllocate pins the hot-path contract of
// Registry.series: re-resolving an existing series — whatever order the
// caller lists the labels in — finds the same instance and allocates nothing.
func TestSeriesLookupDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("musa_http_requests_total", "help", L("route", "POST /simulate"), L("code", "2xx"))
	h := reg.Histogram("musa_http_request_duration_seconds", "help", nil, L("route", "POST /simulate"))
	g := reg.Gauge("musa_plain", "help")
	if reg.Counter("musa_http_requests_total", "help", L("code", "2xx"), L("route", "POST /simulate")) != c {
		t.Fatal("label order changed the series identity")
	}
	route := "POST /simulate" // not a constant where it matters: the middleware reads it per request
	allocs := testing.AllocsPerRun(200, func() {
		if reg.Counter("musa_http_requests_total", "help", L("route", route), L("code", "2xx")) != c ||
			reg.Histogram("musa_http_request_duration_seconds", "help", nil, L("route", route)) != h ||
			reg.Gauge("musa_plain", "help") != g {
			t.Fatal("existing series not found")
		}
	})
	if allocs != 0 {
		t.Errorf("resolving three existing series allocated %v times, want 0", allocs)
	}
	// Creation still sorts what the scrape prints.
	var out bytes.Buffer
	reg.WritePrometheus(&out)
	if want := `musa_http_requests_total{code="2xx",route="POST /simulate"} 0`; !strings.Contains(out.String(), want) {
		t.Errorf("scrape lacks %s:\n%s", want, out.String())
	}
	// More labels than the stack buffer holds still resolve to one series.
	var many []Label
	for i := 12; i > 0; i-- {
		many = append(many, L(fmt.Sprintf("l%02d", i), strings.Repeat("v", 20)))
	}
	if reg.Counter("musa_many", "help", many...) != reg.Counter("musa_many", "help", many...) {
		t.Error("a 12-label series resolved to two instances")
	}
}

func TestNewIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i := 0; i < 1000; i++ {
		id := newID()
		if v, err := strconv.ParseUint(id, 16, 64); !re.MatchString(id) || err != nil || v == 0 || fmt.Sprintf("%016x", v) != id {
			t.Fatalf("newID() = %q, want 16 lower-case hex digits of a non-zero value", id)
		}
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-4, 100, 3)
	if b[0] != 1e-4 {
		t.Errorf("first bucket %v, want 1e-4", b[0])
	}
	if last := b[len(b)-1]; last < 100*(1-1e-9) {
		t.Errorf("last bucket %v does not reach 100", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
}

// promLine matches one exposition-format sample line:
// name{label="value",...} value
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// parsePrometheus is a strict-enough parser of the text exposition format:
// every non-comment line must match the sample grammar, every sample's base
// name must be declared by a preceding # TYPE, histograms must expose
// _bucket/_sum/_count with a terminal +Inf bucket equal to _count, and
// bucket counts must be monotonically non-decreasing. Returns sample values
// keyed by full line identity (name + label string).
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad metric type in %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not match exposition grammar: %q", line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				if _, ok := types[strings.TrimSuffix(name, suffix)]; ok {
					base = strings.TrimSuffix(name, suffix)
				}
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		if m[3] == "+Inf" {
			t.Fatalf("+Inf sample value in %q", line)
		}
		samples[name+m[2]] = v
	}
	// Histogram invariants: +Inf bucket present and equal to _count.
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		for id, count := range samples {
			if !strings.HasPrefix(id, name+"_count") {
				continue
			}
			labels := strings.TrimPrefix(id, name+"_count")
			infID := name + "_bucket" + histInfLabel(labels)
			inf, ok := samples[infID]
			if !ok {
				t.Fatalf("histogram %s%s has no +Inf bucket (%s)", name, labels, infID)
			}
			if inf != count {
				t.Fatalf("histogram %s%s: +Inf bucket %v != count %v", name, labels, inf, count)
			}
		}
	}
	return samples
}

// histInfLabel inserts le="+Inf" into a rendered label string.
func histInfLabel(labels string) string {
	if labels == "" {
		return `{le="+Inf"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="+Inf"}`
}

func TestWritePrometheusParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("musa_requests_total", "Total requests.", L("route", "POST /simulate"), L("code", "2xx")).Add(7)
	reg.Gauge("musa_inflight", "In-flight requests.").Set(2)
	h := reg.Histogram("musa_request_duration_seconds", "Request durations.", nil, L("route", "POST /dse"))
	h.Observe(0.004)
	h.Observe(2.5)
	reg.CounterFunc("musa_store_hits_total", "Store hits.", func() float64 { return 42 })
	reg.GaugeFunc("musa_quoted", "Label escaping.", func() float64 { return 1 },
		L("path", `a\b"c`+"\n"))

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, buf.String())
	if got := samples[`musa_requests_total{code="2xx",route="POST /simulate"}`]; got != 7 {
		t.Errorf("counter sample = %v, want 7 (have %v)", got, samples)
	}
	if got := samples[`musa_inflight`]; got != 2 {
		t.Errorf("gauge sample = %v, want 2", got)
	}
	if got := samples[`musa_store_hits_total`]; got != 42 {
		t.Errorf("func counter = %v, want 42", got)
	}
	if got := samples[`musa_request_duration_seconds_count{route="POST /dse"}`]; got != 2 {
		t.Errorf("histogram count = %v, want 2", got)
	}
	if got := samples[`musa_request_duration_seconds_sum{route="POST /dse"}`]; got != 2.504 {
		t.Errorf("histogram sum = %v, want 2.504", got)
	}
}

func TestSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("musa_b_total", "b").Add(2)
	h := reg.Histogram("musa_a_seconds", "a", nil, L("stage", "annotate"))
	h.Observe(1.5)
	h.Observe(0.5)
	snap := reg.Snapshot()
	if len(snap) != 2 || snap[0].Name != "musa_a_seconds" || snap[1].Name != "musa_b_total" {
		t.Fatalf("snapshot families: %+v", snap)
	}
	s := snap[0].Series[0]
	if s.Value != 2.0 || s.Count != 2 {
		t.Errorf("histogram series sum=%v count=%d, want 2.0/2", s.Value, s.Count)
	}
	if len(s.Labels) != 1 || s.Labels[0] != (Label{"stage", "annotate"}) {
		t.Errorf("labels = %v", s.Labels)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("musa_h_seconds", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.5, 3, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, buf.String())
	// le is cumulative: le=1 counts 0.5 and 1.0 (observations <= bound).
	got1 := samples[`musa_h_seconds_bucket{le="1"}`]
	got2 := samples[`musa_h_seconds_bucket{le="2"}`]
	got4 := samples[`musa_h_seconds_bucket{le="4"}`]
	gotInf := samples[`musa_h_seconds_bucket{le="+Inf"}`]
	if got1 != 2 || got2 != 3 || got4 != 4 || gotInf != 5 {
		t.Errorf("buckets le1=%v le2=%v le4=%v inf=%v, want 2/3/4/5", got1, got2, got4, gotInf)
	}
	if samples[`musa_h_seconds_count`] != 5 {
		t.Errorf("count = %v, want 5", samples[`musa_h_seconds_count`])
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				reg.Counter("musa_c_total", "c", L("w", "x")).Inc()
				reg.Histogram("musa_hh_seconds", "h", nil).Observe(0.01)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := reg.Counter("musa_c_total", "c", L("w", "x")).Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := reg.Histogram("musa_hh_seconds", "h", nil).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestConcurrentSeriesCreation races series *creation* (distinct label sets,
// so every resolve may be the first) against scrapes and func re-registration
// — the serve middleware's exact access pattern. Run with -race; the
// assertions only confirm every series landed.
func TestConcurrentSeriesCreation(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		route := string(rune('a' + i))
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				reg.Counter("musa_req_total", "c", L("route", route)).Inc()
				reg.Histogram("musa_req_seconds", "h", nil, L("route", route)).Observe(0.01)
				reg.Gauge("musa_inflight", "g", L("route", route)).Add(1)
				reg.CounterFunc("musa_fn_total", "f", func() float64 { return 1 }, L("route", route))
			}
		}()
	}
	go func() {
		defer func() { done <- struct{}{} }()
		for j := 0; j < 200; j++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			reg.Snapshot()
		}
	}()
	for i := 0; i < 9; i++ {
		<-done
	}
	for i := 0; i < 8; i++ {
		route := string(rune('a' + i))
		if got := reg.Counter("musa_req_total", "c", L("route", route)).Value(); got != 200 {
			t.Errorf("route %s counter = %d, want 200", route, got)
		}
		if got := reg.Histogram("musa_req_seconds", "h", nil, L("route", route)).Count(); got != 200 {
			t.Errorf("route %s histogram count = %d, want 200", route, got)
		}
	}
}

// TestRegisterFlagsProfiles drives the pprof flag surface: -cpuprofile
// starts profiling at parse time and the dump closure stops it and writes
// both profile files.
func TestRegisterFlagsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pb.gz"
	mem := dir + "/mem.pb.gz"
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	dump := RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to say.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := dump(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// A second dump is a no-op for the CPU profile (already stopped).
	if err := dump(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterFlagsCPUProfileBadPath pins the error surface: an unwritable
// profile path fails at flag parse, not deep into the run.
func TestRegisterFlagsCPUProfileBadPath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	_ = RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", t.TempDir() + "/no/such/dir/cpu.pb"}); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}
