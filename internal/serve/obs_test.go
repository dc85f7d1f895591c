package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"musa/internal/obs"
)

// obsServer is testServer with an isolated registry and span ring, so
// assertions about counters and spans see only this test's traffic.
func obsServer(t *testing.T) (*httptest.Server, *Service, *obs.Registry, *obs.Recorder) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(4096)
	svc := testService(t, t.TempDir())
	ts := httptest.NewServer(NewHandler(svc, WithRegistry(reg), WithRecorder(rec)))
	t.Cleanup(ts.Close)
	return ts, svc, reg, rec
}

// promLine matches one exposition sample: name, optional label set, value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parseProm strictly parses a Prometheus text exposition body: every sample
// line must match the grammar and belong to a family declared by a # TYPE
// line above it. Returns sample values keyed by "name{labels}".
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[f[2]] = f[3]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample: %q", ln+1, line)
		}
		name := m[1]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suf); b != name && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, m[3], err)
		}
		samples[name+m[2]] = v
	}
	return samples
}

// TestMetricsEndpoint drives real traffic through the handler and asserts
// GET /metrics renders it in valid Prometheus text format: per-route HTTP
// histograms, request counters and the bridged client/store/artifact
// counters all present.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _, _ := obsServer(t)

	if code := getJSON(t, ts.URL+"/apps", nil); code != http.StatusOK {
		t.Fatalf("GET /apps = %d", code)
	}
	var sim map[string]any
	if code := postJSON(t, ts.URL+"/simulate", `{"app":"lulesh","pointIndex":0}`, &sim); code != http.StatusOK {
		t.Fatalf("POST /simulate = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, ct := readBody(t, resp), resp.Header.Get("Content-Type")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type = %q", ct)
	}
	samples := parseProm(t, body)

	if v := samples[`musa_http_requests_total{code="2xx",route="GET /apps"}`]; v != 1 {
		t.Fatalf("GET /apps request counter = %v, want 1", v)
	}
	if v := samples[`musa_http_request_duration_seconds_count{route="POST /simulate"}`]; v != 1 {
		t.Fatalf("/simulate duration count = %v, want 1", v)
	}
	if v := samples[`musa_http_request_duration_seconds_bucket{route="POST /simulate",le="+Inf"}`]; v != 1 {
		t.Fatalf("/simulate +Inf bucket = %v, want 1", v)
	}
	// The bridged client counters: the fresh simulate was a store miss, then
	// a simulation.
	if v := samples[`musa_store_misses_total`]; v != 1 {
		t.Fatalf("store misses = %v, want 1", v)
	}
	if v := samples[`musa_client_simulated_total`]; v != 1 {
		t.Fatalf("simulated = %v, want 1", v)
	}
	for _, name := range []string{
		`musa_store_hits_total`,
		`musa_store_entries`,
		`musa_http_requests_in_flight`,
		`musa_artifact_hits_total{kind="hit-rates"}`,
		`musa_artifact_bytes_total{direction="written"}`,
	} {
		if _, ok := samples[name]; !ok {
			t.Fatalf("metric %s absent from /metrics", name)
		}
	}
	// The dse stage histogram flows through the default registry (package
	// global), not the per-test one; its presence is asserted by the obs and
	// CLI layers. Here the scrape-format invariant matters: every histogram's
	// +Inf bucket equals its _count.
	for k, v := range samples {
		if i := strings.Index(k, `_bucket{`); i >= 0 && strings.Contains(k, `le="+Inf"`) {
			base := k[:i]
			lbl := k[i+len(`_bucket`):]
			lbl = strings.Replace(lbl, `le="+Inf",`, "", 1)
			lbl = strings.Replace(lbl, `,le="+Inf"`, "", 1)
			lbl = strings.Replace(lbl, `{le="+Inf"}`, "", 1)
			if c, ok := samples[base+"_count"+lbl]; ok && c != v {
				t.Fatalf("%s +Inf bucket %v != count %v", base, v, c)
			}
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTracePropagation sends a request carrying X-Musa-Trace and asserts the
// whole server-side span tree — request span and the client.run span under
// it — grafts into the remote trace.
func TestTracePropagation(t *testing.T) {
	ts, _, _, rec := obsServer(t)

	const traceID, parentID = "00000000000000aa", "00000000000000bb"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/simulate",
		strings.NewReader(`{"app":"lulesh","pointIndex":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID+":"+parentID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /simulate = %d", resp.StatusCode)
	}

	var reqSpan, runSpan *obs.Span
	spans := rec.Spans()
	for i := range spans {
		switch spans[i].Name {
		case "http.request":
			reqSpan = &spans[i]
		case "client.run":
			runSpan = &spans[i]
		}
	}
	if reqSpan == nil || runSpan == nil {
		t.Fatalf("missing spans: request=%v run=%v (have %d spans)", reqSpan, runSpan, len(spans))
	}
	if reqSpan.TraceID != traceID || reqSpan.Parent != parentID {
		t.Fatalf("request span trace=%s parent=%s, want %s/%s",
			reqSpan.TraceID, reqSpan.Parent, traceID, parentID)
	}
	if runSpan.TraceID != traceID || runSpan.Parent != reqSpan.SpanID {
		t.Fatalf("client.run span trace=%s parent=%s, want %s/%s",
			runSpan.TraceID, runSpan.Parent, traceID, reqSpan.SpanID)
	}
	// The matched route is attached after dispatch.
	var route string
	for _, a := range reqSpan.Attrs {
		if a.Key == "route" {
			route = a.Value
		}
	}
	if route != "POST /simulate" {
		t.Fatalf("request span route attr = %q", route)
	}
}

// TestOversizedTraceHeaderIgnored: a /simulate carrying a 64 KiB
// X-Musa-Trace value is served, and its request span starts a trace of its
// own instead of carrying the value into the span ring, the exports, the
// access log and the next hop.
func TestOversizedTraceHeaderIgnored(t *testing.T) {
	ts, _, _, rec := obsServer(t)
	half := strings.Repeat("a", 32<<10)
	value := half + ":" + half[1:]
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/simulate",
		strings.NewReader(`{"app":"lulesh","pointIndex":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, value)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /simulate = %d", resp.StatusCode)
	}
	id := regexp.MustCompile(`^[0-9a-f]{16}$`)
	var reqSpan *obs.Span
	spans := rec.Spans()
	for i := range spans {
		if spans[i].Name == "http.request" {
			reqSpan = &spans[i]
		}
	}
	if reqSpan == nil {
		t.Fatalf("no http.request span among %d", len(spans))
	}
	if !id.MatchString(reqSpan.TraceID) || strings.Contains(value, reqSpan.TraceID) || reqSpan.Parent != "" {
		t.Fatalf("request span trace %.40q parent %.40q, want a new 16-hex-digit root", reqSpan.TraceID, reqSpan.Parent)
	}
}

// TestDebugTraceEndpoint checks both export formats of the span ring.
func TestDebugTraceEndpoint(t *testing.T) {
	ts, _, _, _ := obsServer(t)
	if code := getJSON(t, ts.URL+"/apps", nil); code != http.StatusOK {
		t.Fatal("GET /apps failed")
	}

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	found := false
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var span struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("NDJSON line %q: %v", line, err)
		}
		found = found || span.Name == "http.request"
	}
	if !found {
		t.Fatal("/debug/trace NDJSON holds no http.request span")
	}

	resp, err = http.Get(ts.URL + "/debug/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readBody(t, resp)), &doc); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Ph != "X" {
		t.Fatalf("chrome trace events malformed: %+v", doc.TraceEvents)
	}
}

// TestHTTPErrorSanitizesInternal asserts the satellite contract of
// httpError: 4xx messages reach the client verbatim (validation feedback),
// 5xx bodies carry only the status text while the full error goes to the
// server log.
func TestHTTPErrorSanitizes(t *testing.T) {
	var logBuf bytes.Buffer
	SetErrorLog(log.New(&logBuf, "", 0))
	defer SetErrorLog(nil)

	secret := fmt.Errorf("pipeline exploded at /var/lib/musa/cache: permission denied")

	rr := httptest.NewRecorder()
	httpError(rr, http.StatusInternalServerError, secret)
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["error"] != http.StatusText(http.StatusInternalServerError) {
		t.Fatalf("500 body leaked %q", body["error"])
	}
	if !strings.Contains(logBuf.String(), secret.Error()) {
		t.Fatalf("500 error not logged server-side: %q", logBuf.String())
	}

	rr = httptest.NewRecorder()
	httpError(rr, http.StatusBadRequest, fmt.Errorf("bad sample count"))
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["error"] != "bad sample count" {
		t.Fatalf("400 body = %q, want the verbatim message", body["error"])
	}
}

// TestMiddlewarePreservesFlusher asserts streaming handlers behind the
// instrumentation middleware still see an http.Flusher — the contract the
// /dse NDJSON stream depends on.
func TestMiddlewarePreservesFlusher(t *testing.T) {
	cfg := &handlerConfig{reg: obs.NewRegistry(), rec: obs.NewRecorder(16)}
	sawFlusher := false
	h := instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		w.Write([]byte("x"))
		if ok {
			f.Flush()
		}
	}), cfg)
	rr := httptest.NewRecorder() // httptest.ResponseRecorder implements Flusher
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if !sawFlusher {
		t.Fatal("middleware hid http.Flusher from the handler")
	}
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
}
