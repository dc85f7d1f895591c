package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"musa"
)

func testServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	svc := testService(t, t.TempDir())
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestAppsAndPointsEndpoints(t *testing.T) {
	ts, _ := testServer(t)

	var apps struct {
		Apps []string `json:"apps"`
	}
	if code := getJSON(t, ts.URL+"/apps", &apps); code != http.StatusOK {
		t.Fatalf("/apps -> %d", code)
	}
	if len(apps.Apps) != 5 || apps.Apps[0] != "hydro" {
		t.Fatalf("/apps = %v, want the five paper applications", apps.Apps)
	}

	var points struct {
		Count  int `json:"count"`
		Points []struct {
			Index int    `json:"index"`
			Label string `json:"label"`
			Cores int    `json:"cores"`
		} `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/points", &points); code != http.StatusOK {
		t.Fatalf("/points -> %d", code)
	}
	if points.Count != 864 || len(points.Points) != 864 {
		t.Fatalf("/points count = %d, want 864", points.Count)
	}
	if points.Points[5].Index != 5 || points.Points[5].Label == "" || points.Points[5].Cores == 0 {
		t.Fatalf("point 5 malformed: %+v", points.Points[5])
	}
}

func TestSimulateEndpointCaches(t *testing.T) {
	ts, svc := testServer(t)

	body := `{"app":"lulesh","pointIndex":10}`
	var first, second struct {
		App    string `json:"app"`
		Label  string `json:"label"`
		Cached bool   `json:"cached"`
		M      struct {
			TimeNs float64 `json:"TimeNs"`
			IPC    float64 `json:"IPC"`
		} `json:"measurement"`
	}
	if code := postJSON(t, ts.URL+"/simulate", body, &first); code != http.StatusOK {
		t.Fatalf("/simulate -> %d", code)
	}
	if first.Cached || first.M.TimeNs <= 0 || first.App != "lulesh" {
		t.Fatalf("first simulate response malformed: %+v", first)
	}
	if first.M.IPC <= 0 {
		t.Fatalf("measurement carries no IPC: %+v", first.M)
	}
	if code := postJSON(t, ts.URL+"/simulate", body, &second); code != http.StatusOK {
		t.Fatalf("second /simulate -> %d", code)
	}
	if !second.Cached || second.M.TimeNs != first.M.TimeNs {
		t.Fatalf("second request not served from store: %+v", second)
	}
	if svc.Client().Stats().Simulated != 1 {
		t.Fatalf("two identical requests simulated %d times", svc.Client().Stats().Simulated)
	}

	// An explicit arch spec addresses the same content as its grid index.
	spec := fmt.Sprintf(`{"app":"lulesh","arch":%s}`, specJSON(t, ts, 10))
	var cached struct {
		Cached bool `json:"cached"`
	}
	if code := postJSON(t, ts.URL+"/simulate", spec, &cached); code != http.StatusOK {
		t.Fatalf("arch /simulate -> %d", code)
	}
	if !cached.Cached {
		t.Fatal("equivalent explicit arch spec missed the store")
	}
}

// specJSON fetches point i from /points and re-encodes its arch fields.
func specJSON(t *testing.T, ts *httptest.Server, i int) string {
	t.Helper()
	var points struct {
		Points []json.RawMessage `json:"points"`
	}
	getJSON(t, ts.URL+"/points", &points)
	var spec musa.Arch
	if err := json.Unmarshal(points.Points[i], &spec); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(spec)
	return string(b)
}

func TestSimulateEndpointClusterFields(t *testing.T) {
	ts, _ := testServer(t)

	var resp struct {
		M struct {
			TimeNs     float64 `json:"TimeNs"`
			EndToEndNs float64 `json:"EndToEndNs"`
			MPIFrac    float64 `json:"MPIFraction"`
			Cluster    []struct {
				Ranks      int     `json:"Ranks"`
				EndToEndNs float64 `json:"EndToEndNs"`
			} `json:"Cluster"`
		} `json:"measurement"`
	}
	// Default replay configuration (the test service replays 8 and 16
	// ranks).
	if code := postJSON(t, ts.URL+"/simulate", `{"app":"hydro","pointIndex":3}`, &resp); code != http.StatusOK {
		t.Fatalf("/simulate -> %d", code)
	}
	if len(resp.M.Cluster) != 2 || resp.M.Cluster[0].Ranks != 8 || resp.M.Cluster[1].Ranks != 16 {
		t.Fatalf("cluster entries = %+v, want ranks 8 and 16", resp.M.Cluster)
	}
	if resp.M.EndToEndNs < resp.M.TimeNs {
		t.Fatalf("EndToEndNs %v < TimeNs %v", resp.M.EndToEndNs, resp.M.TimeNs)
	}

	// Per-request override: node-only measurement.
	var nodeOnly struct {
		Cached bool `json:"cached"`
		M      struct {
			EndToEndNs float64 `json:"EndToEndNs"`
			Cluster    []any   `json:"Cluster"`
		} `json:"measurement"`
	}
	if code := postJSON(t, ts.URL+"/simulate", `{"app":"hydro","pointIndex":3,"noReplay":true}`, &nodeOnly); code != http.StatusOK {
		t.Fatalf("noReplay /simulate -> %d", code)
	}
	if nodeOnly.Cached {
		t.Fatal("node-only request must hash to a different key than the replay-enabled one")
	}
	if nodeOnly.M.EndToEndNs != 0 || nodeOnly.M.Cluster != nil {
		t.Fatalf("node-only measurement carries cluster data: %+v", nodeOnly.M)
	}

	// Per-request override: different rank counts and network.
	var custom struct {
		Cached bool `json:"cached"`
		M      struct {
			Cluster []struct {
				Ranks int `json:"Ranks"`
			} `json:"Cluster"`
		} `json:"measurement"`
	}
	if code := postJSON(t, ts.URL+"/simulate",
		`{"app":"hydro","pointIndex":3,"replayRanks":[4],"network":"eth10"}`, &custom); code != http.StatusOK {
		t.Fatalf("custom replay /simulate -> %d", code)
	}
	if custom.Cached || len(custom.M.Cluster) != 1 || custom.M.Cluster[0].Ranks != 4 {
		t.Fatalf("custom replay response: %+v", custom)
	}

	// Unknown network name is a 400.
	if code := postJSON(t, ts.URL+"/simulate",
		`{"app":"hydro","pointIndex":3,"network":"warpdrive"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad network -> %d, want 400", code)
	}

	// Degenerate rank lists must be rejected before they reach a sweep
	// worker (a negative count would panic trace synthesis, a huge one
	// would OOM it).
	for _, body := range []string{
		`{"app":"hydro","pointIndex":3,"replayRanks":[-1]}`,
		`{"app":"hydro","pointIndex":3,"replayRanks":[0]}`,
		`{"app":"hydro","pointIndex":3,"replayRanks":[1000000000]}`,
		`{"app":"hydro","pointIndex":3,"replayRanks":[2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]}`,
	} {
		if code := postJSON(t, ts.URL+"/simulate", body, nil); code != http.StatusBadRequest {
			t.Errorf("POST /simulate %s -> %d, want 400", body, code)
		}
		dseBody := strings.Replace(body, `"pointIndex":3`, `"pointIndices":[3]`, 1)
		if code := postJSON(t, ts.URL+"/dse", dseBody, nil); code != http.StatusBadRequest {
			t.Errorf("POST /dse %s -> %d, want 400", dseBody, code)
		}
	}
}

func TestRankTimelineEndpoint(t *testing.T) {
	ts, _ := testServer(t)

	var fig struct {
		N      int    `json:"figure"`
		Title  string `json:"title"`
		Text   string `json:"text"`
		Tables []struct {
			Rows [][]string `json:"rows"`
		} `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/figures/4?app=spmz&ranks=8&network=hdr200", &fig); code != http.StatusOK {
		t.Fatalf("/figures/4 -> %d", code)
	}
	if fig.N != 4 || !strings.Contains(fig.Title, "spmz") {
		t.Fatalf("figure malformed: N=%d title=%q", fig.N, fig.Title)
	}
	if len(fig.Tables) != 1 || len(fig.Tables[0].Rows) != 8 {
		t.Fatalf("want one 8-rank breakdown table, got %+v", fig.Tables)
	}
	if !strings.Contains(fig.Text, "|") {
		t.Fatalf("no rendered timeline in text: %q", fig.Text)
	}

	for _, q := range []string{"?ranks=1", "?ranks=x", "?network=warpdrive", "?app=nope"} {
		if code := getJSON(t, ts.URL+"/figures/4"+q, nil); code != http.StatusBadRequest {
			t.Errorf("/figures/4%s -> %d, want 400", q, code)
		}
	}
}

func TestSimulateEndpointRejectsBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	for _, body := range []string{
		`{"app":"lulesh"}`,                               // no point
		`{"app":"lulesh","pointIndex":4000}`,             // out of range
		`{"app":"nope","pointIndex":0}`,                  // unknown app
		`{"app":"lulesh","pointIndex":1,"arch":{}}`,      // both forms
		`{"app":"lulesh","arch":{"coreType":"mystery"}}`, // bad core
		`{"app":"lulesh","pointIndex":0,"kind":"sweep"}`, // wrong kind for /simulate
		`not json`, // parse error
	} {
		if code := postJSON(t, ts.URL+"/simulate", body, nil); code != http.StatusBadRequest {
			t.Errorf("POST /simulate %s -> %d, want 400", body, code)
		}
	}
}

// TestReplayMemberRefused pins the retired nested spelling as an explicit
// 400 on every POST route: dropping {"replay":{"disable":true}} silently
// would run the replay the caller turned off. The check reads members, so an
// application named "replay" is refused for what it is.
func TestReplayMemberRefused(t *testing.T) {
	ts, _ := testServer(t)
	kinds := map[string]musa.Kind{
		"/simulate": musa.KindNode, "/dse": musa.KindSweep,
		"/optimize": musa.KindOptimize, "/shard": musa.KindSweep,
	}
	for path, kind := range kinds {
		for _, body := range []string{
			`{"replay":{"disable":true}}`,
			`{"replay":null}`,
			`{"app":"lulesh","pointIndices":[0],"noReplay":true,"replay":{"disable":true}}`,
		} {
			var reply struct{ Error string }
			if code := postJSON(t, ts.URL+path, body, &reply); code != http.StatusBadRequest {
				t.Errorf("POST %s %s -> %d, want 400", path, body, code)
			}
			if !strings.Contains(reply.Error, `"replay" member`) {
				t.Errorf("POST %s %s: error %q does not name the member", path, body, reply.Error)
			}
			if _, err := decodeRequest([]byte(body), path, kind); !errors.Is(err, musa.ErrExperiment) {
				t.Errorf("%s %s: error %v does not wrap ErrExperiment", path, body, err)
			}
		}
	}

	const named = `{"app":"replay","pointIndex":0}`
	if _, err := decodeRequest([]byte(named), "/simulate", musa.KindNode); err != nil {
		t.Fatalf("an application named replay refused at decode: %v", err)
	}
	var reply struct{ Error string }
	if code := postJSON(t, ts.URL+"/simulate", named, &reply); code != http.StatusBadRequest ||
		!strings.Contains(reply.Error, "unknown application") {
		t.Errorf("POST /simulate %s -> %d %q, want 400 unknown application", named, code, reply.Error)
	}
}

// failingWriter simulates a client that hangs up: writes start failing
// after failAfter successes.
type failingWriter struct {
	header    http.Header
	writes    int
	failAfter int
}

func (w *failingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}
func (w *failingWriter) WriteHeader(int) {}
func (w *failingWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, fmt.Errorf("client hung up")
	}
	return len(b), nil
}

func TestDSEStreamStopsOnDeadClient(t *testing.T) {
	svc := testService(t, t.TempDir())

	w := &failingWriter{failAfter: 1}
	req := httptest.NewRequest(http.MethodPost, "/dse",
		strings.NewReader(`{"apps":["spmz"],"pointIndices":[0,1,2,3],"progressEvery":1,"summary":true}`))
	svc.handleDSE(w, req)

	// The sweep emits >= 4 progress events plus the result. After the
	// first write fails, emit must stop touching the writer instead of
	// pumping every remaining event into the dead pipe.
	if w.writes != w.failAfter+1 {
		t.Fatalf("writer saw %d writes, want %d (stop after the first failure)",
			w.writes, w.failAfter+1)
	}
}

func TestDSEEndpointStreamsAndResumes(t *testing.T) {
	ts, svc := testServer(t)

	body := `{"apps":["spmz"],"pointIndices":[0,1,2,3],"progressEvery":1}`
	resp, err := http.Post(ts.URL+"/dse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var progress, results int
	var final struct {
		Type         string            `json:"type"`
		Count        int               `json:"count"`
		Cached       int               `json:"cached"`
		Measurements []json.RawMessage `json:"measurements"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			progress++
		case "result":
			results++
			json.Unmarshal(sc.Bytes(), &final)
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if progress < 4 || results != 1 {
		t.Fatalf("stream had %d progress and %d result events", progress, results)
	}
	if final.Count != 4 || len(final.Measurements) != 4 || final.Cached != 0 {
		t.Fatalf("final event malformed: count=%d cached=%d measurements=%d",
			final.Count, final.Cached, len(final.Measurements))
	}

	// Repeating the batch serves every point from the store.
	resp2, err := http.Post(ts.URL+"/dse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := func() ([]byte, error) {
		defer resp2.Body.Close()
		var buf bytes.Buffer
		_, err := buf.ReadFrom(resp2.Body)
		return buf.Bytes(), err
	}()
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "result" || final.Cached != 4 {
		t.Fatalf("repeated batch not fully cached: %+v", final)
	}
	if svc.Client().Stats().Simulated != 4 {
		t.Fatalf("repeated batch re-simulated: %d total simulations", svc.Client().Stats().Simulated)
	}
}

func TestFigureEndpoint(t *testing.T) {
	ts, _ := testServer(t)

	// Figure 11 runs its own Table II simulations — no sweep needed.
	var fig struct {
		Figure int `json:"figure"`
		Tables []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if code := getJSON(t, ts.URL+"/figures/11?sample=20000&warmup=40000", &fig); code != http.StatusOK {
		t.Fatalf("/figures/11 -> %d", code)
	}
	if fig.Figure != 11 || len(fig.Tables) != 1 || len(fig.Tables[0].Rows) == 0 {
		t.Fatalf("/figures/11 malformed: %+v", fig)
	}

	if code := getJSON(t, ts.URL+"/figures/2", nil); code != http.StatusNotFound {
		t.Fatalf("/figures/2 -> %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/figures/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("/figures/abc -> %d, want 400", code)
	}
	// Malformed fidelity parameters must not silently fall back to the
	// defaults, and figure 11 cannot honor an apps filter.
	for _, q := range []string{"sample=1e6", "warmup=100k", "seed=-3", "seed=abc"} {
		if code := getJSON(t, ts.URL+"/figures/5?"+q, nil); code != http.StatusBadRequest {
			t.Errorf("/figures/5?%s -> %d, want 400", q, code)
		}
	}
	if code := getJSON(t, ts.URL+"/figures/11?apps=hydro", nil); code != http.StatusBadRequest {
		t.Fatalf("/figures/11?apps=hydro -> %d, want 400", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	var stats struct {
		Service musa.ClientStats `json:"service"`
		Stored  int              `json:"stored"`
		Replay  struct {
			Disabled bool   `json:"disabled"`
			Ranks    []int  `json:"ranks"`
			Network  string `json:"network"`
		} `json:"replay"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats -> %d", code)
	}
	if stats.Replay.Disabled || len(stats.Replay.Ranks) != 2 || stats.Replay.Network != "mn4" {
		t.Fatalf("replay defaults malformed: %+v", stats.Replay)
	}
	postJSON(t, ts.URL+"/simulate", `{"app":"hydro","pointIndex":0}`, nil)
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Service.Requests != 1 || stats.Service.Simulated != 1 || stats.Stored != 1 {
		t.Fatalf("stats after one simulate: %+v stored=%d", stats.Service, stats.Stored)
	}
}

func TestCapacityEndpoint(t *testing.T) {
	ts, svc := testServer(t)
	var cap struct {
		MaxJobs  int `json:"maxJobs"`
		InFlight int `json:"inFlight"`
		Stored   int `json:"stored"`
	}
	if code := getJSON(t, ts.URL+"/capacity", &cap); code != http.StatusOK {
		t.Fatalf("/capacity -> %d", code)
	}
	if jobs := svc.Client().Snapshot().Jobs; cap.MaxJobs != jobs.Max || cap.MaxJobs != 4 {
		t.Fatalf("/capacity maxJobs = %d, want %d", cap.MaxJobs, jobs.Max)
	}
	if cap.InFlight != 0 {
		t.Fatalf("/capacity inFlight = %d on an idle server", cap.InFlight)
	}
}

func TestShardEndpoint(t *testing.T) {
	ts, svc := testServer(t)

	var out struct {
		Count        int                `json:"count"`
		Cached       int                `json:"cached"`
		Measurements []musa.Measurement `json:"measurements"`
	}
	req := `{"apps":["btmz"],"pointIndices":[0,1,2],"seed":1}`
	if code := postJSON(t, ts.URL+"/shard", req, &out); code != http.StatusOK {
		t.Fatalf("/shard -> %d", code)
	}
	if out.Count != 3 || len(out.Measurements) != 3 {
		t.Fatalf("/shard returned %d/%d measurements, want 3", out.Count, len(out.Measurements))
	}
	for _, m := range out.Measurements {
		if m.App != "btmz" || m.TimeNs <= 0 {
			t.Fatalf("malformed shard measurement: %+v", m)
		}
	}
	if n := svc.Client().Snapshot().Store.Len; n != 3 {
		t.Fatalf("shard did not checkpoint into the worker store: %d entries", n)
	}

	// The same shard again is a pure store read.
	if code := postJSON(t, ts.URL+"/shard", req, &out); code != http.StatusOK {
		t.Fatalf("/shard (repeat) -> %d", code)
	}
	if out.Cached != 3 {
		t.Fatalf("repeated shard cached = %d, want 3", out.Cached)
	}

	// Kind is forced to sweep; anything else is the caller's error.
	if code := postJSON(t, ts.URL+"/shard", `{"kind":"node","app":"btmz","pointIndex":0}`, nil); code != http.StatusBadRequest {
		t.Fatalf("/shard with kind=node -> %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/shard", `{"apps":["nope"]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("/shard with unknown app -> %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/shard", `not json`, nil); code != http.StatusBadRequest {
		t.Fatalf("/shard with bad body -> %d, want 400", code)
	}
}

// TestArtifactEndpoints drives the artifact exchange over HTTP: bad keys
// are 400, absent artifacts 404, a pushed blob (as a fleet coordinator
// sends it) round-trips byte-identically, and /stats reports the traffic.
func TestArtifactEndpoints(t *testing.T) {
	ts, svc := testServer(t)
	key := strings.Repeat("ab", 32)

	for _, path := range []string{"/artifact/nothex", "/artifact/" + key[:10]} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", path, code)
		}
	}
	if code := getJSON(t, ts.URL+"/artifact/"+key, nil); code != http.StatusNotFound {
		t.Fatalf("GET absent artifact = %d, want 404", code)
	}

	put := func(k string, body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/artifact/"+k, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(key, []byte("not an artifact")); code != http.StatusBadRequest {
		t.Fatalf("PUT garbage = %d, want 400", code)
	}

	// A real blob: run a one-group sweep on a second client with a shared
	// artifact dir, then push what it produced.
	artDir := t.TempDir()
	builder, err := musa.NewClient(musa.ClientOptions{ArtifactCache: artDir, SweepWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer builder.Close()
	if _, err := builder.Run(t.Context(), musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"btmz"}, PointIndices: []int{0},
		Sample: 5000, Warmup: 10000, Seed: 1, NoReplay: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Find one stored artifact key by scanning the directory.
	ents, err := os.ReadDir(artDir)
	if err != nil {
		t.Fatal(err)
	}
	var blobKey string
	var blob []byte
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			blobKey = k
			blob, err = os.ReadFile(filepath.Join(artDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if blobKey == "" {
		t.Fatal("builder persisted no artifacts")
	}
	if code := put(blobKey, blob); code != http.StatusNoContent {
		t.Fatalf("PUT artifact = %d, want 204", code)
	}
	resp, err := http.Get(ts.URL + "/artifact/" + blobKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET pushed artifact: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("artifact did not round-trip byte-identically over HTTP")
	}

	var stats struct {
		Artifacts struct {
			Enabled bool `json:"enabled"`
			Cache   struct {
				Entries int `json:"entries"`
			} `json:"cache"`
		} `json:"artifacts"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if !stats.Artifacts.Enabled || stats.Artifacts.Cache.Entries == 0 {
		t.Fatalf("/stats does not report the pushed artifact: %+v", stats.Artifacts)
	}
	_ = svc
}
