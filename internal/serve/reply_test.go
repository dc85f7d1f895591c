package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"musa"
	"musa/internal/dse"
	"musa/internal/jsonenc"
	"musa/internal/obs"
	"musa/internal/ring"
)

// referenceReply is the POST /simulate reply as the route rendered it before
// writeSimulateReply: a map through an indenting encoder. It is the pin the
// appended envelope and the front's kept measurement bytes are held to.
func referenceReply(t *testing.T, m musa.Measurement, cached bool, elapsedMs float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"app":         m.App,
		"label":       m.Arch.Label(),
		"cached":      cached,
		"elapsedMs":   elapsedMs,
		"measurement": m,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// simulateRaw POSTs body and returns the raw reply with its cached and
// elapsedMs members, which only the handler knows.
func simulateRaw(t *testing.T, url, body string) (raw []byte, cached bool, elapsedMs float64) {
	t.Helper()
	resp, err := http.Post(url+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /simulate %s -> %d %v: %s", body, resp.StatusCode, err, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var env struct {
		Cached    bool    `json:"cached"`
		ElapsedMs float64 `json:"elapsedMs"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("reply does not decode: %v\n%s", err, raw)
	}
	return raw, env.Cached, env.ElapsedMs
}

// checkReply asks for body and compares the whole reply, byte for byte, with
// the reference encoding of the measurement the client itself reports.
func checkReply(t *testing.T, c *musa.Client, url, body string, wantCached bool) {
	t.Helper()
	raw, cached, elapsedMs := simulateRaw(t, url, body)
	if cached != wantCached {
		t.Errorf("%s: cached = %v, want %v", body, cached, wantCached)
	}
	var e musa.Experiment
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceReply(t, *res.Measurement, cached, elapsedMs); !bytes.Equal(raw, want) {
		t.Errorf("%s: reply differs from the reference encoding\ngot:\n%s\nwant:\n%s", body, raw, want)
	}
}

// TestSimulateReplyMatchesReference pins the one reply writer of POST
// /simulate to the reference encoder over every way a result reaches it.
func TestSimulateReplyMatchesReference(t *testing.T) {
	dir := t.TempDir()
	opts := musa.ClientOptions{
		CacheDir: dir, MaxJobs: 2, SampleInstrs: testSample, WarmupInstrs: testWarmup,
		Seed: 1, ReplayRanks: []int{8, 16},
	}
	open := func(o musa.ClientOptions) (*musa.Client, string) {
		t.Helper()
		c, err := musa.NewClient(o)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(New(c)))
		t.Cleanup(func() { ts.Close(); c.Close() })
		return c, ts.URL
	}
	bodies := []string{
		`{"app":"hydro","pointIndex":3}`,
		`{"app":"lulesh","pointIndex":500,"noReplay":true}`,
		`{"app":"spmz","arch":{"cores":64,"coreType":"high","freqGHz":2.5,"vectorBits":512,"cacheLabel":"96M:1M","channels":16,"hbm":true}}`,
	}

	c, url := open(opts)
	// A registered custom application whose name needs every kind of string
	// escaping the envelope can meet.
	custom, err := musa.App("btmz")
	if err != nil {
		t.Fatal(err)
	}
	custom.Name = "a<b&\"c \u2028"
	if err := c.RegisterApplication(*custom); err != nil {
		t.Fatal(err)
	}
	nameJSON, _ := json.Marshal(custom.Name)
	customBody := `{"app":` + string(nameJSON) + `,"pointIndex":7,"noReplay":true}`
	for _, body := range append(bodies, customBody) {
		checkReply(t, c, url, body, false) // miss: simulated, encoded on the spot
		checkReply(t, c, url, body, true)  // front hit: builds the reply form
		checkReply(t, c, url, body, true)  // front hit: copies it
	}
	if front := c.Snapshot().Store.Front; front.ReplyBuilds != int64(len(bodies)+1) || front.ReplyBytes == 0 {
		t.Errorf("front after %d keys asked three times each: %+v, want one build per key", len(bodies)+1, front)
	}

	// A coalesced follower: a full-fidelity request holds the single-flight
	// entry long enough for an identical one to join it.
	slow := `{"app":"spec3d","pointIndex":11,"sample":400000,"warmup":800000}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(url+"/simulate", "application/json", strings.NewReader(slow))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); c.Snapshot().Jobs.InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the leader never took a job slot")
		}
		time.Sleep(time.Millisecond)
	}
	checkReply(t, c, url, slow, true)
	wg.Wait()
	if n := c.Stats().Coalesced; n != 1 {
		t.Errorf("coalesced = %d, want the follower to have joined the leader's flight", n)
	}
	c.Close()

	// Engine-path hits: the store reopened with a one-entry front, two keys
	// alternating, so every request decodes from the LSM and builds afresh.
	one := opts
	one.LRUEntries = 1
	c, url = open(one)
	for i := 0; i < 3; i++ {
		checkReply(t, c, url, bodies[0], true)
		checkReply(t, c, url, bodies[1], true)
	}
	if engine := c.Snapshot().Store.Engine; engine.Gets < 6 {
		t.Errorf("engine served %d gets, want every alternating request to reach it", engine.Gets)
	}
	c.Close()

	// Store-less and artifact-less clients reply through the same writer:
	// nothing is ever cached, every reply is encoded on the spot.
	c, url = open(musa.ClientOptions{
		NoArtifacts: true, SampleInstrs: testSample, WarmupInstrs: testWarmup, Seed: 1, NoReplay: true,
	})
	checkReply(t, c, url, bodies[0], false)
	checkReply(t, c, url, bodies[0], false)
}

// TestSimulateReplyElapsedForms drives the writer directly over the number
// shapes encoding/json renders differently: an integer, a fraction, an
// exponent below -6 and one at 21.
func TestSimulateReplyElapsedForms(t *testing.T) {
	c := testClient(t, t.TempDir())
	idx := 20
	e := musa.Experiment{App: "btmz", PointIndex: &idx}
	fresh, err := c.Run(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Run(context.Background(), e)
	if err != nil || !hit.Cached {
		t.Fatalf("second run: cached %v, err %v", hit != nil && hit.Cached, err)
	}
	for _, res := range []*musa.Result{fresh, hit} {
		measurement, err := res.MeasurementJSON()
		if err != nil {
			t.Fatal(err)
		}
		m := res.Measurement
		for _, ms := range []float64{0, 0.001, 12.345, 1e21, 3e-7, 1234} {
			w := httptest.NewRecorder()
			writeSimulateReply(w, m.App, res.Cached, ms, m.Arch.AppendLabel(nil), measurement)
			if want := referenceReply(t, *res.Measurement, res.Cached, ms); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("cached %v, elapsedMs %v: status %d, reply\n%s\nwant\n%s", res.Cached, ms, w.Code, w.Body.Bytes(), want)
			}
		}
	}
}

// TestArchLabelsNeedNoEscaping holds writeSimulateReply's premise: every
// label a measurement can carry (each Table I point, with either memory) is
// its own JSON string body, so the envelope copies it between the quotes.
func TestArchLabelsNeedNoEscaping(t *testing.T) {
	for _, p := range dse.Enumerate() {
		for _, mem := range []dse.MemKind{dse.DDR4, dse.HBM} {
			p.Mem = mem
			label := p.Label()
			if got := string(jsonenc.AppendString(nil, label)); got != `"`+label+`"` {
				t.Fatalf("label %s encodes as %s", label, got)
			}
		}
	}
}

// TestConcurrentHitsKeepTheirOwnRequest sends store hits for eight points
// from eight goroutines at once through the whole handler, a malformed body
// after each: every reply names its own request's point, so no pooled body,
// decoded request or response writer is shared by two requests in flight.
func TestConcurrentHitsKeepTheirOwnRequest(t *testing.T) {
	c := testClient(t, t.TempDir())
	points := indices(8)
	if _, err := c.Run(context.Background(), musa.Experiment{
		Kind: musa.KindSweep, Apps: []string{"lulesh"}, PointIndices: points,
	}); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(New(c), WithRegistry(obs.NewRegistry()), WithRecorder(obs.NewRecorder(0)))
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				p := points[(g+i)%len(points)]
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/simulate",
					strings.NewReader(fmt.Sprintf(`{"app":"lulesh","pointIndex":%d}`, p))))
				var reply struct {
					Cached bool
					Label  string
				}
				want, _ := musa.PointLabel(p)
				if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || w.Code != http.StatusOK ||
					!reply.Cached || reply.Label != want {
					t.Errorf("point %d: status %d, reply %+v (%v), want a hit labeled %s", p, w.Code, reply, err, want)
					return
				}
				bad := httptest.NewRecorder()
				h.ServeHTTP(bad, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(`{"app":`)))
				if bad.Code != http.StatusBadRequest {
					t.Errorf("malformed body: status %d, want 400", bad.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDoorReplyMatchesRunPath holds a store hit answered at the door —
// Client.Route, Client.StoredReply and the envelope from the route — to the
// reply the Client.Run path writes for the same stored measurement, over
// TestSimulateReplyMatchesReference's bodies: grid points with and without a
// replay, the non-grid HBM architecture and the custom application whose
// name needs escaping. The replica opens the store another client filled
// with a one-entry front, so each door hit indents the engine's bytes and
// the Run after it decodes the entry the door left. Each hit is counted as
// Run counts one, and a recompute of a stored key is simulated again.
func TestDoorReplyMatchesRunPath(t *testing.T) {
	custom, err := musa.App("btmz")
	if err != nil {
		t.Fatal(err)
	}
	custom.Name = "a<b&\"c \u2028"
	nameJSON, _ := json.Marshal(custom.Name)
	bodies := []string{
		`{"app":"hydro","pointIndex":3}`,
		`{"app":"lulesh","pointIndex":500,"noReplay":true}`,
		`{"app":"spmz","arch":{"cores":64,"coreType":"high","freqGHz":2.5,"vectorBits":512,"cacheLabel":"96M:1M","channels":16,"hbm":true}}`,
		`{"app":` + string(nameJSON) + `,"pointIndex":7,"noReplay":true}`,
	}
	experiment := func(body string) musa.Experiment {
		t.Helper()
		var e musa.Experiment
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	opts := musa.ClientOptions{
		CacheDir: t.TempDir(), MaxJobs: 2, SampleInstrs: testSample, WarmupInstrs: testWarmup,
		Seed: 1, ReplayRanks: []int{8, 16},
	}
	open := func(o musa.ClientOptions) *musa.Client {
		t.Helper()
		c, err := musa.NewClient(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.RegisterApplication(*custom); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx := context.Background()
	filler := open(opts)
	for _, body := range bodies {
		if _, err := filler.Run(ctx, experiment(body)); err != nil {
			t.Fatal(err)
		}
	}
	filler.Close()

	opts.LRUEntries = 1
	c := open(opts)
	ts := httptest.NewServer(NewHandler(New(c)))
	defer ts.Close()
	for round := 0; round < 2; round++ {
		for _, body := range bodies {
			before := c.Stats()
			raw, cached, elapsedMs := simulateRaw(t, ts.URL, body)
			after := c.Stats()
			if !cached || after.Requests != before.Requests+1 || after.StoreHits != before.StoreHits+1 ||
				after.Simulated != before.Simulated {
				t.Fatalf("%s: cached %v, requests +%d, store hits +%d, simulated +%d; want a hit counted as Run counts one",
					body, cached, after.Requests-before.Requests, after.StoreHits-before.StoreHits, after.Simulated-before.Simulated)
			}
			res, err := c.Run(ctx, experiment(body))
			if err != nil || !res.Cached {
				t.Fatalf("%s: Run after the door hit: cached %v, err %v", body, res != nil && res.Cached, err)
			}
			measurement, err := res.MeasurementJSON()
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			writeSimulateReply(w, res.Measurement.App, res.Cached, elapsedMs, res.Measurement.Arch.AppendLabel(nil), measurement)
			if !bytes.Equal(raw, w.Body.Bytes()) {
				t.Errorf("%s: the door's reply differs from the Run path's\ndoor:\n%s\nRun:\n%s", body, raw, w.Body.Bytes())
			}
		}
	}
	if gets := c.Snapshot().Store.Engine.Gets; gets < int64(2*len(bodies)) {
		t.Errorf("engine served %d gets, want every door hit to reach it", gets)
	}

	simulated := c.Stats().Simulated
	recompute := strings.Replace(bodies[0], "{", `{"recompute":true,`, 1)
	if _, cached, _ := simulateRaw(t, ts.URL, recompute); cached || c.Stats().Simulated != simulated+1 {
		t.Errorf("recompute of a stored key: cached %v, simulated +%d; want it simulated again",
			cached, c.Stats().Simulated-simulated)
	}
}

// TestDoorAtRingReplica: at a ring replica a hit is answered at the door and
// counted result="hit", one a peer already routed here is answered there too
// and counted "local", and a recompute of a stored key the replica owns is
// simulated here again.
func TestDoorAtRingReplica(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer := "http://" + ln.Addr().String()
	ln.Close() // never asked: every key below is owned here
	ts, svc, reg, _ := ringReplica(t, peer)
	c := svc.Client()
	body := ""
	for i := 0; i < musa.PointCount() && body == ""; i++ {
		key, err := c.RouteKey(musa.Experiment{App: "btmz", PointIndex: &i})
		if err != nil {
			t.Fatal(err)
		}
		if c.Ring().Owner(key) == ring.Normalize(ts.URL) {
			body = fmt.Sprintf(`{"app":"btmz","pointIndex":%d}`, i)
		}
	}
	if body == "" {
		t.Fatal("the replica owns no btmz point")
	}
	check := func(step string, req *http.Request, wantCached bool, local, hit float64, simulated int64) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Cached bool `json:"cached"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Cached != wantCached {
			t.Fatalf("%s: %d cached %v (%v), want 200 cached %v", step, resp.StatusCode, out.Cached, err, wantCached)
		}
		l, h, s := ownerResults(t, reg, "local"), ownerResults(t, reg, "hit"), c.Stats().Simulated
		if l != local || h != hit || s != simulated || ownerResults(t, reg, "proxied") != 0 {
			t.Fatalf("%s: local %v hit %v simulated %d, want %v, %v and %d, nothing proxied", step, l, h, s, local, hit, simulated)
		}
	}
	post := func(body string, hop bool) *http.Request {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/simulate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hop {
			req.Header.Set(ring.HopHeader, "1")
		}
		return req
	}
	check("first request", post(body, false), false, 1, 0, 1)
	check("hit", post(body, false), true, 1, 1, 1)
	check("hit routed here by a peer", post(body, true), true, 2, 1, 1)
	recompute := strings.Replace(body, "{", `{"recompute":true,`, 1)
	check("recompute", post(recompute, false), false, 3, 1, 2)
}
