package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"musa"
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
		for _, ms := range []float64{0, 0.001, 12.345, 1e21, 3e-7, 1234} {
			w := httptest.NewRecorder()
			writeSimulateReply(w, res, ms)
			if want := referenceReply(t, *res.Measurement, res.Cached, ms); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("cached %v, elapsedMs %v: status %d, reply\n%s\nwant\n%s", res.Cached, ms, w.Code, w.Body.Bytes(), want)
			}
		}
	}
}
