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
	"sync/atomic"
	"testing"
	"time"

	"musa"
	"musa/internal/obs"
	"musa/internal/ring"
)

// ringReplica starts one real replica whose ring is itself plus peer, and
// returns it with a /simulate body whose key peer owns.
func ringReplica(t *testing.T, peer string) (ts *httptest.Server, svc *Service, reg *obs.Registry, body string) {
	t.Helper()
	ts = httptest.NewUnstartedServer(nil)
	self := "http://" + ts.Listener.Addr().String()
	c, err := musa.NewClient(musa.ClientOptions{
		CacheDir: t.TempDir(), SweepWorkers: 2, MaxJobs: 2,
		SampleInstrs: testSample, WarmupInstrs: testWarmup, Seed: 1, NoReplay: true,
		Ring: musa.NewRing(self, []string{self, peer}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	reg = obs.NewRegistry()
	svc = New(c)
	ts.Config.Handler = NewHandler(svc, WithRegistry(reg))
	ts.Start()
	t.Cleanup(ts.Close)
	for i := 0; i < musa.PointCount(); i++ {
		key, err := c.RouteKey(musa.Experiment{App: "btmz", PointIndex: &i})
		if err != nil {
			t.Fatal(err)
		}
		if c.Ring().Owner(key) == ring.Normalize(peer) {
			return ts, svc, reg, fmt.Sprintf(`{"app":"btmz","pointIndex":%d}`, i)
		}
	}
	t.Fatal("the peer owns no btmz point")
	return
}

func ownerResults(t *testing.T, reg *obs.Registry, result string) float64 {
	t.Helper()
	return parseProm(t, scrape(t, reg))[`musa_ring_owner_requests_total{result="`+result+`"}`]
}

// TestCanceledCallerIsNotAPeerFailure is the hang-up case: the caller of a
// proxied /simulate goes away while the owner is still working. The owner
// did nothing wrong, so it keeps its place in the ring, and the replica
// does not start a local run nobody will read.
func TestCanceledCallerIsNotAPeerFailure(t *testing.T) {
	arrived, released := make(chan struct{}), make(chan struct{})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		close(arrived)
		<-r.Context().Done() // a slow simulation, until the proxy hangs up
		close(released)
	}))
	defer owner.Close()
	ts, svc, reg, body := ringReplica(t, owner.URL)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/simulate", strings.NewReader(body))
	go func() { <-arrived; cancel() }()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request survived its own cancellation: %d", resp.StatusCode)
	}
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("the hop to the owner outlived its caller")
	}
	// The replica's handler returns just after the hop ends.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if strings.Contains(scrape(t, reg), `musa_http_requests_total{code="`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the replica never finished the abandoned request")
		}
	}
	if st := svc.Client().Ring().StateOf(owner.URL); st != ring.Ok {
		t.Fatalf("owner reads %v because a caller hung up", st)
	}
	if n := ownerResults(t, reg, "fallback"); n != 0 {
		t.Fatalf("fallback = %v for a caller that is gone", n)
	}
	if n := svc.Client().Stats().Requests; n != 0 {
		t.Fatalf("the replica ran %d experiments for a caller that is gone", n)
	}
}

// TestOwnerUnreachableFallsBackAndRecovers walks the dead-owner path: the
// request is served locally (result="fallback") and the owner demoted; while
// the mark holds nobody dials it; once the cooldown has passed — and the
// owner is back — the next request is relayed to it again.
func TestOwnerUnreachableFallsBackAndRecovers(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the owner is down: connections are refused
	ts, svc, reg, body := ringReplica(t, "http://"+addr)
	rg := svc.Client().Ring()
	var skew atomic.Int64
	rg.SetClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })

	var reply struct {
		Cached bool `json:"cached"`
	}
	if code := postJSON(t, ts.URL+"/simulate", body, &reply); code != http.StatusOK {
		t.Fatalf("/simulate with a dead owner -> %d", code)
	}
	if n := ownerResults(t, reg, "fallback"); n != 1 {
		t.Fatalf("fallback = %v, want 1", n)
	}
	if st := rg.StateOf("http://" + addr); st != ring.Down {
		t.Fatalf("dead owner reads %v", st)
	}
	// Demoted, the owner no longer owns: the key is this replica's.
	if code := postJSON(t, ts.URL+"/simulate", body, &reply); code != http.StatusOK || !reply.Cached {
		t.Fatalf("repeat while demoted -> %d cached=%v", code, reply.Cached)
	}
	if f, l := ownerResults(t, reg, "fallback"), ownerResults(t, reg, "local"); f != 1 || l != 1 {
		t.Fatalf("while demoted: fallback %v local %v, want 1 and 1", f, l)
	}

	// The owner comes back on its address; the mark lapses by the clock alone.
	ln, err = stdnet.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	owner := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"from":"owner"}`)
	})}
	go owner.Serve(ln)
	defer owner.Close()
	skew.Store(int64(ring.DownCooldown))
	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(got) != `{"from":"owner"}` {
		t.Fatalf("after the cooldown -> %d %s, want the owner's reply relayed", resp.StatusCode, got)
	}
	if n := ownerResults(t, reg, "proxied"); n != 1 {
		t.Fatalf("proxied = %v, want 1", n)
	}
}

// TestOversizeBodiesAreRefused sends each experiment route a body one byte
// over the bound: 413, not a silent truncation and not an unbounded read.
func TestOversizeBodiesAreRefused(t *testing.T) {
	ts, _ := testServer(t)
	atLimit := `{"app":"` + strings.Repeat("x", maxExperimentBody-len(`{"app":""}`)) + `"}`
	for _, route := range []string{"/simulate", "/dse", "/optimize", "/shard"} {
		if code := postJSON(t, ts.URL+route, atLimit+" ", nil); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes -> %d, want 413", route, len(atLimit)+1, code)
		}
		// At the bound the body is read whole and judged on its content.
		if code := postJSON(t, ts.URL+route, atLimit, nil); code != http.StatusBadRequest {
			t.Errorf("POST %s with %d bytes -> %d, want 400", route, len(atLimit), code)
		}
	}
}

// TestRouterRoutesByKey checks the router's key derivation route by route:
// each request must land on the replica the ring ranks first for the key
// that route is documented to use, with its body intact and the hop marked.
func TestRouterRoutesByKey(t *testing.T) {
	type arrival struct {
		replica, method, uri, body, hop string
	}
	var mu sync.Mutex
	var got []arrival
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewUnstartedServer(nil)
		url := "http://" + srv.Listener.Addr().String()
		srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			got = append(got, arrival{url, r.Method, r.URL.RequestURI(), string(body), r.Header.Get(ring.HopHeader)})
			mu.Unlock()
			w.WriteHeader(http.StatusTeapot) // whatever a replica says is relayed
		})
		srv.Start()
		defer srv.Close()
		urls = append(urls, url)
	}
	rg := musa.NewRing("", urls)
	keyer, err := musa.NewClient(musa.ClientOptions{
		NoArtifacts: true, SampleInstrs: testSample, WarmupInstrs: testWarmup, Seed: 1, Ring: rg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer keyer.Close()
	router := httptest.NewServer(NewRouter(keyer))
	defer router.Close()

	keyOf := func(kind musa.Kind, body string) string {
		var e musa.Experiment
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		e.Kind = kind
		k, err := keyer.RouteKey(e)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	artifact := strings.Repeat("ab", 32)
	sweep := `{"apps":["btmz"],"pointIndices":[0,1,2]}`
	cases := []struct {
		method, uri, body, key string
	}{
		{"POST", "/simulate", `{"app":"btmz","pointIndex":3}`, keyOf(musa.KindNode, `{"app":"btmz","pointIndex":3}`)},
		{"POST", "/simulate", `{"app":"lulesh","pointIndex":99}`, keyOf(musa.KindNode, `{"app":"lulesh","pointIndex":99}`)},
		{"POST", "/dse", sweep, keyOf(musa.KindSweep, sweep)},
		{"POST", "/shard", sweep, keyOf(musa.KindSweep, sweep)},
		{"POST", "/simulate", `not json`, ""}, // no key: by health alone, the replica answers
		{"GET", "/artifact/" + artifact, "", artifact},
		{"PUT", "/artifact/" + artifact, strings.Repeat("blob", 1<<12), artifact},
		{"GET", "/stats?x=1", "", ""},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, router.URL+tc.uri, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTeapot {
			t.Fatalf("%s %s -> %d, want the replica's status relayed", tc.method, tc.uri, resp.StatusCode)
		}
		mu.Lock()
		a := got[len(got)-1]
		n := len(got)
		got = nil
		mu.Unlock()
		want := arrival{rg.Owner(tc.key), tc.method, tc.uri, tc.body, "1"}
		if n != 1 || a != want {
			t.Errorf("%s %s: %d arrivals, last at %s (%s %s, %d body bytes, hop %q); want one at %s",
				tc.method, tc.uri, n, a.replica, a.method, a.uri, len(a.body), a.hop, want.replica)
		}
	}
	if sk, dk := cases[0].key, cases[2].key; sk == dk || sk == "" {
		t.Fatalf("node and sweep keys not distinct: %q %q", sk, dk)
	}

	big := bytes.Repeat([]byte(" "), maxExperimentBody+1)
	resp, err := http.Post(router.URL+"/simulate", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || len(got) != 0 {
		t.Fatalf("oversize body -> %d with %d forwards, want 413 and none", resp.StatusCode, len(got))
	}
}
