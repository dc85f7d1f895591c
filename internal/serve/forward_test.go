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
// returns it with three /simulate bodies, for different points, whose keys
// peer owns.
func ringReplica(t *testing.T, peer string) (ts *httptest.Server, svc *Service, reg *obs.Registry, bodies []string) {
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
			if bodies = append(bodies, fmt.Sprintf(`{"app":"btmz","pointIndex":%d}`, i)); len(bodies) == 3 {
				return ts, svc, reg, bodies
			}
		}
	}
	t.Fatal("the peer owns fewer than three btmz points")
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
	ts, svc, reg, bodies := ringReplica(t, owner.URL)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/simulate", strings.NewReader(bodies[0]))
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
	if st := memberState(svc.Client().Ring(), owner.URL); st != ring.Ok.String() {
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
// request is served locally (result="fallback") and the owner demoted; the
// key computed in fallback is then a store hit here (result="hit"); while
// the mark holds nobody dials the owner, so a key it would own is this
// replica's (result="local"); once the cooldown has passed — and the owner
// is back — a key this replica never computed is relayed to it again.
func TestOwnerUnreachableFallsBackAndRecovers(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the owner is down: connections are refused
	ts, svc, reg, bodies := ringReplica(t, "http://"+addr)
	rg := svc.Client().Ring()
	var skew atomic.Int64
	rg.SetClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })

	var reply struct {
		Cached bool `json:"cached"`
	}
	if code := postJSON(t, ts.URL+"/simulate", bodies[0], &reply); code != http.StatusOK {
		t.Fatalf("/simulate with a dead owner -> %d", code)
	}
	if n := ownerResults(t, reg, "fallback"); n != 1 {
		t.Fatalf("fallback = %v, want 1", n)
	}
	if st := memberState(rg, "http://"+addr); st != ring.Down.String() {
		t.Fatalf("dead owner reads %v", st)
	}
	// What fallback computed is stored here, and a hit is served where it
	// lands.
	if code := postJSON(t, ts.URL+"/simulate", bodies[0], &reply); code != http.StatusOK || !reply.Cached {
		t.Fatalf("repeat of the fallback key -> %d cached=%v", code, reply.Cached)
	}
	if f, h := ownerResults(t, reg, "fallback"), ownerResults(t, reg, "hit"); f != 1 || h != 1 {
		t.Fatalf("repeat of the fallback key: fallback %v hit %v, want 1 and 1", f, h)
	}
	// Demoted, the owner no longer owns: a miss it would own is this
	// replica's.
	if code := postJSON(t, ts.URL+"/simulate", bodies[1], &reply); code != http.StatusOK || reply.Cached {
		t.Fatalf("new key while demoted -> %d cached=%v", code, reply.Cached)
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
	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(bodies[2]))
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

// TestRelayedReplyKept holds a non-owner to what it keeps of a relayed
// reply. The owner's 200 is relayed byte for byte either way. It is kept
// when it carries the requested point's measurement, also when the owner
// chunks the body (as net/http does past 2 KiB), so the next request is a
// hit here. A reply carrying another point's measurement is not kept, and
// the next request is proxied again.
func TestRelayedReplyKept(t *testing.T) {
	for _, tc := range []struct {
		name          string
		answer        int // which of ringReplica's bodies the owner answers with
		chunked       bool
		proxied, hits float64
	}{
		{"chunked", 0, true, 1, 1},
		{"another point", 1, false, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			answerer, err := musa.NewClient(musa.ClientOptions{
				NoArtifacts: true, SampleInstrs: testSample, WarmupInstrs: testWarmup, Seed: 1, NoReplay: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer answerer.Close()
			answer := NewHandler(New(answerer))
			var mu sync.Mutex
			var asked string // the body the owner answers every request with
			var sent [][]byte
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				mu.Lock()
				body := asked
				mu.Unlock()
				rec := httptest.NewRecorder()
				answer.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body)))
				reply := rec.Body.Bytes()
				mu.Lock()
				sent = append(sent, reply)
				mu.Unlock()
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(rec.Code)
				if tc.chunked {
					// A flush before the body is complete sends it chunked.
					w.Write(reply[:len(reply)/2])
					w.(http.Flusher).Flush()
					reply = reply[len(reply)/2:]
				}
				w.Write(reply)
			}))
			defer owner.Close()
			ts, _, reg, bodies := ringReplica(t, owner.URL)
			mu.Lock()
			asked = bodies[tc.answer]
			mu.Unlock()

			measurement := func(reply []byte) string {
				var out struct {
					Measurement json.RawMessage `json:"measurement"`
				}
				if err := json.Unmarshal(reply, &out); err != nil {
					t.Fatal(err)
				}
				return string(out.Measurement)
			}
			for i := 1; i <= 2; i++ {
				resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(bodies[0]))
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d -> %d\n%s", i, resp.StatusCode, got)
				}
				mu.Lock()
				n, last := len(sent), sent[len(sent)-1]
				mu.Unlock()
				switch {
				case n == i && !bytes.Equal(got, last):
					t.Fatalf("request %d, proxied:\n%s\nwant the owner's reply byte for byte:\n%s", i, got, last)
				case n < i && measurement(got) != measurement(last):
					t.Fatalf("request %d, a hit:\n%s\nwant the measurement the owner sent:\n%s", i, got, last)
				}
			}
			if p, h := ownerResults(t, reg, "proxied"), ownerResults(t, reg, "hit"); p != tc.proxied || h != tc.hits {
				t.Fatalf("proxied %v hit %v, want %v and %v", p, h, tc.proxied, tc.hits)
			}
			if n := len(sent); float64(n) != tc.proxied {
				t.Fatalf("the owner was asked %d times, want %v", n, tc.proxied)
			}
		})
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

// memberState returns a member's state as the ring's membership lists it.
func memberState(r *ring.Ring, url string) string {
	for _, m := range r.Members() {
		if m.URL == ring.Normalize(url) {
			return m.State
		}
	}
	return "not a member"
}
