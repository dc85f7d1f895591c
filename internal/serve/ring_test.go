package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"musa"
	"musa/internal/obs"
	"musa/internal/ring"
)

// scrape returns the Prometheus exposition of reg as one string.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestAdmissionSheds drives the overload path end to end: with one
// execution slot held and a zero-length wait queue, a heavy request is
// shed with 429 + Retry-After: 1, /healthz flips to overloaded (503), the
// shed counter increments, and releasing the slot restores ok.
func TestAdmissionSheds(t *testing.T) {
	reg := obs.NewRegistry()
	svc := testService(t, t.TempDir())
	ts := httptest.NewServer(NewHandler(svc, WithAdmission(1, 0), WithRegistry(reg)))
	defer ts.Close()

	var hz struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("idle healthz = %d %q, want 200 ok", code, hz.Status)
	}

	// Occupy the only execution slot. White box: the semaphore is the
	// handler's admission state, so filling it is exactly what a stuck
	// in-flight request does, without needing one.
	svc.adm.sem <- struct{}{}

	resp, err := http.Post(ts.URL+"/simulate", "application/json",
		strings.NewReader(`{"app":"btmz","pointIndex":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /simulate = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable || hz.Status != "overloaded" {
		t.Fatalf("saturated healthz = %d %q, want 503 overloaded", code, hz.Status)
	}
	if m := scrape(t, reg); !strings.Contains(m, `musa_serve_shed_total{reason="queue-full",route="simulate"} 1`) {
		t.Fatalf("shed counter missing from metrics:\n%s", m)
	}

	<-svc.adm.sem // release the slot: the replica recovers
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("recovered healthz = %d %q, want 200 ok", code, hz.Status)
	}
}

// TestAdmissionQueueWaits checks the bounded queue admits a waiter once a
// slot frees instead of shedding it.
func TestAdmissionQueueWaits(t *testing.T) {
	svc := testService(t, t.TempDir())
	ts := httptest.NewServer(NewHandler(svc, WithAdmission(1, 4)))
	defer ts.Close()

	svc.adm.sem <- struct{}{}
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/simulate", "application/json",
			strings.NewReader(`{"app":"btmz","pointIndex":0}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Give the request time to enter the wait queue, then free the slot.
	deadline := time.Now().Add(2 * time.Second)
	for svc.adm.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.adm.waiting.Load() == 0 {
		t.Fatal("request never queued")
	}
	<-svc.adm.sem
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", code)
	}
}

// TestDrainingKeepsStreams is the draining contract: an in-flight NDJSON
// /dse stream started before draining runs to completion, while new heavy
// requests are refused with 503 and /healthz reports draining.
func TestDrainingKeepsStreams(t *testing.T) {
	svc := testService(t, t.TempDir())
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	body := fmt.Sprintf(`{"apps":["btmz"],"pointIndices":[0,1,2],"sample":%d,"warmup":%d,"seed":1,"noReplay":true,"progressEvery":1}`,
		testSample, testWarmup)
	resp, err := http.Post(ts.URL+"/dse", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dse = %d, want 200", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var events []string
	drained := false
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev.Type)
		if !drained {
			// Flip to draining mid-stream, after the first event arrives.
			svc.StartDraining()
			drained = true

			var hz struct {
				Status string `json:"status"`
			}
			if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusServiceUnavailable || hz.Status != "draining" {
				t.Fatalf("draining healthz = %d %q, want 503 draining", code, hz.Status)
			}
			shed, err := http.Post(ts.URL+"/simulate", "application/json",
				strings.NewReader(`{"app":"btmz","pointIndex":0}`))
			if err != nil {
				t.Fatal(err)
			}
			shed.Body.Close()
			if shed.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("new request during draining = %d, want 503", shed.StatusCode)
			}
			if shed.Header.Get("Retry-After") == "" {
				t.Fatal("draining refusal carries no Retry-After")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broken during draining: %v", err)
	}
	if len(events) == 0 || events[len(events)-1] != "result" {
		t.Fatalf("stream did not complete with a result event: %v", events)
	}
}

// TestMembershipEndpoints covers the runtime membership API: without a
// ring PUT is refused, with one the membership is replaced, validated and
// echoed.
func TestMembershipEndpoints(t *testing.T) {
	ringless, _ := testServer(t)
	req, _ := http.NewRequest(http.MethodPut, ringless.URL+"/membership",
		strings.NewReader(`{"members":["http://a:1"]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ringless PUT /membership = %d, want 503", resp.StatusCode)
	}

	c, err := musa.NewClient(musa.ClientOptions{
		Ring: musa.NewRing("http://a:1", []string{"http://a:1", "http://b:2"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ts := httptest.NewServer(NewHandler(New(c)))
	defer ts.Close()

	var got struct {
		Self    string        `json:"self"`
		Members []ring.Member `json:"members"`
	}
	if code := getJSON(t, ts.URL+"/membership", &got); code != http.StatusOK || len(got.Members) != 2 {
		t.Fatalf("GET /membership = %d with %d members, want 200 with 2", code, len(got.Members))
	}

	for body, want := range map[string]int{
		`{"members":["http://a:1","http://b:2","http://c:3"]}`: http.StatusOK,
		`{"members":[]}`:               http.StatusBadRequest,
		`{"members":["ftp://nope"]}`:   http.StatusBadRequest,
		`{"members":["not a url at"]}`: http.StatusBadRequest,
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/membership", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("PUT /membership %s = %d, want %d", body, resp.StatusCode, want)
		}
	}
	if code := getJSON(t, ts.URL+"/membership", &got); code != http.StatusOK || len(got.Members) != 3 {
		t.Fatalf("membership after PUT = %d with %d members, want 200 with 3", code, len(got.Members))
	}
	if got.Self != "http://a:1" {
		t.Fatalf("self = %q changed by membership update", got.Self)
	}
}
