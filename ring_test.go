package musa

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"musa/internal/dram"
	"musa/internal/store"
)

// fakePeer is a ring member that is only an artifact endpoint: GET serves
// whatever bytes the test planted, PUT records what arrives (or, with hold
// set, never answers until the test ends).
type fakePeer struct {
	*httptest.Server
	mu      sync.Mutex
	serve   map[string][]byte // key -> GET reply
	puts    map[string][][]byte
	arrived chan string // one key per PUT received; buffered above any test's PUT count
	hold    chan struct{}
}

func newFakePeer(t *testing.T, hold bool) *fakePeer {
	p := &fakePeer{serve: map[string][]byte{}, puts: map[string][][]byte{}, arrived: make(chan string, 16)}
	if hold {
		p.hold = make(chan struct{})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /artifact/{key}", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		blob, ok := p.serve[r.PathValue("key")]
		p.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(blob)
	})
	mux.HandleFunc("PUT /artifact/{key}", func(w http.ResponseWriter, r *http.Request) {
		blob, _ := io.ReadAll(r.Body)
		key := r.PathValue("key")
		p.mu.Lock()
		p.puts[key] = append(p.puts[key], blob)
		p.mu.Unlock()
		p.arrived <- key
		if p.hold != nil {
			select {
			case <-p.hold:
			case <-r.Context().Done():
			}
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	p.Server = httptest.NewServer(mux)
	t.Cleanup(func() {
		if p.hold != nil {
			close(p.hold)
		}
		p.Close()
	})
	return p
}

// ringTestClient returns a replica client whose ring is itself (an address
// nothing listens on — self is never dialed) and the peer, plus n distinct
// artifact keys the peer owns.
func ringTestClient(t *testing.T, peerURL string, n int) (*Client, []string) {
	t.Helper()
	self := "http://127.0.0.1:1"
	c, err := NewClient(ClientOptions{Ring: NewRing(self, []string{self, peerURL})})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if key := fmt.Sprintf("%064x", i); c.opts.Ring.Owner(key) == peerURL {
			keys = append(keys, key)
		}
	}
	return c, keys
}

var testLatencyModel = dram.LatencyModel{PeakBW: 1e9, Points: []float64{0.05, 1}, LatenciesNs: []float64{80.5, 120.25}, SatBW: 9e8}

// latencyBlob encodes testLatencyModel for key the way any cache would.
func latencyBlob(t *testing.T, key string) []byte {
	t.Helper()
	ac, err := store.OpenArtifacts("")
	if err != nil {
		t.Fatal(err)
	}
	ac.PutLatencyModel(key, testLatencyModel)
	blob, ok := ac.Blob(key)
	if !ok {
		t.Fatal("no encoded blob")
	}
	return blob
}

// TestRingBlobsFakePeer drives the ring decorator against a scripted peer:
// a typed read the local cache cannot answer is served through the peer
// (and counts as one hit, never a miss), a corrupt peer reply is dropped
// and counted as a peer miss, and a locally built artifact is replicated
// to its owner exactly once.
func TestRingBlobsFakePeer(t *testing.T) {
	peer := newFakePeer(t, false)
	c, keys := ringTestClient(t, peer.URL, 3)
	fetched, corrupt, built := keys[0], keys[1], keys[2]
	peer.serve[fetched] = latencyBlob(t, fetched)
	peer.serve[corrupt] = peer.serve[fetched] // a valid blob, but built for another key

	got, ok := c.art.LatencyModel(fetched)
	if !ok || !reflect.DeepEqual(got, testLatencyModel) {
		t.Fatalf("peer-held artifact not served: ok=%v %+v", ok, got)
	}
	if st := c.Stats(); st.PeerArtifactsFetched != 1 || st.PeerArtifactMisses != 0 {
		t.Fatalf("after a peer-served read: %+v", st)
	}
	if ks := c.art.Stats().LatencyModels; ks.Hits != 1 || ks.Misses != 0 {
		t.Fatalf("a peer-served read must count as one hit: %+v", ks)
	}
	if raw, ok := c.ArtifactBlob(fetched); !ok || !bytes.Equal(raw, peer.serve[fetched]) {
		t.Fatal("fetched blob not kept locally byte for byte")
	}

	if _, ok := c.art.LatencyModel(corrupt); ok {
		t.Fatal("mis-keyed peer reply served")
	}
	if st := c.Stats(); st.PeerArtifactsFetched != 1 || st.PeerArtifactMisses != 1 {
		t.Fatalf("after a corrupt peer reply: %+v", st)
	}
	if _, ok := c.ArtifactBlob(corrupt); ok {
		t.Fatal("corrupt peer reply stored locally")
	}

	c.art.PutLatencyModel(built, testLatencyModel)
	for deadline := time.Now().Add(10 * time.Second); c.Stats().PeerArtifactsReplicated != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("local build never replicated to its owner: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	want, _ := c.ArtifactBlob(built)
	if len(peer.puts) != 1 || len(peer.puts[built]) != 1 || !bytes.Equal(peer.puts[built][0], want) {
		t.Fatalf("peer received %d keys, %d copies of the build; want exactly one, byte-identical", len(peer.puts), len(peer.puts[built]))
	}
}

// TestCloseWaitsForReplication pins the lifetime of write-behind
// replication: against an owner that accepts the upload and never answers,
// Close cancels the in-flight PUTs and returns promptly — not after the
// one-minute transfer window — and leaves no goroutine behind.
func TestCloseWaitsForReplication(t *testing.T) {
	peer := newFakePeer(t, true)
	artifactHTTP.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	c, keys := ringTestClient(t, peer.URL, 3)
	for _, key := range keys {
		c.art.PutLatencyModel(key, testLatencyModel)
	}
	for range keys {
		select {
		case <-peer.arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("replication PUT never reached the peer")
		}
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v against a stalled peer", d)
	}
	if st := c.Stats(); st.PeerArtifactsReplicated != 0 {
		t.Fatalf("unanswered PUTs counted as replicated: %+v", st)
	}
	// The canceled requests' connection and handler goroutines wind down
	// just after Close returns; the replication goroutines themselves are
	// already gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestRelayedReplyRoundTrips pins the property a ring replica's kept reply
// rests on: the measurement decoded from a relayed reply re-encodes to the
// owner's bytes, so the replica that keeps it answers later requests with
// what the owner would have sent. It is encoding/json's float round trip,
// checked on every measurement of a real sweep rather than assumed.
func TestRelayedReplyRoundTrips(t *testing.T) {
	exp := reducedSweepExperimentT(t)
	exp.Sample, exp.Warmup = 20000, 40000
	c, err := NewClient(ClientOptions{NoArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Run(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Sweep.Measurements); n != len(exp.PointIndices) {
		t.Fatalf("%d measurements, want %d", n, len(exp.PointIndices))
	}
	for _, m := range res.Sweep.Measurements {
		want, err := store.ReplyForm(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Measurement
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReplyForm(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s at %s does not round-trip:\n%s\nre-encodes to\n%s", m.App, m.Arch.Label(), want, got)
		}
	}
}
