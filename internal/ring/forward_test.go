package ring

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"musa/internal/obs"
)

// fakePeers is n ring members that answer every request "<index> <body>"
// and record what reached them. dead members refuse connections: their
// listener is closed, the transport failure a crashed replica produces.
type fakePeers struct {
	urls []string
	mu   sync.Mutex
	seen []*http.Request // in arrival order, bodies consumed
	from []int
}

func newFakePeers(t *testing.T, n int, dead ...int) *fakePeers {
	t.Helper()
	p := &fakePeers{}
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			p.mu.Lock()
			p.seen, p.from = append(p.seen, r), append(p.from, i)
			p.mu.Unlock()
			fmt.Fprintf(w, "%d %s", i, body)
		}))
		p.urls = append(p.urls, srv.URL)
		if slices.Contains(dead, i) {
			srv.Close()
		} else {
			t.Cleanup(srv.Close)
		}
	}
	return p
}

func (p *fakePeers) index(url string) int { return slices.Index(p.urls, url) }

// hits returns which members were reached, in order, and forgets them.
func (p *fakePeers) hits() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.from
	p.seen, p.from = nil, nil
	return out
}

// TestForwarderWalk drives the candidate walk against fake members: which
// member is asked, in what order, who gets marked, and when the walk stops.
func TestForwarderWalk(t *testing.T) {
	const key = "some-key"
	accept := func(string, *http.Response) bool { return true }
	post := Request{Method: http.MethodPost, Path: "/x", Body: []byte("b")}

	// order maps the ring's preference for key onto member indices.
	order := func(p *fakePeers, r *Ring) []int {
		var out []int
		for _, u := range r.Order(key) {
			out = append(out, p.index(u))
		}
		return out
	}

	t.Run("first in order answers", func(t *testing.T) {
		p := newFakePeers(t, 3)
		r := New("", p.urls)
		want := order(p, r)[:1]
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		if err := f.Forward(context.Background(), key, 0, post, accept); err != nil {
			t.Fatal(err)
		}
		if got := p.hits(); !slices.Equal(got, want) {
			t.Fatalf("reached %v, want only the owner %v", got, want)
		}
	})

	t.Run("refusing handler advances in order, unmarked", func(t *testing.T) {
		p := newFakePeers(t, 3)
		r := New("", p.urls)
		want := order(p, r)
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		err := f.Forward(context.Background(), key, 0, post, func(string, *http.Response) bool { return false })
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
		if got := p.hits(); !slices.Equal(got, want) {
			t.Fatalf("reached %v, want the full order %v", got, want)
		}
		for _, u := range p.urls {
			if r.StateOf(u) != Ok {
				t.Fatalf("%s marked %v for an answer the caller refused", u, r.StateOf(u))
			}
		}
	})

	t.Run("limit bounds the attempts", func(t *testing.T) {
		p := newFakePeers(t, 3)
		r := New("", p.urls)
		want := order(p, r)[:2]
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		f.Forward(context.Background(), key, 2, post, func(string, *http.Response) bool { return false })
		if got := p.hits(); !slices.Equal(got, want) {
			t.Fatalf("reached %v, want %v", got, want)
		}
	})

	t.Run("self and Down are skipped", func(t *testing.T) {
		p := newFakePeers(t, 3)
		all := order(p, New("", p.urls))
		r := New(p.urls[all[0]], p.urls) // the owner is this process
		r.SetState(p.urls[all[1]], Down)
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		if err := f.Forward(context.Background(), key, 0, post, accept); err != nil {
			t.Fatal(err)
		}
		if got := p.hits(); !slices.Equal(got, all[2:]) {
			t.Fatalf("reached %v, want only %v", got, all[2:])
		}
	})

	t.Run("all Down are tried anyway", func(t *testing.T) {
		p := newFakePeers(t, 2)
		r := New("", p.urls)
		want := order(p, r)[:1]
		for _, u := range p.urls {
			r.SetState(u, Down)
		}
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		if err := f.Forward(context.Background(), key, 0, post, accept); err != nil {
			t.Fatalf("a ring marked all Down was not tried: %v", err)
		}
		if got := p.hits(); !slices.Equal(got, want) {
			t.Fatalf("reached %v, want %v", got, want)
		}
	})

	t.Run("transport failure marks Down, advances, and lapses by the clock", func(t *testing.T) {
		p := newFakePeersDeadAt(t, 3, key)
		r := New("", p.urls)
		now := time.Unix(1000, 0)
		r.SetClock(func() time.Time { return now })
		ord := order(p, r)
		dead := p.urls[ord[0]]
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}

		goroutines := runtime.NumGoroutine()
		if err := f.Forward(context.Background(), key, 0, post, accept); err != nil {
			t.Fatal(err)
		}
		if got := p.hits(); !slices.Equal(got, ord[1:2]) {
			t.Fatalf("reached %v, want the first fallback %v", got, ord[1:2])
		}
		if r.StateOf(dead) != Down || r.Order(key)[0] == dead {
			t.Fatalf("dead member reads %v and still leads the order", r.StateOf(dead))
		}
		// Nothing is left behind to clear the mark: no timer, no goroutine.
		http.DefaultClient.CloseIdleConnections()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines after a failed forward, %d before", n, goroutines)
		}

		now = now.Add(DownCooldown - time.Nanosecond)
		if r.StateOf(dead) != Down {
			t.Fatal("mark lapsed before the cooldown")
		}
		now = now.Add(time.Nanosecond)
		if r.StateOf(dead) != Ok || r.Order(key)[0] != dead || r.Members()[slices.Index(sorted(p.urls), dead)].State != "ok" {
			t.Fatalf("mark did not lapse at the cooldown: %v, order %v", r.StateOf(dead), r.Order(key))
		}
		// A prober's verdict is not a transport mark: it holds until replaced.
		r.SetState(dead, Down)
		now = now.Add(10 * DownCooldown)
		if r.StateOf(dead) != Down {
			t.Fatal("SetState(Down) lapsed like a MarkDown")
		}
	})

	t.Run("caller cancellation marks nobody and stops the walk", func(t *testing.T) {
		arrived := make(chan struct{})
		stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			close(arrived)
			<-r.Context().Done()
		}))
		defer stall.Close()
		other := newFakePeers(t, 1)
		r := New("", []string{stall.URL, other.urls[0]})
		k := keyOwnedBy(r, stall.URL)
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-arrived; cancel() }()
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		err := f.Forward(ctx, k, 0, post, accept)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if r.StateOf(stall.URL) != Ok {
			t.Fatal("a healthy member was marked Down because the caller hung up")
		}
		if got := other.hits(); len(got) != 0 {
			t.Fatal("the walk went on with a dead context")
		}
	})

	t.Run("an attempt timeout is the member's failure", func(t *testing.T) {
		stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}))
		defer stall.Close()
		r := New("", []string{stall.URL})
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		req := Request{Method: http.MethodGet, Path: "/x", Timeout: 20 * time.Millisecond}
		if err := f.Forward(context.Background(), "k", 0, req, accept); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
		if r.StateOf(stall.URL) != Down {
			t.Fatal("a member that ran into the attempt timeout was not marked")
		}
	})
}

func sorted(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// keyOwnedBy finds a key the ring ranks member first for.
func keyOwnedBy(r *Ring, member string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("key-%d", i); r.Owner(k) == member {
			return k
		}
	}
}

// newFakePeersDeadAt builds n members of which the one the ring prefers for
// key is dead. Listener addresses decide the order, so it retries until the
// dead member it picked up front is the preferred one.
func newFakePeersDeadAt(t *testing.T, n int, key string) *fakePeers {
	t.Helper()
	for {
		p := newFakePeers(t, n, 0)
		if New("", p.urls).Owner(key) == p.urls[0] {
			return p
		}
	}
}

// TestForwarderHeaders checks what every forwarded request carries: the hop
// marker, the caller's Content-Type and Accept, and a trace header — the
// context's span when there is one, else the inbound header.
func TestForwarderHeaders(t *testing.T) {
	p := newFakePeers(t, 1)
	f := &Forwarder{Ring: New("", p.urls), HTTP: http.DefaultClient}
	in := http.Header{}
	in.Set("Content-Type", "application/json")
	in.Set("Accept", "application/x-ndjson")
	in.Set(obs.TraceHeader, "aa:bb")
	in.Set("Cookie", "not forwarded")
	req := Request{Method: http.MethodPost, Path: "/simulate?x=1", Header: in, Body: []byte("{}")}

	last := func() *http.Request {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.seen[len(p.seen)-1]
	}
	if err := f.Send(context.Background(), p.urls[0], req, func(*http.Response) {}); err != nil {
		t.Fatal(err)
	}
	got := last()
	if got.Header.Get(HopHeader) == "" || got.Header.Get("Content-Type") != "application/json" ||
		got.Header.Get("Accept") != "application/x-ndjson" || got.Header.Get("Cookie") != "" {
		t.Fatalf("forwarded headers = %v", got.Header)
	}
	if got.URL.RequestURI() != "/simulate?x=1" {
		t.Fatalf("forwarded to %s", got.URL.RequestURI())
	}
	if tr := got.Header.Get(obs.TraceHeader); tr != "aa:bb" {
		t.Fatalf("inbound trace header not passed through: %q", tr)
	}

	ctx, span := obs.StartSpan(obs.WithRecorder(context.Background(), obs.NewRecorder(8)), "hop")
	defer span.End()
	if err := f.Send(ctx, p.urls[0], req, func(*http.Response) {}); err != nil {
		t.Fatal(err)
	}
	if tr := last().Header.Get(obs.TraceHeader); tr != span.HeaderValue() || tr == "aa:bb" {
		t.Fatalf("trace header = %q, want the leaving span %q", tr, span.HeaderValue())
	}
}

// TestRelay checks the reply side: status and the three headers a caller
// acts on are copied, and a body of unknown length is flushed as it comes —
// the first NDJSON event is readable while the member still holds the
// stream open.
func TestRelay(t *testing.T) {
	release := make(chan struct{})
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "7")
			w.Header().Set("Location", "http://elsewhere/simulate")
			w.Header().Set("X-Private", "stays")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"busy"}`)
		case "/stream":
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, "{\"type\":\"progress\"}\n")
			w.(http.Flusher).Flush()
			<-release
			io.WriteString(w, "{\"type\":\"result\"}\n")
		}
	}))
	defer member.Close()
	f := &Forwarder{Ring: New("", []string{member.URL}), HTTP: http.DefaultClient}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.Forward(r.Context(), "k", 0, Request{Method: r.Method, Path: r.URL.Path},
			func(_ string, resp *http.Response) bool { Relay(w, resp); return true })
	}))
	defer front.Close()

	resp, err := http.Get(front.URL + "/shed")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || string(body) != `{"error":"busy"}` ||
		resp.Header.Get("Content-Type") != "application/json" || resp.Header.Get("Retry-After") != "7" ||
		resp.Header.Get("Location") != "http://elsewhere/simulate" || resp.Header.Get("X-Private") != "" {
		t.Fatalf("relayed %d %q %v", resp.StatusCode, body, resp.Header)
	}
	for v, want := range map[string]time.Duration{
		resp.Header.Get("Retry-After"): 7 * time.Second,
		" 7 ":                          7 * time.Second,
		"soon":                         time.Second,
		"":                             time.Second,
		"-1":                           time.Second,
		"9223372037":                   maxRetryAfter, // seconds that wrap time.Duration negative
		"99999999999999999999":         maxRetryAfter, // does not fit an int at all
	} {
		if got := ParseRetryAfter(v); got != want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}

	resp, err = http.Get(front.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	first := make(chan string, 1)
	go func() { l, _ := lines.ReadString('\n'); first <- l }()
	select {
	case l := <-first:
		if !strings.Contains(l, "progress") {
			t.Fatalf("first event = %q", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first event was held back until the stream ended")
	}
	close(release)
	if l, _ := lines.ReadString('\n'); !strings.Contains(l, "result") {
		t.Fatalf("last event = %q", l)
	}
}

// TestPick checks placement: the first candidate the caller accepts, none
// on an empty ring.
func TestPick(t *testing.T) {
	r := New("", urls(4))
	k := keys(1)[0]
	ord := r.Order(k)
	if got := r.Pick(k, func(string) bool { return true }); got != ord[0] {
		t.Fatalf("Pick = %s, want the owner %s", got, ord[0])
	}
	if got := r.Pick(k, func(m string) bool { return m != ord[0] }); got != ord[1] {
		t.Fatalf("Pick = %s, want the first accepted %s", got, ord[1])
	}
	r.MarkDown(ord[0])
	if got := r.Pick(k, func(string) bool { return true }); got != ord[1] {
		t.Fatalf("Pick = %s with the owner Down, want %s", got, ord[1])
	}
	if got := New("", nil).Pick(k, func(string) bool { return true }); got != "" {
		t.Fatalf("Pick on an empty ring = %q", got)
	}
}

// FuzzParseRetryAfter: whatever a peer writes into Retry-After, the wait is
// never negative (time.After would fire at once and the coordinator would
// re-post to the worker that asked it to back off) and never past the
// ceiling. The seeds run under plain `go test`.
func FuzzParseRetryAfter(f *testing.F) {
	for _, v := range []string{"7", " 7 ", "", "soon", "-1", "+3", "9223372036", "9223372037", "18446744073709551616", "-9223372036854775809", "1e9", "0x10"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got := ParseRetryAfter(v); got < 0 || got > maxRetryAfter {
			t.Fatalf("ParseRetryAfter(%q) = %v, outside [0, %v]", v, got, maxRetryAfter)
		}
	})
}
