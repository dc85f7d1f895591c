package ring

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
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

// TestForwarderWalk drives a key's way to a member against fake members:
// which member Owner and Pick place the key on, who gets marked Down by a
// failed Send, and when the mark lapses.
func TestForwarderWalk(t *testing.T) {
	const key = "some-key"
	post := Request{Method: http.MethodPost, Path: "/x", Body: []byte("b")}
	read := func(*http.Response) {}

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
		var got string
		if err := f.Send(context.Background(), r.Owner(key), post, func(resp *http.Response) {
			b, _ := io.ReadAll(resp.Body)
			got = string(b)
		}); err != nil {
			t.Fatal(err)
		}
		if hits := p.hits(); !slices.Equal(hits, want) || got != fmt.Sprintf("%d b", want[0]) {
			t.Fatalf("reached %v answering %q, want only the owner %v", hits, got, want)
		}
	})

	t.Run("self and Down are skipped", func(t *testing.T) {
		p := newFakePeers(t, 3)
		all := order(p, New("", p.urls))
		r := New(p.urls[all[0]], p.urls) // the owner is this process
		r.MarkDown(p.urls[all[1]])
		if got := r.Pick(key, func(string) bool { return true }); got != p.urls[all[2]] {
			t.Fatalf("Pick = %s, want the only Ok other member %s", got, p.urls[all[2]])
		}
	})

	t.Run("all Down are tried anyway", func(t *testing.T) {
		p := newFakePeers(t, 2)
		r := New("", p.urls)
		want := r.Order(key)[0]
		for _, u := range p.urls {
			r.MarkDown(u)
		}
		if got := r.Pick(key, func(string) bool { return true }); got != want {
			t.Fatalf("Pick on a ring marked all Down = %q, want %s", got, want)
		}
		if got := r.Owner(key); got != want {
			t.Fatalf("Owner on a ring marked all Down = %q, want %s", got, want)
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
		if err := f.Send(context.Background(), dead, post, read); err == nil {
			t.Fatal("Send to a member that refuses connections succeeded")
		}
		if r.StateOf(dead) != Down {
			t.Fatalf("dead member reads %v", r.StateOf(dead))
		}
		if got := r.Order(key); got[len(got)-1] != dead || r.Owner(key) != p.urls[ord[1]] {
			t.Fatalf("order %v, owner %s: want %s last and %s owning", got, r.Owner(key), dead, p.urls[ord[1]])
		}
		// Nothing is left behind to clear the mark: no timer, no goroutine.
		http.DefaultClient.CloseIdleConnections()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("%d goroutines after a failed send, %d before", n, goroutines)
		}

		now = now.Add(DownCooldown - time.Nanosecond)
		if r.StateOf(dead) != Down {
			t.Fatal("mark lapsed before the cooldown")
		}
		now = now.Add(time.Nanosecond)
		if r.StateOf(dead) != Ok || r.Owner(key) != dead || r.Members()[slices.Index(sorted(p.urls), dead)].State != "ok" {
			t.Fatalf("mark did not lapse at the cooldown: %v, order %v", r.StateOf(dead), r.Order(key))
		}
	})

	t.Run("caller cancellation marks nobody", func(t *testing.T) {
		arrived := make(chan struct{})
		stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			close(arrived)
			<-r.Context().Done()
		}))
		defer stall.Close()
		r := New("", []string{stall.URL})
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-arrived; cancel() }()
		f := &Forwarder{Ring: r, HTTP: http.DefaultClient}
		if err := f.Send(ctx, stall.URL, post, read); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if r.StateOf(stall.URL) != Ok {
			t.Fatal("a healthy member was marked Down because the caller hung up")
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
		if err := f.Send(context.Background(), stall.URL, req, read); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
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

// TestRelay checks the reply side: status, the three headers a caller acts
// on and the body are copied, and nothing else.
func TestRelay(t *testing.T) {
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Location", "http://elsewhere/simulate")
		w.Header().Set("X-Private", "stays")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"busy"}`)
	}))
	defer member.Close()
	f := &Forwarder{Ring: New("", []string{member.URL}), HTTP: http.DefaultClient}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.Send(r.Context(), member.URL, Request{Method: r.Method, Path: r.URL.Path},
			func(resp *http.Response) { Relay(w, resp) })
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
