package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	stdnet "net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"musa"
	"musa/internal/obs"
	"musa/internal/serve"
)

// replica is one in-process musa-serve: the real handler behind a real
// http.Server on a loopback socket.
type replica struct {
	c    *musa.Client
	reg  *obs.Registry
	url  string
	srv  *http.Server
	done chan error // Serve's return value
}

// listen binds a loopback port; the ring needs every URL before any client
// is built.
func listen() (stdnet.Listener, string, error) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startReplica serves h (nil: a fresh handler on c with the benchmark's
// admission bounds and a registry of its own) on a new loopback listener.
func startReplica(c *musa.Client, h http.Handler) (*replica, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	return serveOn(ln, url, c, h), nil
}

func serveOn(ln stdnet.Listener, url string, c *musa.Client, h http.Handler) *replica {
	r := &replica{c: c, url: url, done: make(chan error, 1)}
	if h == nil {
		r.reg = obs.NewRegistry()
		h = serve.NewHandler(serve.New(c), serve.WithAdmission(admitLimit, admitQueue),
			serve.WithRegistry(r.reg))
	}
	r.srv = &http.Server{Handler: h}
	go func() { r.done <- r.srv.Serve(ln) }()
	return r
}

// stopServer shuts the server down and waits for Serve to return; the
// client stays open.
func (r *replica) stopServer() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stop shuts the server down and closes its client.
func (r *replica) stop() error {
	err := r.stopServer()
	if cerr := r.c.Close(); err == nil {
		err = cerr
	}
	return err
}

// conn is one closed-loop caller: it sends its next request only after the
// previous reply has been read. Its transport keeps one connection per
// replica alive.
type conn struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr}
}

// post sends body and returns the status and the reply, which is valid until
// the next post.
func (c *conn) post(url string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// roundtrip is one op of a serve workload: a POST under a root span `op` with
// the child `http.roundtrip`. It returns the latency in ms, the reply, and
// what is wrong with the transport or the status ("" if nothing).
func (c *conn) roundtrip(e *env, rec *recorder, url string, body []byte) (ms float64, reply []byte, fault string) {
	op := 0
	if rec != nil {
		op = e.nextOp()
	}
	root := rec.start(0, op, "op")
	call := rec.start(root, op, "http.roundtrip")
	t0 := time.Now()
	status, reply, err := c.post(url, body)
	d := time.Since(t0)
	rec.end(call)
	rec.end(root)
	switch {
	case err != nil:
		fault = err.Error()
	case status != http.StatusOK:
		fault = fmt.Sprintf("status %d", status)
	}
	return float64(d.Nanoseconds()) / 1e6, reply, fault
}

// measurementMarker precedes the measurement in a POST /simulate reply.
var measurementMarker = []byte(`"measurement":`)

// replyTail returns the reply from the measurement on, as the handler wrote
// it. Replies are compared by this tail first: one memcmp per request.
func replyTail(body []byte) []byte {
	i := bytes.Index(body, measurementMarker)
	if i < 0 {
		return nil
	}
	return body[i:]
}

// replyMeasurement decodes the reply and returns its measurement in compact
// JSON, the form json.Marshal gives: the comparison that does not depend on
// how the handler lays the reply out.
func replyMeasurement(body []byte) ([]byte, error) {
	var reply struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Compact(&out, reply.Measurement); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// expectation is what every reply for one key must carry.
type expectation struct {
	tail    []byte // the reply from the measurement on, as first seen (or precomputed)
	compact []byte // the measurement in compact JSON
}

// matches reports whether body carries the expected measurement bytes.
func (x *expectation) matches(body []byte) bool {
	if x.tail != nil && bytes.HasSuffix(body, x.tail) {
		return true
	}
	got, err := replyMeasurement(body)
	return err == nil && bytes.Equal(got, x.compact)
}

// simRequest is one POST /simulate of a generated sequence.
type simRequest struct {
	key  int32
	cold bool // the request that introduces a never-seen key
}

// keySpace is every (application, grid point) a serve workload may ask for.
type keySpace struct {
	apps   []string
	points []int
	bodies [][]byte // request body per key
}

func newKeySpace(points []int) *keySpace {
	ks := &keySpace{apps: appNames(), points: points}
	for _, a := range ks.apps {
		for _, p := range points {
			ks.bodies = append(ks.bodies, simulateBody(appPoint{a, p}))
		}
	}
	return ks
}

func (ks *keySpace) len() int { return len(ks.bodies) }

func (ks *keySpace) at(k int) appPoint {
	return appPoint{ks.apps[k/len(ks.points)], ks.points[k%len(ks.points)]}
}

// hashSequence writes a request sequence's keys to the run's fingerprint.
func hashSequence(h io.Writer, seq []simRequest) {
	var b [4]byte
	for _, r := range seq {
		binary.LittleEndian.PutUint32(b[:], uint32(r.key))
		h.Write(b[:])
	}
}

// gridPoints are all Table I indices.
func gridPoints() []int {
	idx := make([]int, musa.PointCount())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// runServeHit is the serve-hit workload: one replica whose store already
// holds every key, so the simulator does nothing and decode, normalize and
// key, admission, single-flight, store read and encode do all the work. It is
// the workload every simulator change must leave unchanged — except its
// set-up, which is the paper's 4320-point sweep in the amortised regime.
func runServeHit(e *env) (*result, error) {
	sc := e.cfg.sc
	res := &result{m: metrics{}}
	points := gridPoints()
	if !sc.primeAll {
		var err error
		if points, err = sliceIndices(); err != nil {
			return nil, fmt.Errorf("setup: slice indices: %w", err)
		}
	}
	ks := newKeySpace(points)

	// Set-up: prime the store with the whole key space, close the client,
	// reopen it on the same directory (so reads meet the reopened front and
	// LSM segments, not a never-flushed memtable), start the replica, warm up.
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return nil, fmt.Errorf("setup: store dir: %w", err)
	}
	primer, err := musa.NewClient(clientOptions(sc.fid, dir))
	if err != nil {
		return nil, fmt.Errorf("setup: open priming client: %w", err)
	}
	out, err := primer.Run(context.Background(), musa.Experiment{Kind: musa.KindSweep, PointIndices: points})
	if cerr := primer.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("setup: priming sweep: %w", err)
	}
	res.attempted++
	digest := newDigestChecker(sc, goldenPrime)
	if !sc.primeAll {
		digest = newDigestChecker(sc, goldenSweep)
	}
	if err := digest.check(out.Sweep.Measurements); err != nil {
		res.fail("priming sweep: %v", err)
	}
	items, err := itemsOf(out.Sweep.Measurements, points)
	if err != nil {
		return nil, fmt.Errorf("setup: priming sweep: %w", err)
	}
	byKey := make(map[appPoint]int, len(items)) // key -> dataset position
	for i, it := range items {
		byKey[it.appPoint] = i
	}
	expect := make([]expectation, ks.len())
	for k := range expect {
		i, ok := byKey[ks.at(k)]
		if !ok {
			return nil, fmt.Errorf("setup: priming sweep lacks key %d", k)
		}
		compact, err := json.Marshal(items[i].m)
		if err != nil {
			return nil, fmt.Errorf("setup: encode measurement: %w", err)
		}
		// The handler writes the reply with a two-space indent and the
		// measurement as its last member.
		indented, err := json.MarshalIndent(items[i].m, "  ", "  ")
		if err != nil {
			return nil, fmt.Errorf("setup: encode measurement: %w", err)
		}
		tail := append(append([]byte(`"measurement": `), indented...), "\n}\n"...)
		expect[k] = expectation{tail: tail, compact: compact}
	}

	c, err := musa.NewClient(clientOptions(sc.fid, dir))
	if err != nil {
		return nil, fmt.Errorf("setup: reopen client: %w", err)
	}
	rep, err := startReplica(c, nil)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("setup: start replica: %w", err)
	}
	conns := make([]*conn, connections)
	for i := range conns {
		conns[i] = newConn()
	}
	defer func() {
		for _, cn := range conns {
			cn.close()
		}
		rep.stop()
	}()

	url := rep.url + "/simulate"
	// block sends seq over both connections, connection k taking every
	// request i with i mod 2 == k, and returns each connection's latencies.
	block := func(seq []simRequest, rec *recorder) [][]float64 {
		lats := make([][]float64, len(conns))
		fails := make([][]string, len(conns))
		var wg sync.WaitGroup
		for k, cn := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lat := make([]float64, 0, len(seq)/len(conns)+1)
				for i := k; i < len(seq); i += len(conns) {
					key := int(seq[i].key)
					ms, reply, fault := cn.roundtrip(e, rec, url, ks.bodies[key])
					lat = append(lat, ms)
					if fault == "" && !expect[key].matches(reply) {
						fault = fmt.Sprintf("measurement bytes of key %d differ from the primed dataset", key)
					}
					if fault != "" {
						fails[k] = append(fails[k], fmt.Sprintf("request %d: %s", i, fault))
					}
				}
				lats[k] = lat
			}()
		}
		wg.Wait()
		res.attempted += len(seq)
		for _, fs := range fails {
			for _, f := range fs {
				res.fail("%s", f)
			}
		}
		return lats
	}
	uniform := func(rng *rand.Rand, n int) []simRequest {
		seq := make([]simRequest, n)
		for i := range seq {
			seq[i].key = int32(rng.IntN(ks.len()))
		}
		return seq
	}
	// A hit is tens of microseconds of CPU handed between four goroutines. On
	// two vCPUs the hand-offs cross CPUs, and their cost follows the host:
	// medians of identical runs differed by 29 %. On one P they differ by 6 %,
	// so warm-up and timed phases run there; the priming sweep above and the
	// ladder below keep both.
	procs := runtime.GOMAXPROCS(1)
	warmup := uniform(e.rng, sc.hitWarmup)
	hashSequence(e.foldInto(false), warmup)
	block(warmup, nil)
	res.m["setup_s"] = time.Since(t0).Seconds()
	if res.failed > 0 {
		runtime.GOMAXPROCS(procs)
		return nil, fmt.Errorf("setup: warm-up failed: %v", res.failures)
	}

	timed := func(d time.Duration, rec *recorder) *phase {
		p := &phase{probe: e.probe, corrected: true, latMs: make([]float64, 0, 1<<20)}
		p.begin()
		for len(p.blocks) < sc.minBlocks || p.elapsed() < d {
			seq := uniform(e.rng, sc.hitBlock)
			hashSequence(e.foldInto(true), seq)
			p.beginBlock()
			lats := block(seq, rec)
			p.endBlock(len(seq), lats...)
		}
		p.end()
		return p
	}
	clients := []*musa.Client{c}
	regs := []*obs.Registry{rep.reg}
	untraced, traced := e.phaseLengths()
	before := readCounters(clients, regs)
	base := timed(untraced, nil)
	if err := base.endToEnd(res); err != nil {
		runtime.GOMAXPROCS(procs)
		return nil, err
	}
	last := base
	if e.cfg.traced {
		before = readCounters(clients, regs)
		last = timed(traced, e.rec)
	}
	after := readCounters(clients, regs)
	// The simulator must have done nothing.
	if n := after.stats.Simulated - before.stats.Simulated; n != 0 {
		res.fail("count check: %d measurements simulated while serving hits, want 0", n)
	}
	runtime.GOMAXPROCS(procs)
	if e.cfg.traced {
		last.layers(res.m, res.failed)
		counterLayers(res.m, before, after, len(last.blocks))
		res.m["trace.overhead_share"] = median(last.latMs)/median(base.latMs) - 1
		lad, err := runLadder(e, ladderInput{
			fid: sc.fid, items: items, simApps: ks.apps[:1], simPoints: points[:1],
		})
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		lad.fill(res.m)
		serveAttribution(res, lad, items)
	}
	return res, nil
}

// serveAttribution fills the metrics a serve workload derives from the
// ladder: for a request the op is one store hit through the handler, and what
// decode, normalize and key, the store read and the encode do not cover is
// unattributed (routing, admission, single-flight, the middleware).
func serveAttribution(res *result, lad *ladder, items []item) {
	named := lad.perCallMs("json.Unmarshal") + lad.perCallMs("Experiment.Normalize+Key") +
		lad.perCallMs("store.Get.front") + lad.perCallMs("json.Marshal")
	res.m["dse.unattributed_share"] = 1 - share(named, lad.perCallMs("serve.Handler.hit"))
	res.m["model.ipc_mean"] = ipcMean(items)
	res.whereTime = lad.table
}

func ipcMean(items []item) float64 {
	var sum float64
	for _, it := range items {
		sum += it.m.IPC
	}
	return share(sum, float64(len(items)))
}
