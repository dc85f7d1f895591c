package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	stdnet "net"
	"net/http"
	"os"
	"sync"
	"time"

	"musa"
	"musa/internal/obs"
)

const ringReplicas = 3

// ringGen generates the serve-ring-mix request sequence block by block. Each
// block introduces newKeys never-seen keys at evenly spaced positions, taking
// the applications in turn (a cold request's cost depends on its application,
// so every block carries the same share of each); every other request draws
// uniformly from the keys introduced so far. The mix is the same in every
// block, so a run's per-block throughput has one level and its length decides
// only how many blocks there are.
type ringGen struct {
	rng        *rand.Rand
	fresh      [][]int32 // per application: its keys not yet introduced, in seeded order
	introduced []int32
	keys       int // size of the key space
	block, new int
}

func newRingGen(rng *rand.Rand, ks *keySpace, block, newKeys int) *ringGen {
	g := &ringGen{rng: rng, keys: ks.len(), block: block, new: newKeys, fresh: make([][]int32, len(ks.apps))}
	for a := range g.fresh {
		keys := make([]int32, len(ks.points))
		for i := range keys {
			keys[i] = int32(a*len(ks.points) + i)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		g.fresh[a] = keys
	}
	return g
}

// next returns the next block, or nil when the key space is used up.
func (g *ringGen) next() []simRequest {
	if len(g.introduced)+g.new > g.keys {
		return nil
	}
	seq := make([]simRequest, g.block)
	stride := g.block / g.new
	for i := range seq {
		if i%stride == 0 && i/stride < g.new {
			app := len(g.introduced) % len(g.fresh)
			k := g.fresh[app][0]
			g.fresh[app] = g.fresh[app][1:]
			g.introduced = append(g.introduced, k)
			seq[i] = simRequest{key: k, cold: true}
			continue
		}
		seq[i].key = g.introduced[g.rng.IntN(len(g.introduced))]
	}
	return seq
}

// ringInstance is three replicas with stores of their own, one ring, and the
// two callers.
type ringInstance struct {
	reps  []*replica
	conns []*conn
	gen   *ringGen
	owner []int // key -> index of the replica that owns it

	mu     sync.Mutex
	expect []*expectation // key -> what its first reply carried
}

func (ri *ringInstance) clients() []*musa.Client {
	cs := make([]*musa.Client, len(ri.reps))
	for i, r := range ri.reps {
		cs[i] = r.c
	}
	return cs
}

func (ri *ringInstance) registries() []*obs.Registry {
	rs := make([]*obs.Registry, len(ri.reps))
	for i, r := range ri.reps {
		rs[i] = r.reg
	}
	return rs
}

// stop shuts every server down and closes every client. The idle connections
// of the callers and of the replicas' proxy and peer-fetch clients (which use
// the default transport) go first: a connection that was dialed but never
// used would otherwise hold Shutdown for five seconds.
func (ri *ringInstance) stop() error {
	var first error
	for _, cn := range ri.conns {
		cn.close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, r := range ri.reps {
		if err := r.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startRing builds one instance: every listener binds before any client is
// built, as real deployments pass -self and -peers.
func startRing(e *env, ks *keySpace) (*ringInstance, error) {
	sc := e.cfg.sc
	lns := make([]stdnet.Listener, ringReplicas)
	urls := make([]string, ringReplicas)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], urls[i] = ln, url
	}
	ri := &ringInstance{expect: make([]*expectation, ks.len()), owner: make([]int, ks.len())}
	for i := range lns {
		dir, err := os.MkdirTemp(e.tmp, "replica-")
		if err == nil {
			opts := clientOptions(sc.ringFid, dir)
			opts.Ring = musa.NewRing(urls[i], urls)
			var c *musa.Client
			if c, err = musa.NewClient(opts); err == nil {
				ri.reps = append(ri.reps, serveOn(lns[i], urls[i], c, nil))
				continue
			}
		}
		for _, l := range lns[i:] {
			l.Close()
		}
		ri.stop()
		return nil, fmt.Errorf("replica %d: %w", i, err)
	}
	for i := 0; i < connections; i++ {
		ri.conns = append(ri.conns, newConn())
	}
	// The generator knows each key's owner the way a replica does: the route
	// key of the request, placed on the ring.
	index := map[string]int{}
	for i, u := range urls {
		index[u] = i
	}
	c0 := ri.reps[0].c
	for k := 0; k < ks.len(); k++ {
		it := ks.at(k)
		key, err := c0.RouteKey(musa.Experiment{Kind: musa.KindNode, App: it.app, PointIndex: &it.point})
		if err != nil {
			ri.stop()
			return nil, fmt.Errorf("route key: %w", err)
		}
		ri.owner[k] = index[c0.Ring().Owner(key)]
	}
	ri.gen = newRingGen(e.rng, ks, sc.ringBlock, sc.ringNewKeys)
	return ri, nil
}

// ringLatencies are one block's latencies in ms, split by how the request
// met the ring.
type ringLatencies struct {
	all, ownerHit, hopHit []float64
}

// block replays seq on both connections at once: connection k sends request
// i to replica (i+k) mod 3, so every key is asked for twice at nearly the
// same moment through two different replicas.
func (ri *ringInstance) block(e *env, ks *keySpace, res *result, seq []simRequest, rec *recorder) ringLatencies {
	parts := make([]ringLatencies, len(ri.conns))
	fails := make([][]string, len(ri.conns))
	var wg sync.WaitGroup
	for k, cn := range ri.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &parts[k]
			out.all = make([]float64, 0, len(seq))
			for i, rq := range seq {
				entry := (i + k) % len(ri.reps)
				ms, reply, fault := cn.roundtrip(e, rec, ri.reps[entry].url+"/simulate", ks.bodies[rq.key])
				out.all = append(out.all, ms)
				switch {
				case rq.cold: // neither a hit at the owner nor a hit across the hop
				case entry == ri.owner[rq.key]:
					out.ownerHit = append(out.ownerHit, ms)
				default:
					out.hopHit = append(out.hopHit, ms)
				}
				if fault == "" && !ri.consistent(int(rq.key), reply) {
					fault = fmt.Sprintf("measurement bytes of key %d differ from its first reply", rq.key)
				}
				if fault != "" {
					fails[k] = append(fails[k], fmt.Sprintf("request %d: %s", i, fault))
				}
			}
		}()
	}
	wg.Wait()
	res.attempted += len(seq) * len(ri.conns)
	var sum ringLatencies
	for k, p := range parts {
		sum.all = append(sum.all, p.all...)
		sum.ownerHit = append(sum.ownerHit, p.ownerHit...)
		sum.hopHit = append(sum.hopHit, p.hopHit...)
		for _, f := range fails[k] {
			res.fail("%s", f)
		}
	}
	return sum
}

// consistent keeps the first reply seen for a key and holds every later one
// to it; the run's end compares what was kept with a reference simulation.
func (ri *ringInstance) consistent(key int, body []byte) bool {
	ri.mu.Lock()
	x := ri.expect[key]
	ri.mu.Unlock()
	if x != nil {
		return x.matches(body)
	}
	compact, err := replyMeasurement(body)
	if err != nil {
		return false
	}
	x = &expectation{tail: bytes.Clone(replyTail(body)), compact: compact}
	ri.mu.Lock()
	if ri.expect[key] == nil {
		ri.expect[key] = x
	}
	x = ri.expect[key]
	ri.mu.Unlock()
	return bytes.Equal(x.compact, compact)
}

// verify simulates every introduced key once more on a client with no store,
// no artifacts and no ring, and compares the bytes the replicas served.
func (ri *ringInstance) verify(e *env, ks *keySpace, res *result) error {
	opts := clientOptions(e.cfg.sc.ringFid, "")
	opts.NoArtifacts = true
	ref, err := musa.NewClient(opts)
	if err != nil {
		return err
	}
	defer ref.Close()
	keys := ri.gen.introduced
	fails := make([]string, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < maxJobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(keys); i += maxJobs {
				it := ks.at(int(keys[i]))
				out, err := ref.Run(context.Background(), musa.Experiment{Kind: musa.KindNode, App: it.app, PointIndex: &it.point})
				if err != nil {
					fails[i] = fmt.Sprintf("reference run of key %d: %v", keys[i], err)
					continue
				}
				want, err := json.Marshal(out.Measurement)
				if err != nil {
					fails[i] = fmt.Sprintf("reference run of key %d: %v", keys[i], err)
					continue
				}
				if x := ri.expect[keys[i]]; x == nil || !bytes.Equal(x.compact, want) {
					fails[i] = fmt.Sprintf("measurement bytes of key %d differ from the reference run", keys[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range fails {
		if f != "" {
			res.fail("%s", f)
		}
	}
	return nil
}

// runServeRingMix is the serve-ring-mix workload: three replicas on one
// ring, duplicate-heavy traffic with a steady trickle of never-seen keys.
// Two thirds of the requests enter at a non-owner and pay the proxy hop, each
// cold key must be simulated exactly once ring-wide, store puts run beside
// the reads, and artifacts are fetched from and replicated to peers — the
// same store and single-flight as serve-hit, used differently.
func runServeRingMix(e *env) (*result, error) {
	sc := e.cfg.sc
	res := &result{m: metrics{}}
	ks := newKeySpace(gridPoints())

	// Set-up: start the ring and run one untimed block.
	var ri *ringInstance
	var setups []float64
	for r := 0; r < sc.setupRepeats["serve-ring-mix"]; r++ {
		if ri != nil {
			if err := ri.stop(); err != nil {
				return nil, fmt.Errorf("setup: stop ring: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if ri, err = startRing(e, ks); err != nil {
			return nil, fmt.Errorf("setup: start ring: %w", err)
		}
		warmup := ri.gen.next()
		hashSequence(e.foldInto(false), warmup)
		ri.block(e, ks, res, warmup, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ri.stop()
	if res.failed > 0 {
		return nil, fmt.Errorf("setup: warm-up block failed: %v", res.failures)
	}
	res.m["setup_s"] = median(setups)

	var hop, own []float64
	timed := func(d time.Duration, rec *recorder) *phase {
		p := &phase{probe: e.probe, corrected: true, latMs: make([]float64, 0, 1<<20)}
		hop, own = hop[:0], own[:0]
		p.begin()
		for len(p.blocks) < sc.minBlocks || p.elapsed() < d {
			seq := ri.gen.next()
			if seq == nil {
				break // every key has been introduced
			}
			hashSequence(e.foldInto(true), seq)
			p.beginBlock()
			lat := ri.block(e, ks, res, seq, rec)
			p.endBlock(len(lat.all), lat.all)
			hop = append(hop, lat.hopHit...)
			own = append(own, lat.ownerHit...)
		}
		p.end()
		return p
	}
	untraced, traced := e.phaseLengths()
	base := timed(untraced, nil)
	if err := base.endToEnd(res); err != nil {
		return nil, err
	}
	last := base
	var before counters
	if e.cfg.traced {
		before = readCounters(ri.clients(), ri.registries())
		last = timed(traced, e.rec)
	}
	after := readCounters(ri.clients(), ri.registries())
	// Each cold key must have been simulated exactly once ring-wide.
	if got, want := after.stats.Simulated, int64(len(ri.gen.introduced)); got != want {
		res.fail("count check: %d measurements simulated ring-wide, want %d (one per cold key)", got, want)
	}
	if err := ri.verify(e, ks, res); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if e.cfg.traced {
		last.layers(res.m, res.failed)
		counterLayers(res.m, before, after, len(last.blocks))
		res.m["trace.overhead_share"] = median(last.latMs)/median(base.latMs) - 1
		res.m["serve.proxy_hop_us"] = (median(hop) - median(own)) * 1e3

		// The ladder's store fixture holds the measurements the ring served.
		var items []item
		for _, k := range ri.gen.introduced {
			it := item{appPoint: ks.at(int(k))}
			if x := ri.expect[k]; x != nil && json.Unmarshal(x.compact, &it.m) == nil {
				items = append(items, it)
			}
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("ladder: the ring served no decodable measurement")
		}
		lad, err := runLadder(e, ladderInput{
			fid: sc.ringFid, items: items, simApps: []string{items[0].app}, simPoints: []int{items[0].point},
		})
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		lad.fill(res.m)
		serveAttribution(res, lad, items)
	}
	return res, nil
}
