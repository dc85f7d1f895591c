package main

import (
	"fmt"
	"io"
	"math"
	stdnet "net"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage), the
// load generator's share included: generator and program share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss of this process in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// quantile is the linearly interpolated q-quantile (q in [0,1]) of a sorted
// slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// iqrShare is the distance between the first and third quartile of xs as a
// share of their median — the spread the benchmark's bounds are read against.
func iqrShare(xs []float64) float64 {
	c := sortedCopy(xs)
	m := quantile(c, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(c, 0.75) - quantile(c, 0.25)) / m
}

// block is one equal slice of the timed phase. Throughput and CPU per point
// are reported as the median over blocks, so a burst of host steal moves one
// block and not the metric.
type block struct {
	wall   time.Duration
	cpu    time.Duration
	points int
	ops    int     // latencies recorded for the block
	host   float64 // host factor while the block ran; 1 when the phase is not corrected
}

// phase accumulates one timed phase: its blocks, every op latency, the host
// probe's readings around every block, and the allocator and GC deltas.
type phase struct {
	probe *hostProbe
	// corrected: wall time, CPU time and latencies of every block are divided
	// by the host factor read around it (the serve workloads; see hostProbe).
	corrected bool

	blocks   []block
	latMs    []float64     // one entry per op (a sweep op or one HTTP request), as measured
	readings []hostReading // one before the first block, one after every block
	probeErr error

	mem0, mem1   runtime.MemStats
	rssMB        float64 // ru_maxrss when the phase ended
	started      time.Time
	blockStarted time.Time
	blockCPU     time.Duration
}

func (p *phase) begin() {
	runtime.GC() // every phase starts from a collected heap
	runtime.ReadMemStats(&p.mem0)
	p.read()
	p.started = time.Now()
}

// read takes one reading of the host probe, outside every block.
func (p *phase) read() {
	r, err := p.probe.read()
	if err != nil && p.probeErr == nil {
		p.probeErr = err
	}
	p.readings = append(p.readings, r)
}

func (p *phase) beginBlock() {
	p.blockCPU = cpuTime()
	p.blockStarted = time.Now()
}

// endBlock closes the current block, whose ops took latMs each, and reads the
// host probe. The block's host factor is the mean of the readings on either
// side of it.
func (p *phase) endBlock(points int, latMs ...[]float64) {
	b := block{
		wall:   time.Since(p.blockStarted),
		cpu:    cpuTime() - p.blockCPU,
		points: points,
		host:   1,
	}
	p.read()
	if p.corrected {
		n := len(p.readings)
		b.host = (p.readings[n-2].factor() + p.readings[n-1].factor()) / 2
	}
	for _, l := range latMs {
		p.latMs = append(p.latMs, l...)
		b.ops += len(l)
	}
	p.blocks = append(p.blocks, b)
}

// end closes the phase. Peak RSS is read here, before the benchmark's own
// verification and ladder add to it.
func (p *phase) end() {
	runtime.ReadMemStats(&p.mem1)
	p.rssMB = peakRSSMB()
}

func (p *phase) elapsed() time.Duration { return time.Since(p.started) }

func (p *phase) points() int {
	n := 0
	for _, b := range p.blocks {
		n += b.points
	}
	return n
}

// blockRates is each block's throughput in points per second, as measured.
func (p *phase) blockRates() []float64 {
	xs := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		xs[i] = float64(b.points) / b.wall.Seconds()
	}
	return xs
}

// times fills the four time-based end-to-end metrics. Throughput and CPU per
// point are medians over blocks; with correct set, every time is divided by
// its block's host factor first.
func (p *phase) times(m metrics, correct bool) {
	rates := make([]float64, len(p.blocks))
	cpus := make([]float64, len(p.blocks))
	lat := make([]float64, 0, len(p.latMs))
	for i, b := range p.blocks {
		host := 1.0
		if correct {
			host = b.host
		}
		rates[i] = float64(b.points) / (b.wall.Seconds() / host)
		cpus[i] = float64(b.cpu.Microseconds()) / 1e3 / host / float64(b.points)
		for _, l := range p.latMs[len(lat) : len(lat)+b.ops] {
			lat = append(lat, l/host)
		}
	}
	sort.Float64s(lat)
	m["points_per_s"] = median(rates)
	m["latency_p50_ms"] = quantile(lat, 0.5)
	m["latency_p90_ms"] = quantile(lat, 0.9)
	m["cpu_ms_per_point"] = median(cpus)
}

// endToEnd fills the end-to-end metrics this phase owns, and on a corrected
// phase also the time-based ones as measured, for the run's printout.
func (p *phase) endToEnd(res *result) error {
	if p.probeErr != nil {
		return fmt.Errorf("host probe: %w", p.probeErr)
	}
	m := res.m
	p.times(m, p.corrected)
	if p.corrected {
		res.asMeasured = metrics{}
		p.times(res.asMeasured, false)
	}
	pts := float64(p.points())
	m["allocs_per_point"] = float64(p.mem1.Mallocs-p.mem0.Mallocs) / pts
	m["alloc_kb_per_point"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / 1024 / pts
	m["peak_rss_mb"] = p.rssMB
	return nil
}

// layers fills the per-layer metrics every phase can report about itself.
func (p *phase) layers(m metrics, failed int) {
	lat := sortedCopy(p.latMs) // as measured: nothing under loadgen.* is corrected
	m["loadgen.latency_p99_ms"] = quantile(lat, 0.99)
	m["loadgen.latency_p999_ms"] = quantile(lat, 0.999)
	m["loadgen.latency_max_ms"] = quantile(lat, 1)
	// How even the timed phase was: the spread of per-block throughput.
	m["loadgen.block_spread"] = iqrShare(p.blockRates())
	m["loadgen.ops"] = float64(len(p.latMs))
	m["loadgen.failed"] = float64(failed)
	spin := make([]float64, len(p.readings))
	echo := make([]float64, len(p.readings))
	for i, r := range p.readings {
		spin[i], echo[i] = r.spinMs, r.echoUs
	}
	host := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		host[i] = b.host
	}
	m["host.calib_ms"] = median(spin)
	m["host.calib_spread"] = iqrShare(spin)
	m["host.echo_us"] = median(echo)
	m["host.echo_spread"] = iqrShare(echo)
	m["host.factor"] = median(host)
	m["runtime.gc_cpu_share"] = p.mem1.GCCPUFraction // since process start; the runs are short
	m["runtime.gc_cycles"] = float64(p.mem1.NumGC - p.mem0.NumGC)
	m["runtime.heap_peak_mb"] = float64(p.mem1.HeapSys-p.mem1.HeapReleased) / (1 << 20)
}

// hostProbe times a fixed piece of work between blocks that depends on
// nothing the program does: an integer spin kernel (about 2.5 ms) and a burst
// of echo round trips over one loopback connection to a goroutine of this
// process (about 2 ms). The host the benchmark runs on is a few cores of a
// shared machine, and its speed moves between states that last seconds to
// minutes: the spin kernel has two speeds a quarter apart, and the loopback
// round trip (kernel TCP path, scheduler hand-off, cache misses) moves by up
// to a third on its own. A request of a serve workload is mostly that second
// kind of work, and identical runs of it differed by 15 to 35 % with the host;
// the sweeps are compute-bound and repeat to 4 % as measured.
//
// So the serve workloads report their times corrected for the host: every
// block's wall time, CPU time and latencies are divided by the host factor
// read around it, the mean of the two probe parts relative to the reference
// host below. The result reads as "ms on a host where the probe takes its
// reference time". The correction changes nothing about a comparison of two
// commits, neither of which can change the probe, except its noise. The
// readings and the factor are reported under host.*, and everything under
// loadgen.* is as measured.
type hostProbe struct {
	conn stdnet.Conn
	buf  [echoBytes]byte
	done chan struct{} // closed when the echo goroutine has returned
}

const (
	spinSteps = 1_500_000
	echoTrips = 300
	echoBytes = 256
	refSpinMs = 2.8 // the reference host: this machine class in its usual state
	refEchoUs = 6.0
)

// hostReading is one reading of the probe.
type hostReading struct{ spinMs, echoUs float64 }

// factor is how slow the host read against the reference: above 1 is slower.
func (r hostReading) factor() float64 {
	return (r.spinMs/refSpinMs + r.echoUs/refEchoUs) / 2
}

func newHostProbe() (*hostProbe, error) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	// The dial completes in the listener's backlog; accept it afterwards.
	conn, err := stdnet.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	peer, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	h := &hostProbe{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer peer.Close()
		var buf [echoBytes]byte
		for {
			if _, err := io.ReadFull(peer, buf[:]); err != nil {
				return
			}
			if _, err := peer.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	return h, nil
}

// close ends the echo goroutine and waits for it.
func (h *hostProbe) close() {
	h.conn.Close()
	<-h.done
}

// spinSink keeps the spin kernel's result alive.
var spinSink uint64

func (h *hostProbe) read() (hostReading, error) {
	var r hostReading
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < spinSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	r.spinMs = float64(time.Since(t0).Nanoseconds()) / 1e6

	t0 = time.Now()
	for i := 0; i < echoTrips; i++ {
		if _, err := h.conn.Write(h.buf[:]); err != nil {
			return r, err
		}
		if _, err := io.ReadFull(h.conn, h.buf[:]); err != nil {
			return r, err
		}
	}
	r.echoUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / echoTrips
	return r, nil
}
