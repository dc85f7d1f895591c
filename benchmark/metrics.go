package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// metricDef declares one metric the benchmark emits. BENCHMARK.json lists
// the same names and units; bench_test.go checks that the two agree.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them on an untraced run.
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_point", "ms"},
	{"allocs_per_point", "count"},
	{"alloc_kb_per_point", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// workload that never enters a layer reports 0 for it.
var perLayer = []metricDef{
	// Request path of a store hit.
	{"experiment.decode_us", "us"},
	{"experiment.normalize_key_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.handler_hit_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"client.run_hit_us", "us"},
	{"store.get_front_us", "us"},
	{"store.get_engine_us", "us"},
	{"store.front_hit_share", "ratio"},
	{"lsm.gets", "count"},
	{"lsm.memtable_hits", "count"},
	{"lsm.segment_reads", "count"},
	{"lsm.block_cache_hit_share", "ratio"},
	{"lsm.bloom_false_positives", "count"},
	{"lsm.reopen_ms", "ms"},
	// Ring hop, cold work and the write path.
	{"serve.proxy_hop_us", "us"},
	{"serve.proxied_share", "ratio"},
	{"ring.order_ns", "ns"},
	{"ring.owner_local", "count"},
	{"ring.owner_proxied", "count"},
	{"ring.owner_fallback", "count"},
	{"ring.peer_artifacts_fetched", "count"},
	{"ring.peer_artifact_misses", "count"},
	{"ring.peer_artifacts_replicated", "count"},
	{"client.coalesced", "count"},
	{"client.run_cold_node_ms", "ms"},
	{"serve.shed", "count"},
	{"store.put_us", "us"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.compaction_s", "s"},
	{"lsm.wal_bytes", "B"},
	// Sweep pipeline stage counts per op and client counters.
	{"dse.builds_fuse", "count"},
	{"dse.builds_annotate", "count"},
	{"dse.builds_latency_fit", "count"},
	{"dse.builds_burst", "count"},
	{"dse.node_sims", "count"},
	{"dse.replays", "count"},
	{"client.simulated", "count"},
	{"client.store_hits", "count"},
	{"client.requests", "count"},
	{"client.first_result_ms", "ms"},
	// Trace building, cache walk, DRAM curve, burst synthesis, artifacts.
	{"node.scalar_trace_ms", "ms"},
	{"node.fuse_ms", "ms"},
	{"isa.fuse_ns_per_uop", "ns"},
	{"node.annotate_ms", "ms"},
	{"cache.walk_ns_per_access", "ns"},
	{"node.latency_model_ms", "ms"},
	{"dram.open_loop_ns_per_request", "ns"},
	{"net.burst_synthesis_ms", "ms"},
	{"node.combine_ms", "ms"},
	{"store.artifact_get_us", "us"},
	{"store.artifact_decode_ms", "ms"},
	{"store.artifact_hits", "count"},
	{"store.artifact_misses", "count"},
	{"store.artifact_bytes_read", "B"},
	// Timing replay, runtime system and power, MPI replay.
	{"cpu.run_timing_ms", "ms"},
	{"cpu.host_ns_per_sim_uop", "ns"},
	{"node.simulate_annotated_ms", "ms"},
	{"node.regions_power_self_ms", "ms"},
	{"net.replay_ms", "ms"},
	// Runtime and attribution.
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MiB"},
	{"dse.unattributed_share", "ratio"},
	// Load generator, host, tracing, model.
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.latency_p999_ms", "ms"},
	{"loadgen.latency_max_ms", "ms"},
	{"loadgen.block_spread", "ratio"},
	{"loadgen.ops", "count"},
	{"loadgen.failed", "count"},
	{"host.calib_ms", "ms"},
	{"host.calib_spread", "ratio"},
	{"host.echo_us", "us"},
	{"host.echo_spread", "ratio"},
	{"host.factor", "ratio"},
	{"obs.span_ns", "ns"},
	{"trace.overhead_share", "ratio"},
	{"model.ipc_mean", "ratio"},
	{"model.sim_uops_per_op", "count"},
}

// result is the outcome of one run of one workload.
type result struct {
	workload    string
	seed        uint64
	traced      bool
	sequenceSHA string // SHA-256 of the seeded request sequence
	attempted   int
	failed      int
	failures    []string // first few failure descriptions
	m           metrics
	asMeasured  metrics     // serve workloads: the time-based end-to-end metrics before host correction
	whereTime   []ladderRow // traced runs: the "where the time goes" table
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// wireMetric is one metric of the final JSON line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the final JSON line: exactly these keys.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// wire selects the metrics the run's mode reports: every end-to-end metric
// untraced, every per-layer metric traced. A declared metric the workload
// did not compute is a bug in the benchmark and is reported as an error.
func (r *result) wire() (wireResult, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := wireResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]wireMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok {
			return out, fmt.Errorf("benchmark: workload %s did not compute %s", r.workload, d.name)
		}
		out.Metrics[d.name] = wireMetric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// print writes the run header, every reported metric by name with its unit,
// and the JSON object as the last line.
func (r *result) print(w io.Writer) error {
	wr, err := r.wire()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", r.workload, r.seed, r.traced)
	fmt.Fprintf(w, "request sequence sha256 %s\n", r.sequenceSHA)
	fmt.Fprintf(w, "ops attempted %d  failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", n, wr.Metrics[n].Value, wr.Metrics[n].Unit)
	}
	if len(r.asMeasured) > 0 && !r.traced {
		fmt.Fprintln(w, "as measured, before host correction:")
		for _, d := range endToEnd {
			if v, ok := r.asMeasured[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	if len(r.whereTime) > 0 {
		fmt.Fprintln(w, "where the time goes (ladder self times for one op):")
		for _, row := range r.whereTime {
			fmt.Fprintf(w, "  %-28s %6d calls %10.2f ms %6.1f%%\n", row.Name, row.Calls, row.SelfMs, row.Share*100)
		}
	}
	line, err := json.Marshal(wr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
