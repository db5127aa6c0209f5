package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names (a unit test keeps the two in step); the driver reads bounds
// and directions from the file, the code only needs names and units.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the system sees. Every workload reports
// all of them (see serveWindow.endToEnd for how a served job maps on).
var endToEndDefs = []metricDef{
	{"frames_per_s", "1/s"},
	{"frame_latency_p50_ms", "ms"},
	{"allocs_per_frame", "count"},
	{"alloc_kb_per_frame", "KB"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// fnNames are the registered functions of the three applications, minus
// read_img (the load generator).
var fnNames = []string{
	"get_windows", "detect_mark", "accum_marks", "predict", "display_marks",
	"split_bands", "label_band", "merge_bands", "note_labels", "display_labels",
	"whole", "split_region", "count_region", "note_regions", "display_regions",
}

// perLayerDefs are the single-layer metrics of the traced run. A workload
// that does not exercise a layer reports 0 for it.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"dsl.parse_check_ms", "ms"},
		{"expand.expand_ms", "ms"},
		{"syndex.map_ms", "ms"},
		{"syndex.ops_total", "count"},
		{"nettransport.bringup_ms", "ms"},
		{"distrib.job_compile_ms", "ms"},
	}
	for _, f := range fnNames {
		defs = append(defs, metricDef{"fn." + f + ".calls_per_frame", "count"},
			metricDef{"fn." + f + ".busy_us_per_frame", "us"})
	}
	return append(defs,
		metricDef{"exec.residual_us_per_frame", "us"},
		metricDef{"transport.messages_per_frame", "count"},
		metricDef{"transport.direct_per_frame", "count"},
		metricDef{"transport.bytes_sent_per_frame", "B"},
		metricDef{"transport.roundtrip_us", "us"},
		metricDef{"value.task_bytes_per_frame", "B"},
		metricDef{"value.reply_bytes_per_frame", "B"},
		metricDef{"value.codec_us_per_frame", "us"},
		metricDef{"vision.threshold_ns_per_px", "ns/px"},
		metricDef{"vision.label_ns_per_px", "ns/px"},
		metricDef{"vision.extract_ns_per_px", "ns/px"},
		metricDef{"vision.dilate_ns_per_px", "ns/px"},
		metricDef{"skel.pool_dispatch_us", "us"},
		metricDef{"frame.median_rate_per_s", "1/s"},
		metricDef{"frame.mean_rate_per_s", "1/s"},
		metricDef{"frame.stall_ratio", "ratio"},
		metricDef{"frame.latency_p50_ms", "ms"},
		metricDef{"frame.latency_p95_ms", "ms"},
		metricDef{"frame.latency_p99_ms", "ms"},
		metricDef{"frame.latency_max_ms", "ms"},
		metricDef{"frame.deadline_miss_ratio", "ratio"},
		metricDef{"frame.generator_lag_p95_ms", "ms"},
		metricDef{"runtime.gc_cycles_per_s", "1/s"},
		metricDef{"runtime.gc_pause_ms_per_s", "ms/s"},
		metricDef{"runtime.heap_growth_kb_per_kframe", "KB"},
		metricDef{"serve.jobs_per_s", "1/s"},
		metricDef{"serve.job_latency_p50_ms", "ms"},
		metricDef{"serve.job_latency_p95_ms", "ms"},
		metricDef{"serve.allocs_per_job", "count"},
		metricDef{"serve.queue_wait_ms_mean", "ms"},
		metricDef{"serve.sched_overhead_ms", "ms"},
		metricDef{"serve.rejected_429", "count"},
		metricDef{"serve.requeues", "count"},
		metricDef{"sim.predicted_frame_ms", "ms"},
		metricDef{"sim.skew_ratio", "ratio"},
		metricDef{"bench.trace_overhead_ratio", "ratio"},
	)
}

// complete returns m restricted to defs, with 0 for every metric the
// workload did not produce, and rejects a metric no def names.
func complete(defs []metricDef, m map[string]summary) (map[string]summary, error) {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		s, ok := m[d.name]
		if !ok {
			s = summary{Unit: d.unit}
		}
		if s.Unit != d.unit {
			return nil, fmt.Errorf("metric %s has unit %q, declared %q", d.name, s.Unit, d.unit)
		}
		out[d.name] = s
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// benchmarkFile is BENCHMARK.json, the contract the driver checks.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
