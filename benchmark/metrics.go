package main

// metricDef names one metric exactly as BENCHMARK.json does; the unit test
// keeps the two in step. Bound is the share of the parent's median by
// which an end-to-end metric may worsen (unused for per-layer metrics).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"single_read_ms", "ms", "lower", 0.25},
	{"true_locus_frac", "frac", "higher", 0.002},
	{"peak_rss_mib", "MiB", "lower", 0.05},
}

// perLayer lists the metrics of single layers, measured from outside by
// timing calls into each layer's exported functions. A metric whose layer
// is not on a workload's path reads 0 there. Unit "count" is kept for work
// counters, which are a pure function of the inputs and repeat exactly;
// queue depths, allocations and batch counts depend on scheduling.
var perLayer = []metricDef{
	{Name: "dna.read_fasta_s", Unit: "s", Better: "lower"},
	{Name: "dna.parse_seq_ns_per_base", Unit: "ns", Better: "lower"},

	{Name: "seed.index_build_s", Unit: "s", Better: "lower"},
	{Name: "seed.index_mib", Unit: "MiB", Better: "lower"},
	{Name: "seed.seed_us_per_read", Unit: "us", Better: "lower"},
	{Name: "seed.index_lookups_per_read", Unit: "count", Better: "lower"},
	{Name: "seed.cam_lookups_per_read", Unit: "count", Better: "lower"},
	{Name: "seed.seeds_per_read", Unit: "count", Better: "lower"},
	{Name: "seed.hits_per_read", Unit: "count", Better: "lower"},
	{Name: "seed.exact_read_frac", Unit: "frac", Better: "higher"},

	{Name: "indexio.write_s", Unit: "s", Better: "lower"},
	{Name: "indexio.file_mib", Unit: "MiB", Better: "lower"},
	{Name: "indexio.probe_s", Unit: "s", Better: "lower"},
	{Name: "indexio.open_mapped_s", Unit: "s", Better: "lower"},
	{Name: "indexio.verify_s", Unit: "s", Better: "lower"},

	{Name: "chain.collapse_us_per_group", Unit: "us", Better: "lower"},
	{Name: "chain.anchors_per_read", Unit: "count", Better: "lower"},
	{Name: "chain.kept_frac", Unit: "frac", Better: "lower"},

	{Name: "extend.narrow_us_per_call", Unit: "us", Better: "lower"},
	{Name: "extend.wide_us_per_call", Unit: "us", Better: "lower"},
	{Name: "extend.cycles_per_call", Unit: "count", Better: "lower"},
	{Name: "extend.extensions_per_read", Unit: "count", Better: "lower"},
	{Name: "extend.reruns_per_read", Unit: "count", Better: "lower"},

	{Name: "pipeline.seed_busy_us_per_read", Unit: "us", Better: "lower"},
	{Name: "pipeline.filter_busy_us_per_read", Unit: "us", Better: "lower"},
	{Name: "pipeline.extend_busy_us_per_read", Unit: "us", Better: "lower"},
	{Name: "pipeline.extend_busy_share", Unit: "frac", Better: "lower"},
	{Name: "pipeline.seed_out_queue_avg", Unit: "batches", Better: "lower"},
	{Name: "pipeline.filter_out_queue_avg", Unit: "batches", Better: "lower"},
	{Name: "pipeline.lane_util", Unit: "frac", Better: "higher"},

	{Name: "core.new_s", Unit: "s", Better: "lower"},
	{Name: "core.batch_rps_median", Unit: "1/s", Better: "higher"},
	{Name: "core.noise_frac", Unit: "frac", Better: "lower"},
	{Name: "core.stream_rps", Unit: "1/s", Better: "higher"},
	{Name: "core.cpu_us_per_read", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_read", Unit: "allocs", Better: "lower"},
	{Name: "core.alloc_bytes_per_read", Unit: "B", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "cycles", Better: "lower"},
	{Name: "core.trace_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "serve.cold_load_s", Unit: "s", Better: "lower"},
	{Name: "serve.mean_batch", Unit: "reads", Better: "higher"},
	{Name: "serve.batches", Unit: "batches", Better: "lower"},
	{Name: "serve.window_share", Unit: "frac", Better: "lower"},
	{Name: "serve.overhead_us_per_read", Unit: "us", Better: "lower"},
	{Name: "serve.closed_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.closed_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected_frac", Unit: "frac", Better: "lower"},
	{Name: "serve.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_late_p99_ms", Unit: "ms", Better: "lower"},
}
