"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists the same names; ``tests/test_logic.py`` keeps the
two in step.  Every workload prints every metric: end-to-end metrics are
defined on all four workloads, and a per-layer metric of a layer a workload
does not exercise reads 0.
"""

END_TO_END = {
    # Median and p90 of the workload's operations: one /search (serve-read,
    # serve-hot), any request (serve-churn), one search_many call
    # (offline-batch).
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    # Searches answered per second (offline-batch: queries per second).
    "throughput_qps": "1/s",
    "recall_at_10": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}

PER_LAYER = {
    "socket.wait_ms_p50": "ms",
    "server.self_ms_p50": "ms",
    "server.cpu_ms_per_op": "ms",
    "server.stats_p50_ms": "ms",
    "runtime.self_ms_p50": "ms",
    "cache.hit_ratio": "ratio",
    "cache.get_us_p50": "us",
    "cache.invalidations": "count",
    "cache.stale_puts": "count",
    "microbatch.queue_wait_ms_p50": "ms",
    "microbatch.dispatch_self_ms_p50": "ms",
    "microbatch.batch_size_mean": "count",
    "index.blocking_ms_p50": "ms",
    "dynamic.search_self_ms_p50": "ms",
    "dynamic.delta_rows_mean": "count",
    "dynamic.tombstones_mean": "count",
    "dynamic.insert_us_p50": "us",
    "dynamic.delete_us_p50": "us",
    "maintenance.rebuilds": "count",
    "maintenance.build_s_total": "s",
    "maintenance.commit_ms_max": "ms",
    "maintenance.replayed_ops": "count",
    "sharded.fanout_ms_p50": "ms",
    "sharded.merge_ms_p50": "ms",
    "promips.search_ms_per_q": "ms",
    "engine.project_ms_per_q": "ms",
    "quickprobe.probe_ms_per_q": "ms",
    "ring.range_ms_per_q": "ms",
    "engine.verify_ms_per_q": "ms",
    "pagefile.read_ms_per_q": "ms",
    "promips.candidates_per_q": "count",
    "promips.pages_per_q": "count",
    "promips.expansions_per_q": "count",
    "promips.verified_per_result": "count",
    "promips.stop_condition_b_frac": "ratio",
    "engine.gemm_ms": "ms",
    "engine.merge_ms": "ms",
    "build.promips_s": "s",
    "build.kmeans_s": "s",
    "loadgen.search_p95_ms": "ms",
    "loadgen.mutation_p50_ms": "ms",
    "loadgen.mutation_p95_ms": "ms",
    "trace.coverage": "ratio",
    # The end-to-end metrics as measured with tracing on; minus the untraced
    # runs' values (``steady.py --overhead``) they give the tracing overhead.
    **{f"traced.{name}": unit for name, unit in END_TO_END.items()},
}
