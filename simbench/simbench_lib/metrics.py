"""Metric names, units and directions: the benchmark's contract.

BENCHMARK.json at the repository root lists the same metrics;
tests/test_contract.py keeps the two in step.
"""

# End-to-end metrics, reported by every workload (see README.md for what
# a work unit is on each one).
END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("table4_mape_pct", "%", "lower", 0.01),
]

# Per-layer metrics of the traced run: name -> (span, scale, unit, better).
# A span metric is the span's self time per call in ns divided by scale.
SPAN_METRICS = {
    "sched.allocate_contiguous_us": ("sched.allocate_contiguous", 1e3, "us"),
    "sched.allocate_linear_us": ("sched.allocate_linear", 1e3, "us"),
    "sched.release_us": ("sched.release", 1e3, "us"),
    "sched.fragmentation_us": ("sched.fragmentation", 1e3, "us"),
    "sched.free_nodes_us": ("sched.free_nodes", 1e3, "us"),
    "sched.largest_free_block_us": ("sched.largest_free_block", 1e3, "us"),
    "sched.drain_us": ("sched.drain", 1e3, "us"),
    "sched.return_to_service_us": ("sched.return_to_service", 1e3, "us"),
    "net.hops_ns": ("net.hops", 1.0, "ns"),
    "net.coordinates_ns": ("net.coordinates", 1.0, "ns"),
    "net.transfer_ns": ("net.transfer", 1.0, "ns"),
    "net.congestion_transfer_ns": ("net.congestion_transfer", 1.0, "ns"),
    "batch.generate_ms": ("batch.generate", 1e6, "ms"),
    "batch.runtime_estimate_us": ("batch.runtime_estimate", 1e3, "us"),
    "batch.run_cluster_contiguous_ms": ("batch.run_cluster_contiguous", 1e6, "ms"),
    "batch.run_cluster_linear_ms": ("batch.run_cluster_linear", 1e6, "ms"),
    "fault.generate_timeline_ms": ("fault.generate_timeline", 1e6, "ms"),
    "core.dispatch_ns": ("core.dispatch", 1.0, "ns"),
    "core.spawn_resume_ns": ("core.spawn_resume", 1.0, "ns"),
    "simmpi.p2p_ns_per_msg": ("simmpi.p2p", 1.0, "ns"),
    "simmpi.allreduce_us": ("simmpi.allreduce", 1e3, "us"),
    "simmpi.halo_step_us": ("simmpi.halo_step", 1e3, "us"),
    "roofline.exec_ns": ("roofline.exec", 1.0, "ns"),
    "apps.nemo_cte8_ms": ("apps.nemo_cte8", 1e6, "ms"),
    "apps.nemo_cte32_ms": ("apps.nemo_cte32", 1e6, "ms"),
    "apps.nemo_cte128_ms": ("apps.nemo_cte128", 1e6, "ms"),
    "apps.alya48_ms": ("apps.alya48", 1e6, "ms"),
    "apps.wrf64_ms": ("apps.wrf64", 1e6, "ms"),
    "apps.gromacs64_ms": ("apps.gromacs64", 1e6, "ms"),
    "apps.openifs16_ms": ("apps.openifs16", 1e6, "ms"),
    "util.json_parse_ns_per_byte": ("util.json_parse", 1.0, "ns/B"),
    "server.parse_request_us": ("server.parse_request", 1e3, "us"),
    "server.canonical_workload_us": ("server.canonical_workload", 1e3, "us"),
    "server.simulate_reply_us": ("server.simulate_reply", 1e3, "us"),
    "server.handle_hit_us": ("server.handle_hit", 1e3, "us"),
    "server.handle_cold_ms": ("server.handle_cold", 1e6, "ms"),
}

# Per-layer metrics computed otherwise: name -> unit.
OTHER_LAYER_UNITS = {
    "sched.alloc_calls": "count",
    "batch.sched_share": "ratio",
    "batch.power_overhead_ratio": "ratio",
    "fault.interrupted": "count",
    "fault.failed": "count",
    "fault.wasted_node_h": "node_h",
    "core.events_per_campaign": "count",
    "server.cache_hit_ratio": "ratio",
    "server.coalesced": "count",
    "server.errors": "count",
    "server.shed": "count",
    "server.timeouts": "count",
    "server.max_queue_depth": "count",
    "loadgen.late_p95_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}

_HIGHER_IS_BETTER = {"sched.alloc_calls", "server.cache_hit_ratio",
                     "server.coalesced"}


def per_layer():
    """[(name, unit, better)] in BENCHMARK.json order."""
    rows = [(name, unit) for name, (_, _, unit) in SPAN_METRICS.items()]
    rows += list(OTHER_LAYER_UNITS.items())
    return [(name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
            for name, unit in rows]


def units():
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table
