"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same metrics; ``run.py`` refuses to print a
result whose metric set differs from these tables.
"""

from __future__ import annotations

#: The kernel table of ``repro.kernels.interface.KERNEL_NAMES`` at the
#: time the benchmark was defined (kept here so this module stays
#: importable without the program).
KERNEL_NAMES = (
    "distance_matrix",
    "ball_counts",
    "any_within",
    "count_within",
    "find_within_many",
    "bucket_by_cell",
    "pack_cell_keys",
    "box_sq_dists",
    "cell_gap_sq_dists",
)

#: (name, unit, better) of the end-to-end metrics, measured untraced.
#: Every timing is CPU time of the system under test (``cpuclock.py``),
#: scaled by the calibration factor of its round or set-up
#: (``calibrate.py``); ``setup_s`` is a median of set-ups, the op costs
#: are means per call (per request in ``service-open``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("update_cpu_us", "us", "lower"),
    ("query_cpu_us", "us", "lower"),
    ("snapshot_cpu_ms", "ms", "lower"),
    ("updates_per_cpu_s", "1/s", "higher"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Printed with every run but gating nothing: the CPU timings before
#: calibration scaling, and the wall-clock timings (latency from the
#: due time in ``service-open``).  On a shared 2-cpu box the wall-clock
#: medians varied by a third or more from run to run, and their tails
#: did not repeat within a tenth.
UNGATED = (
    ("unscaled_setup_s", "s"),
    ("unscaled_update_cpu_us", "us"),
    ("unscaled_query_cpu_us", "us"),
    ("unscaled_snapshot_cpu_ms", "ms"),
    ("wall_update_p50_us", "us"),
    ("wall_query_p50_us", "us"),
    ("wall_snapshot_p50_ms", "ms"),
    ("wall_update_tail_us", "us"),
    ("wall_query_tail_us", "us"),
    ("wall_snapshot_tail_ms", "ms"),
    ("wall_updates_per_s", "1/s"),
)


def _per_layer():
    rows = []
    for k in KERNEL_NAMES:
        rows += [
            (f"kernels.{k}.s", "s", "lower"),
            (f"kernels.{k}.calls", "count", "lower"),
            (f"kernels.{k}.rows_per_call", "rows", "higher"),
        ]
    rows.append(("kernels.busy_s", "s", "lower"))
    rows += [
        ("core.insert.us", "us", "lower"),
        ("core.delete.us", "us", "lower"),
        ("core.cgroup_by.us", "us", "lower"),
        ("core.clusters.ms", "ms", "lower"),
    ]
    for op in ("insert_many", "delete_many"):
        for bucket in ("b1", "b2_16", "b17_128", "b129up"):
            rows.append((f"core.{op}.us_per_point.{bucket}", "us/pt", "lower"))
    rows += [
        ("core.kernel_frac", "frac", "higher"),
        ("core.fragment_hit_ratio", "frac", "higher"),
        ("core.fragment_invalidations", "count", "lower"),
        ("core.cells", "count", "lower"),
        ("api.self_frac", "frac", "lower"),
        ("api.session.flushes", "count", "lower"),
        ("api.session.points_per_flush", "points", "higher"),
        ("service.pre_engine_us.p50", "us", "lower"),
        ("service.pre_engine_us.tail", "us", "lower"),
        ("service.post_engine_us.p50", "us", "lower"),
        ("service.post_engine_us.tail", "us", "lower"),
        ("service.engine_busy_frac", "frac", "lower"),
        ("service.refused", "count", "lower"),
        ("service.gen_lag_tail_ms", "ms", "lower"),
        ("service.unmatched", "count", "lower"),
        ("shard.router_self_s", "s", "lower"),
        ("shard.merge_s", "s", "lower"),
        ("shard.executor_s", "s", "lower"),
        ("shard.executor_calls", "count", "lower"),
        ("shard.replication", "x", "lower"),
        ("shard.restarts", "count", "lower"),
        ("shard.journal_max", "calls", "lower"),
        ("shard.transport_tax", "x", "lower"),
    ]
    rows += [(f"overhead.{name}", "frac", "lower") for name, _, _ in END_TO_END]
    return tuple(rows)


#: (name, unit, better) of the per-layer metrics of the traced run.
PER_LAYER = _per_layer()
