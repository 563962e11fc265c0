"""Per-layer tracing from outside the program.

The traced run times calls *into* each layer's public functions and
changes nothing under ``src/``:

* ``kernels`` — a benchmark-registered backend whose table wraps the
  active one (``repro.kernels.register_backend`` + ``use_backend``);
* ``core`` — the clusterer behind ``Engine.raw`` (instance attributes
  shadow its update/query methods);
* ``api`` — the ``Engine`` / ``ShardedEngine`` facade, and the
  ``IngestSession`` objects the service opens;
* ``shard`` — the ``ShardedEngine.raw`` router and its executor's
  ``map`` / ``call``.

Each layer keeps a depth counter so only its outermost call is timed,
and a parent layer subtracts the time its child layer spent inside it
to get its own *self* time.  Tracing is off unless :attr:`enabled` is
set; workloads switch it on for the measured window only.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

from repro import kernels
from repro.kernels import registry
from repro.kernels.interface import KERNEL_NAMES, Backend

from stats import median

clock = time.perf_counter_ns

TRACED_BACKEND = "perfbench-traced"

#: Call-size buckets of the per-point bulk update cost.
BUCKETS = (("b1", 1, 1), ("b2_16", 2, 16), ("b17_128", 17, 128), ("b129up", 129, None))

CORE_SCALAR = ("insert", "delete", "cgroup_by", "clusters")
CORE_BULK = ("insert_many", "delete_many")
_CORE_OP = {
    "insert": "insert",
    "delete": "delete",
    "insert_many": "insert_many",
    "delete_many": "delete_many",
    "cgroup_by": "cgroup_by",
    "cgroup_by_many": "cgroup_by",
    "clusters": "clusters",
}
_API_METHODS = (
    "insert", "ingest", "insert_many", "delete", "delete_many",
    "cgroup_by", "cgroup_by_many", "snapshot",
)


def bucket_of(size: int) -> str:
    for name, lo, hi in BUCKETS:
        if size >= lo and (hi is None or size <= hi):
            return name
    return BUCKETS[0][0]


def _rows(args) -> int:
    for arg in args:
        if getattr(arg, "ndim", 0) >= 2:
            return int(arg.shape[0])
    return 1


class Tracer:
    """Counters and timers of one traced window."""

    def __init__(self) -> None:
        self.enabled = False
        #: Whether this phase is traced at all; workloads set
        #: ``enabled = active`` around each measured stretch.
        self.active = False
        self._kdepth = self._cdepth = self._adepth = self._rdepth = 0
        self.reset()

    def reset(self) -> None:
        self.kernel_ns = {k: 0 for k in KERNEL_NAMES}
        self.kernel_calls = {k: 0 for k in KERNEL_NAMES}
        self.kernel_rows = {k: 0 for k in KERNEL_NAMES}
        self.kernel_busy_ns = 0
        self.kernel_in_core_ns = 0
        self.core_ns = 0
        self.core_samples: Dict[str, List[int]] = {op: [] for op in CORE_SCALAR}
        self.core_buckets = {
            op: {b[0]: [0, 0] for b in BUCKETS} for op in CORE_BULK
        }
        self.api_ns = 0
        self.api_child_ns = 0
        self.router_ns = 0
        self.router_update_self_ns = 0
        self.router_query_self_ns = 0
        self.exec_ns = 0
        self.exec_calls = 0
        self.journal_max = 0
        self.session_flushes = 0
        self.session_flushed_points = 0

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------

    def install_kernels(self) -> None:
        table = {k: self._kernel(k, registry.get_kernel(k)) for k in KERNEL_NAMES}
        kernels.register_backend(
            Backend(TRACED_BACKEND, kernels=table, description="timing wrapper")
        )
        kernels.use_backend(TRACED_BACKEND)

    def _kernel(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            depth = self._kdepth
            self._kdepth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._kdepth = depth
                self.kernel_ns[name] += dt
                self.kernel_calls[name] += 1
                self.kernel_rows[name] += _rows(args)
                if depth == 0:
                    self.kernel_busy_ns += dt
                    if self._cdepth:
                        self.kernel_in_core_ns += dt

        return traced

    # ------------------------------------------------------------------
    # core (the clusterer behind Engine.raw)
    # ------------------------------------------------------------------

    def wrap_core(self, clusterer) -> None:
        for method, op in _CORE_OP.items():
            if hasattr(clusterer, method):
                setattr(clusterer, method, self._core(op, getattr(clusterer, method)))

    def _core(self, op, fn):
        def traced(*args, **kwargs):
            if not self.enabled or self._cdepth:
                return fn(*args, **kwargs)
            size = len(args[0]) if op in CORE_BULK else 0
            self._cdepth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._cdepth = 0
                self.core_ns += dt
                if op in CORE_BULK:
                    if size:
                        slot = self.core_buckets[op][bucket_of(size)]
                        slot[0] += dt
                        slot[1] += size
                else:
                    self.core_samples[op].append(dt)

        return traced

    # ------------------------------------------------------------------
    # api (Engine / ShardedEngine facade, IngestSession)
    # ------------------------------------------------------------------

    def wrap_api(self, engine) -> None:
        for method in _API_METHODS:
            setattr(engine, method, self._api(getattr(engine, method)))

    def _api(self, fn):
        def traced(*args, **kwargs):
            if not self.enabled or self._adepth:
                return fn(*args, **kwargs)
            child0 = self.core_ns + self.router_ns
            self._adepth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._adepth = 0
                self.api_ns += dt
                self.api_child_ns += self.core_ns + self.router_ns - child0

        return traced

    def wrap_session(self, session) -> None:
        flush = session.flush

        def traced_flush():
            pending = session.pending_updates
            try:
                return flush()
            finally:
                if self.enabled and pending:
                    self.session_flushes += 1
                    self.session_flushed_points += pending

        session.flush = traced_flush

    # ------------------------------------------------------------------
    # shard (router + executor)
    # ------------------------------------------------------------------

    def wrap_shard(self, router) -> None:
        for method in ("insert_many", "delete_many"):
            setattr(router, method, self._router(True, getattr(router, method)))
        for method in ("cgroup_by_many", "clusters"):
            setattr(router, method, self._router(False, getattr(router, method)))
        executor = router.executor
        for method in ("map", "call"):
            setattr(executor, method, self._executor(getattr(executor, method)))

    def _router(self, update: bool, fn):
        def traced(*args, **kwargs):
            if not self.enabled or self._rdepth:
                return fn(*args, **kwargs)
            exec0 = self.exec_ns
            self._rdepth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._rdepth = 0
                self.router_ns += dt
                own = dt - (self.exec_ns - exec0)
                if update:
                    self.router_update_self_ns += own
                else:
                    self.router_query_self_ns += own

        return traced

    def _executor(self, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exec_ns += clock() - t0
                self.exec_calls += 1

        return traced

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, float]:
        """Per-layer metrics of the window (0 where a layer did no work)."""
        out: Dict[str, float] = {}
        for k in KERNEL_NAMES:
            calls = self.kernel_calls[k]
            out[f"kernels.{k}.s"] = self.kernel_ns[k] / 1e9
            out[f"kernels.{k}.calls"] = calls
            out[f"kernels.{k}.rows_per_call"] = (
                self.kernel_rows[k] / calls if calls else 0.0
            )
        out["kernels.busy_s"] = self.kernel_busy_ns / 1e9
        for op in CORE_SCALAR:
            samples = self.core_samples[op]
            scale = 1e6 if op == "clusters" else 1e3
            unit = "ms" if op == "clusters" else "us"
            out[f"core.{op}.{unit}"] = (
                median(samples) / scale if samples else 0.0
            )
        for op in CORE_BULK:
            for name, (ns, points) in self.core_buckets[op].items():
                out[f"core.{op}.us_per_point.{name}"] = (
                    ns / 1e3 / points if points else 0.0
                )
        out["core.kernel_frac"] = (
            self.kernel_in_core_ns / self.core_ns if self.core_ns else 0.0
        )
        out["api.self_frac"] = (
            (self.api_ns - self.api_child_ns) / self.api_ns if self.api_ns else 0.0
        )
        out["api.session.flushes"] = self.session_flushes
        out["api.session.points_per_flush"] = (
            self.session_flushed_points / self.session_flushes
            if self.session_flushes
            else 0.0
        )
        out["shard.router_self_s"] = self.router_update_self_ns / 1e9
        out["shard.merge_s"] = self.router_query_self_ns / 1e9
        out["shard.executor_s"] = self.exec_ns / 1e9
        out["shard.executor_calls"] = self.exec_calls
        out["shard.journal_max"] = self.journal_max
        return out


def sample_journal(tracer: Tracer, engine) -> None:
    """Record the largest per-shard recovery journal seen so far."""
    executor = getattr(engine.raw, "executor", None)
    if tracer.active and hasattr(executor, "journal_size"):
        size = max(executor.journal_size(i) for i in range(engine.shards))
        tracer.journal_max = max(tracer.journal_max, size)


def fragment_counters(engine) -> Dict[str, float]:
    """Fragment-cache counters and cell count from ``stats()``."""
    stats = engine.stats()
    frag = stats.fragment_cache
    cells = getattr(stats, "cells", None)
    if cells is None and hasattr(stats, "per_shard"):
        cells = sum(s.cells or 0 for s in stats.per_shard)
    return {
        "hits": frag.hits if frag else 0,
        "misses": frag.misses if frag else 0,
        "invalidations": frag.invalidations if frag else 0,
        "cells": cells or 0,
    }


def fragment_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "core.fragment_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.fragment_invalidations": after["invalidations"] - before["invalidations"],
        "core.cells": after["cells"],
    }


class ServiceEvents:
    """Service → api calls inside the server process, per asyncio task.

    Each entry is ``(task, kind, start, end)`` on ``time.monotonic_ns``
    — CLOCK_MONOTONIC, which the generator process reads too, so the
    two sides' timestamps compare directly.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.events: List[tuple] = []
        self._tasks: Dict[int, int] = {}
        self._alive: List[object] = []
        self._depth = 0

    def wrap(self, obj, method: str, kind: str) -> None:
        fn = getattr(obj, method)

        def traced(*args, **kwargs):
            if not self.tracer.enabled or self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth = 0
                self.events.append((self._task(), kind, t0, time.monotonic_ns()))

        setattr(obj, method, traced)

    def _task(self) -> int:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None
        key = id(task)
        if key not in self._tasks:
            self._tasks[key] = len(self._tasks)
            self._alive.append(task)  # keeps ids from being reused
        return self._tasks[key]
