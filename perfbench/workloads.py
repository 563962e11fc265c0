"""The closed-loop workloads: paper-stream, bulk-churn, sharded-churn.

One caller drives the engine in-process and waits for each call.  Set
-up (open + bulk-load of the base population) is repeated
:data:`SETUP_REPEATS` times and its median reported; the last engine
opened runs the measured rounds (see ``inputs.py``).  Only the ops of
the rounds are inside the window; the untimed resets between rounds
restore the base population.  Every call is timed on the wall clock and
on the CPU clocks of this process and the shard workers it started
(see ``cpuclock.py``).
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Dict, List, Optional

import repro.api as api

import calibrate
import cpuclock
import inputs
from calibrate import Calibrator
from cpuclock import CpuClock
from inputs import ALGORITHM, DIM, EPS, MINPTS, RHO
from tracing import Tracer, fragment_counters, fragment_metrics, sample_journal

clock = time.perf_counter_ns

SETUP_REPEATS = 5
WARMUP_ROUNDS = 1
SHARDS = 2

#: Measured rounds per ``--seconds``: the rate at which a 2-cpu
#: reference box completes rounds.  A run does a fixed amount of work,
#: so its sample counts, its final state and its memory (which grows
#: with the number of updates applied) do not depend on how fast the
#: program is; a faster program simply finishes sooner.
ROUNDS_PER_SECOND = {"paper-stream": 6.0, "bulk-churn": 7.0, "sharded-churn": 2.5}

def open_engine(shard_executor: Optional[str] = None):
    knobs = dict(algorithm=ALGORITHM, eps=EPS, minpts=MINPTS, rho=RHO, dim=DIM)
    if shard_executor is not None:
        knobs.update(shards=SHARDS, shard_executor=shard_executor)
    return api.open(**knobs)


class LiveSet:
    """The generator's own view of the live ids and their coordinates."""

    def __init__(self, ids: List[int], points: List[tuple]) -> None:
        self.alive = list(ids)
        self.coords = dict(zip(ids, points))
        self.base = set(ids)
        self.deleted_base: List[tuple] = []

    def add(self, pid: int, point) -> None:
        self.alive.append(pid)
        self.coords[pid] = point

    def take(self, u: float) -> int:
        """Remove and return the live id at fraction ``u`` (swap-pop)."""
        return self.take_point(u)[0]

    def take_point(self, u: float):
        """:meth:`take`, also returning the removed point."""
        alive = self.alive
        j = int(u * len(alive))
        pid = alive[j]
        alive[j] = alive[-1]
        alive.pop()
        point = self.coords.pop(pid)
        if pid in self.base:
            self.base.discard(pid)
            self.deleted_base.append(point)
        return pid, point

    def untake(self, pid: int, point) -> None:
        """Undo :meth:`take_point` for a delete that was refused."""
        self.add(pid, point)
        if point in self.deleted_base:
            self.deleted_base.remove(point)
            self.base.add(pid)

    def pick(self, u: float) -> int:
        return self.alive[int(u * len(self.alive))]

    def reset(self, engine) -> None:
        """Untimed: drop the round's insertions, restore deleted base points."""
        inserted = [pid for pid in self.alive if pid not in self.base]
        if inserted:
            engine.delete_many(inserted)
            for pid in inserted:
                del self.coords[pid]
        restored = self.deleted_base
        self.alive = [pid for pid in self.alive if pid in self.base]
        self.deleted_base = []
        if restored:
            for pid, point in zip(engine.ingest(restored), restored):
                self.alive.append(pid)
                self.coords[pid] = point
                self.base.add(pid)


class Record:
    """Latencies and counters of one measured window.

    Each op class keeps its wall-clock latencies (ns) and, in the
    ``*_cpu`` list, the CPU time (ns) the system under test spent on
    the same calls; ``cpu_ns`` is that CPU time over the whole window.
    """

    def __init__(self) -> None:
        self.update: List[int] = []
        self.query: List[int] = []
        self.snapshot: List[int] = []
        self.update_cpu: List[int] = []
        self.query_cpu: List[int] = []
        self.snapshot_cpu: List[int] = []
        #: CPU times scaled by their round's calibration factor.
        self.update_scaled: List[float] = []
        self.query_scaled: List[float] = []
        self.snapshot_scaled: List[float] = []
        self.points_updated = 0
        self.ops = 0
        self.failed = 0
        self.window_ns = 0
        self.cpu_ns = 0
        self.cpu_scaled_ns = 0.0

    def add(self, cls: str, wall_ns: int, cpu_ns: float) -> None:
        getattr(self, cls).append(wall_ns)
        getattr(self, cls + "_cpu").append(cpu_ns)

    def merge(self, part: "Record", factor: float) -> None:
        """Append ``part`` (one round), its CPU times scaled by ``factor``."""
        for cls in ("update", "query", "snapshot"):
            getattr(self, cls).extend(getattr(part, cls))
            used = getattr(part, cls + "_cpu")
            getattr(self, cls + "_cpu").extend(used)
            getattr(self, cls + "_scaled").extend(v * factor for v in used)
        self.points_updated += part.points_updated
        self.ops += part.ops
        self.failed += part.failed
        self.window_ns += part.window_ns
        self.cpu_ns += part.cpu_ns
        self.cpu_scaled_ns += part.cpu_ns * factor


def timed(cpu: CpuClock, call, *args):
    """``call(*args)`` with its wall and CPU time in ns."""
    w0, c0 = clock(), cpu.now()
    result = call(*args)
    c1, w1 = cpu.now(), clock()
    return result, w1 - w0, c1 - c0


def setup(data: inputs.Dataset, shard_executor: Optional[str], cal: Calibrator):
    """Open + preload :data:`SETUP_REPEATS` times; keep the last engine.

    Each set-up is timed in CPU seconds of this process and the workers
    it starts, with the calibration factor of the samples around it;
    the last engine's processes (not the calibration helper) are
    watched by the returned clock for the rest of the phase.
    """
    times = []
    engine = ids = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        gc.collect()
        before = cal.sample()
        start = cpuclock.mark()
        engine = open_engine(shard_executor)
        ids = engine.ingest(data.base)
        used = cpuclock.seconds_since(start)
        times.append((used, calibrate.scale(before, cal.sample())))
    workers = [pid for pid in cpuclock.descendants() if pid != cal.proc.pid]
    return engine, LiveSet(ids, data.base), times, CpuClock(workers)


def play_paper(engine, live: LiveSet, ops, rec: Record, cpu: CpuClock) -> None:
    """One paper-stream round: one op per call."""
    start, cpu_start = clock(), cpu.now()
    for kind, arg in ops:
        if kind == "insert":
            pid, wall, used = timed(cpu, engine.insert, arg)
            rec.add("update", wall, used)
            live.add(pid, arg)
            rec.points_updated += 1
        elif kind == "delete":
            pid = live.take(arg)
            _, wall, used = timed(cpu, engine.delete, pid)
            rec.add("update", wall, used)
            rec.points_updated += 1
        elif kind == "query":
            pids = [live.pick(u) for u in arg]
            _, wall, used = timed(cpu, engine.cgroup_by, pids)
            rec.add("query", wall, used)
        else:
            _, wall, used = timed(cpu, engine.snapshot)
            rec.add("snapshot", wall, used)
        rec.ops += 1
    rec.cpu_ns += cpu.now() - cpu_start
    rec.window_ns += clock() - start


def play_bulk(engine, live: LiveSet, batches, rec: Record, cpu: CpuClock) -> None:
    """One bulk round: per batch ingest + delete_many, a query, maybe a snapshot."""
    start, cpu_start = clock(), cpu.now()
    for batch in batches:
        ids, wall, used = timed(cpu, engine.ingest, batch.points)
        for pid, point in zip(ids, batch.points):
            live.add(pid, point)
        victims = [live.take(u) for u in batch.delete_u]
        _, wall2, used2 = timed(cpu, engine.delete_many, victims)
        rec.add("update", wall + wall2, used + used2)
        rec.points_updated += len(ids) + len(victims)
        pids = [live.pick(u) for u in batch.query_u]
        _, wall, used = timed(cpu, engine.cgroup_by_many, pids)
        rec.add("query", wall, used)
        rec.ops += 3
        if batch.snapshot:
            _, wall, used = timed(cpu, engine.snapshot)
            rec.add("snapshot", wall, used)
            rec.ops += 1
    rec.cpu_ns += cpu.now() - cpu_start
    rec.window_ns += clock() - start


def run_rounds(
    engine, live: LiveSet, rounds, play, count: int, tracer: Tracer, cpu: CpuClock,
    cal: Optional[Calibrator] = None,
) -> Record:
    """:data:`WARMUP_ROUNDS` untimed rounds, then ``count`` measured ones.

    The warm-up lets lazily built indexes and the allocator settle
    before timing; each round is followed by the untimed reset and, if
    ``cal`` is given, a reference-job sample; the samples before and
    after a round give its calibration factor (1 without ``cal``).
    """
    for r in range(WARMUP_ROUNDS):
        play(engine, live, rounds[r % len(rounds)], Record(), cpu)
        live.reset(engine)
    rec = Record()
    before = cal.sample() if cal is not None else None
    for r in range(WARMUP_ROUNDS, WARMUP_ROUNDS + count):
        part = Record()
        tracer.enabled = tracer.active
        play(engine, live, rounds[r % len(rounds)], part, cpu)
        sample_journal(tracer, engine)
        tracer.enabled = False
        live.reset(engine)
        sample_journal(tracer, engine)
        if cal is None:
            rec.merge(part, 1.0)
            continue
        after = cal.sample()
        rec.merge(part, calibrate.scale(before, after))
        before = after
    return rec


def round_count(workload: str, seconds: float) -> int:
    """Rounds measured for ``--seconds``: what the reference box does then."""
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def measure(
    workload: str, data: inputs.Dataset, seed: int, seconds: float, traced: bool,
    cal: Calibrator,
) -> Dict:
    """One phase of a closed-loop workload; returns the raw result."""
    sharded = workload == "sharded-churn"
    tracer = Tracer()
    tracer.active = traced
    if workload == "paper-stream":
        rounds, play = inputs.paper_rounds(data, seed), play_paper
    else:
        rounds, play = inputs.bulk_rounds(data, seed), play_bulk
    engine, live, setup_times, cpu = setup(data, "process" if sharded else None, cal)
    info = {"setup_times": setup_times}
    try:
        if sharded:
            info["shard_executor"] = engine.config.resolved_shard_executor
            info["shard_transport"] = engine.raw.executor.transport
            info["shard_start_method"] = engine.raw.executor.start_method
        if tracer.active:
            _instrument(tracer, engine, sharded)
        before = fragment_counters(engine)
        tracer.reset()
        gc.collect()
        rec = run_rounds(
            engine, live, rounds, play, round_count(workload, seconds), tracer, cpu, cal
        )
        layers = {}
        if tracer.active:
            layers = tracer.report()
            layers.update(fragment_metrics(before, fragment_counters(engine)))
            if sharded:
                stats = engine.stats()
                layers["shard.replication"] = stats.replicas / stats.points
                layers["shard.restarts"] = engine.restarts
        info["restarts"] = engine.restarts if sharded else 0
        snapshot = engine.snapshot()
        clusters = [set(c) for c in snapshot.clusters]
        noise = set(snapshot.noise)
    finally:
        engine.close()
    # Peak memory of the system under test, read before the serial
    # transport-tax rerun below adds its own engine to this process:
    # this process, plus the largest (now reaped) shard worker.
    info["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF) + (
        _maxrss_mb(resource.RUSAGE_CHILDREN) if sharded else 0.0
    )
    if tracer.active and sharded:
        layers["shard.transport_tax"] = _transport_tax(
            data, rounds, rec, layers["shard.executor_s"],
            max(1, round_count(workload, seconds) // 2),
        )
    return {
        "record": rec,
        "info": info,
        "layers": layers,
        "coords": live.coords,
        "clusters": clusters,
        "noise": noise,
    }


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _instrument(tracer: Tracer, engine, sharded: bool) -> None:
    tracer.install_kernels()
    tracer.wrap_api(engine)
    if sharded:
        tracer.wrap_shard(engine.raw)
    else:
        tracer.wrap_core(engine.raw)


def _transport_tax(data, rounds, rec: Record, executor_s: float, count: int) -> float:
    """Executor time per batch against the serial executor's, same ops."""
    serial = Tracer()
    serial.active = True
    engine = open_engine("serial")
    try:
        serial.wrap_shard(engine.raw)
        live = LiveSet(engine.ingest(data.base), data.base)
        serial_rec = run_rounds(engine, live, rounds, play_bulk, count, serial, CpuClock())
    finally:
        engine.close()
    per_batch = executor_s / len(rec.update)
    serial_per_batch = serial.exec_ns / 1e9 / len(serial_rec.update)
    return per_batch / serial_per_batch
