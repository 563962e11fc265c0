"""service-open: an open-loop load generator against ``python -m repro serve``.

The server runs in its own process; this generator process drives it
over :data:`CONNS` connections with requests drawn from the fitted
``default_service_mix``, one every ``1/RATE`` seconds.  A request is sent
when it is due whatever the server is doing, and its latency runs from
the moment it was due, so a stall shows up in every request it
delays.  The generator also reads the server process's CPU clock when
it sends a request and when a response arrives, and charges each
request its share of the server CPU time used while it was in flight;
the gated metrics report that cost (see ``cpuclock.py``).  Each connection deletes and queries only ids it inserted
itself (or its half of the base population), so per-connection FIFO
order keeps every op valid.

Phases: set-up (start the server, bulk-load the base population over
the wire) repeated :data:`SETUP_REPEATS` times, then the measured
window at the fixed offered rate :data:`RATE`, well below the knee, so
the median request does not queue behind another and the tails show
the requests that do.  The window runs in :data:`SEGMENT_SECONDS`
segments separated by untimed resets to the base population.

In a traced phase the server is started through ``serve_traced.py``,
which times the service's calls into the engine; this module matches
those calls to requests and splits each latency into the time before
the engine call and the time after it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.service import ServiceClient
from repro.errors import ReproError
from repro.service.client import ServiceError

import calibrate
import cpuclock
import inputs
from calibrate import Calibrator
from cpuclock import CpuClock
from inputs import ALGORITHM, DIM, EPS, MINPTS, RHO
from stats import median, percentile, tail_percentile
from workloads import LiveSet, Record

CONNS = 2
SETUP_REPEATS = 5
PRELOAD_CHUNK = 2_000
#: Offered ops/s.  On a 2-cpu box the engine is busy about a quarter of
#: the time at this rate; at 160 ops/s it is busy about half the time,
#: still without refusals, and the p95 update latency has quadrupled.
RATE = 80.0
#: The schedule runs in segments of this many seconds.  After each, the
#: generator waits for every response and resets the live set to the
#: base population over the wire (untimed), as the closed loops do
#: between rounds: the fitted mix inserts about 1,300 more points per
#: second than it deletes, and without resets the live set tripled
#: during a run and the median latency drifted with it.
SEGMENT_SECONDS = 2.0
#: Reference-job samples taken after each segment's reset.
CAL_SAMPLES = 3
#: A generator running later than this at its tail invalidates the run.
GEN_LAG_LIMIT_MS = 20.0

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)


def _server_argv(traced: bool) -> List[str]:
    entry = [os.path.join(PERFBENCH, "serve_traced.py")] if traced else ["-m", "repro"]
    return [sys.executable, *entry, "serve", "--host", "127.0.0.1", "--port", "0",
            "--algorithm", ALGORITHM, "--dim", str(DIM), "--eps", repr(EPS),
            "--minpts", str(MINPTS), "--rho", repr(RHO)]


class Server:
    """One server process, started and stopped by the generator."""

    def __init__(self, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.proc = subprocess.Popen(
            _server_argv(traced), cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            line = self._expect("serving on ")
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise
        host_port = line.split("serving on ", 1)[1].split()[0]
        host, _, port = host_port.rpartition(":")
        self.host, self.port = host, int(port)

    def _expect(self, prefix: str) -> str:
        for line in self.proc.stdout:
            if prefix in line:
                return line
        raise RuntimeError(f"server exited before printing {prefix!r}")

    def control(self, command: str) -> None:
        """Traced servers only: switch tracing on/off, wait for the ack."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        self._expect(f"perfbench-trace {command}")

    def stop(self) -> Optional[dict]:
        """Graceful stop (SIGINT drains); returns the trace report, if any."""
        report = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            if line.startswith("perfbench-trace-report "):
                report = json.loads(line.split(" ", 1)[1])
        return report


class Result:
    """One request: wall stamps (``time.monotonic_ns``) and its share of
    the server's CPU time (ns, see :func:`_attribute`)."""

    __slots__ = ("kind", "conn", "due", "send", "recv", "cpu", "points", "code", "pids")

    def __init__(self, kind, conn, due, send, pids) -> None:
        self.kind, self.conn, self.due, self.send = kind, conn, due, send
        self.recv = 0
        self.cpu = 0.0
        self.points = 0
        self.code = 0
        self.pids = pids


def _done(res: Result, live: LiveSet, points, server_cpu: CpuClock, events, fut) -> None:
    events.append((server_cpu.now(), res))
    res.recv = time.monotonic_ns()
    if fut.cancelled():
        res.code = -1
        return
    exc = fut.exception()
    if exc is not None:
        res.code = exc.code if isinstance(exc, ServiceError) else -1
        if res.kind == "delete" and res.code == 429:
            for pid, point in zip(res.pids, points):
                live.untake(pid, point)
        return
    response = fut.result()
    if res.kind == "ingest":
        for pid, point in zip(response["pids"], points):
            live.add(pid, point)
        res.points = len(points)
    elif res.kind == "delete":
        res.points = len(res.pids)


async def _run_schedule(clients, lives, requests, server_cpu: CpuClock):
    """Send every request when due; wait for every response.

    Returns the results and the server's CPU time over the segment.
    """
    start = time.monotonic_ns() + 20_000_000
    cpu_start = server_cpu.now()
    futures, results, events = [], [], []
    for req in requests:
        due = start + int((req.due - requests[0].due) * 1e9)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        live = lives[req.conn]
        params, points, pids = {}, None, None
        if req.kind == "ingest":
            points = req.points
            params["points"] = [list(p) for p in points]
        elif req.kind == "delete":
            count = min(req.size, len(live.alive) - 1)
            taken = [live.take_point(u) for u in req.u[:count]]
            pids = [pid for pid, _ in taken]
            points = [point for _, point in taken]
            params["pids"] = pids
        elif req.kind == "cgroup_by":
            params["pids"] = [live.pick(u) for u in req.u]
        res = Result(req.kind, req.conn, due, time.monotonic_ns(), pids)
        events.append((server_cpu.now(), res))
        fut = clients[req.conn].submit(req.kind, **params)
        fut.add_done_callback(
            functools.partial(_done, res, live, points, server_cpu, events)
        )
        futures.append(fut)
        results.append(res)
    await asyncio.gather(*futures, return_exceptions=True)
    _attribute(events)
    return results, server_cpu.now() - cpu_start


def _attribute(events) -> None:
    """Split the server's CPU time among the requests in flight.

    ``events`` holds ``(server CPU clock, request)`` at each send and
    each response, in order.  The CPU used between two events goes in
    equal shares to the requests in flight then, so no CPU is counted
    twice when requests overlap, and a request that the server works on
    alone is charged exactly what it cost.
    """
    in_flight: set = set()
    last = None
    for cpu, res in events:
        if in_flight:
            share = (cpu - last) / len(in_flight)
            for r in in_flight:
                r.cpu += share
        last = cpu
        if res in in_flight:
            in_flight.remove(res)
        else:
            in_flight.add(res)


async def _preload(server: Server, data: inputs.Dataset):
    clients = [await ServiceClient.connect(server.host, server.port) for _ in range(CONNS)]
    ids: List[int] = []
    for i in range(0, len(data.base), PRELOAD_CHUNK):
        chunk = data.base[i:i + PRELOAD_CHUNK]
        ids.extend((await clients[0].ingest(chunk))["pids"])
    await clients[0].flush()
    lives = [
        LiveSet(ids[c::CONNS], data.base[c::CONNS]) for c in range(CONNS)
    ]
    return clients, lives


async def _reset(clients, lives) -> None:
    """Untimed: drop each connection's insertions, restore its base points."""
    for client, live in zip(clients, lives):
        inserted = [pid for pid in live.alive if pid not in live.base]
        for i in range(0, len(inserted), PRELOAD_CHUNK):
            await client.delete(inserted[i:i + PRELOAD_CHUNK])
        for pid in inserted:
            del live.coords[pid]
        live.alive = [pid for pid in live.alive if pid in live.base]
        restored, live.deleted_base = live.deleted_base, []
        for i in range(0, len(restored), PRELOAD_CHUNK):
            chunk = restored[i:i + PRELOAD_CHUNK]
            for pid, point in zip((await client.ingest(chunk))["pids"], chunk):
                live.add(pid, point)
                live.base.add(pid)
        await client.flush()


async def _close(clients) -> None:
    """End each session politely so the server's drain finds none open."""
    for client in clients:
        try:
            await client.bye()
        except ReproError:
            pass  # the server is already gone; stop() reaps it
        await client.aclose()
    await asyncio.sleep(0.2)


async def _session(data, seed, seconds, traced, cal: Calibrator) -> Dict:
    setup_times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            await _close(clients)
            server.stop()
        before = cal.sample()
        start = cpuclock.mark()
        server = Server(traced)
        clients, lives = await _preload(server, data)
        used = cpuclock.seconds_since(start)
        setup_times.append((used, calibrate.scale(before, cal.sample())))
    server_cpu = CpuClock([server.proc.pid], own=False)
    requests = inputs.service_schedule(data, seed, RATE, seconds, CONNS)
    per_segment = int(RATE * SEGMENT_SECONDS)
    segments, factors, server_cpu_ns = [], [], []
    try:
        before = cal.sample(CAL_SAMPLES)
        for i in range(0, len(requests), per_segment):
            if traced:
                server.control("start")
            results, used = await _run_schedule(
                clients, lives, requests[i:i + per_segment], server_cpu
            )
            segments.append(results)
            server_cpu_ns.append(used)
            if traced:
                server.control("stop")
            await _reset(clients, lives)
            after = cal.sample(CAL_SAMPLES)
            factors.append(calibrate.scale(before, after))
            before = after
        snap = await clients[0].snapshot()
    finally:
        await _close(clients)
        report = server.stop()
    coords = {}
    for live in lives:
        coords.update(live.coords)
    return {
        "setup_times": setup_times,
        "segments": segments,
        "factors": factors,
        "server_cpu_ns": server_cpu_ns,
        "report": report,
        "coords": coords,
        "clusters": [set(c) for c in snap["clusters"]],
        "noise": set(snap["noise"]),
    }


def measure(
    data: inputs.Dataset, seed: int, seconds: float, traced: bool, cal: Calibrator
) -> Dict:
    raw = asyncio.run(_session(data, seed, seconds, traced, cal))
    segments: List[List[Result]] = raw["segments"]
    fixed = [r for segment in segments for r in segment]
    spans = [(min(r.due for r in s), max(r.recv for r in s)) for s in segments]
    rec = Record()
    for segment, span, used_ns, factor in zip(
        segments, spans, raw["server_cpu_ns"], raw["factors"]
    ):
        part = Record()
        for r in segment:
            part.ops += 1
            if r.code != 0:
                part.failed += 1  # 429s included: a refusal is a failed op
                continue
            latency, used = r.recv - r.due, r.cpu
            if r.kind in ("ingest", "delete"):
                part.add("update", latency, used)
                part.points_updated += r.points
            elif r.kind == "cgroup_by":
                part.add("query", latency, used)
            else:
                part.add("snapshot", latency, used)
        part.window_ns = span[1] - span[0]
        part.cpu_ns = used_ns
        rec.merge(part, factor)
    refused = sum(1 for r in fixed if r.code == 429)
    lag_ms = [(r.send - r.due) / 1e6 for r in fixed]
    rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
    info = {
        "setup_times": raw["setup_times"],
        "offered_ops_s": RATE,
        "refused": refused,
        "gen_lag_tail_ms": percentile(lag_ms, tail_percentile(len(lag_ms))),
        "gen_lag_limit_ms": GEN_LAG_LIMIT_MS,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
    }
    layers = {}
    if traced and raw["report"] is not None:
        layers = _service_layers(raw["report"], fixed, spans, refused, lag_ms)
    return {
        "record": rec,
        "info": info,
        "layers": layers,
        "coords": raw["coords"],
        "clusters": raw["clusters"],
        "noise": raw["noise"],
    }


def _service_layers(report: Dict, fixed: List[Result], spans, refused: int, lag_ms) -> Dict:
    """Server-side layer metrics plus the pre/post-engine latency split."""
    layers = dict(report["layers"])
    groups: Dict[int, List[list]] = {}
    open_group: Dict[int, list] = {}
    for task, kind, t0, t1 in sorted(report["events"], key=lambda e: e[2]):
        group = open_group.get(task) or [t0, t1, None]
        group[1] = t1
        if kind == "flush":
            open_group[task] = group
            continue
        group[2] = kind
        groups.setdefault(task, []).append(group)
        open_group.pop(task, None)
    pre, post = [], []
    unmatched = 0
    for conn in range(CONNS):
        sent = [r for r in fixed if r.conn == conn and r.code != 429]
        kinds = [r.kind for r in sent]
        match = next(
            (g for g in groups.values() if [x[2] for x in g] == kinds), None
        )
        if match is None:
            unmatched += len(sent)
            continue
        for r, (start, end, _) in zip(sent, match):
            pre.append((start - r.send) / 1e3)
            post.append((r.recv - end) / 1e3)
    busy = sum(
        min(t1, end) - max(t0, start)
        for start, end in spans
        for _, _, t0, t1 in report["events"]
        if t1 > start and t0 < end
    )
    tail = tail_percentile(len(pre))
    layers.update({
        "service.pre_engine_us.p50": median(pre) if pre else 0.0,
        "service.pre_engine_us.tail": percentile(pre, tail) if pre else 0.0,
        "service.post_engine_us.p50": median(post) if post else 0.0,
        "service.post_engine_us.tail": percentile(post, tail) if post else 0.0,
        "service.engine_busy_frac": busy / sum(end - start for start, end in spans),
        "service.refused": refused,
        "service.gen_lag_tail_ms": percentile(lag_ms, tail),
        "service.unmatched": unmatched,
    })
    return layers
