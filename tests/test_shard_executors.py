"""Executor failure modes and lifecycle guarantees over the stream wire.

The stream executor's contract is easy to state and easy to silently
break: a worker death surfaces as a :class:`ReproError` (never a hang or
a desynchronized stream), any backend exception is relayed even when it
defeats pickling, ``close()`` is idempotent under double-close and after
worker death, and a hung local worker is killed — by ``close()`` and by
``restart_worker`` alike — instead of waited for.  These tests pin each
of those down on local (``process``) workers, plus the worker-isolation
property of the pinned ``spawn`` start method and the config validation
of the fault-tolerance knobs.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

import repro.api as api
from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError, ShardTimeoutError
from repro.shard import executors as executors_mod
from repro.shard import rpc as rpc_mod
from repro.shard.executors import (
    REAP_TIMEOUT,
    SerialShardExecutor,
    ShardWorkerLost,
    StreamShardExecutor,
)


def _config(**overrides) -> EngineConfig:
    knobs = dict(
        algorithm="full", eps=3.0, minpts=5, dim=2, shards=2,
        shard_executor="process",
    )
    knobs.update(overrides)
    return EngineConfig(**knobs)


def _points(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 50.0, size=(n, 2))


def _is_gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture(params=("pickle", "shm"))
def process_executor(request, monkeypatch):
    """A 2-shard local executor whose sessions have already moved bulk
    arrays, one way per parameter.  The ids are those of the two
    transports the stream wire replaced, whose payload paths the
    variants still cover: ``pickle`` sends the request arrays pickled
    in the control frame, ``shm`` sends them out-of-band as raw frames
    (the traffic the shared-memory plane used to carry)."""
    if request.param == "pickle":
        # With the parent's bulk-call declarations empty, every request
        # array rides the pickled control frame; replies, framed by the
        # unpatched spawned worker, stay raw.
        monkeypatch.setattr(rpc_mod, "BULK_CALLS", {})
    executor = StreamShardExecutor(_config(), 2)
    executor.map(
        [("ingest", (_points(200),)), ("ingest", (_points(200, seed=1),))]
    )
    yield executor
    executor.close()


# ----------------------------------------------------------------------
# Exception relay
# ----------------------------------------------------------------------


def test_picklable_exception_relays_and_worker_survives(process_executor):
    with pytest.raises(ReproError, match="injected fault"):
        process_executor.call(0, "fault")
    # The worker is alive and its stream in sync: the next call round-trips.
    assert process_executor.call(0, "ping") == 0
    assert process_executor.call(1, "ping") == 1


def test_unpicklable_exception_relays_as_repro_error(process_executor):
    with pytest.raises(ReproError) as excinfo:
        process_executor.call(0, "fault", "unpicklable")
    message = str(excinfo.value)
    assert "could not be relayed" in message
    # The fallback carries the original exception's repr and traceback.
    assert "injected fault carrying an unpicklable payload" in message
    assert "original traceback" in message
    # The failed relay did not kill the worker or desync the stream.
    assert process_executor.call(0, "ping") == 0


def test_exception_in_map_still_drains_other_shards(process_executor):
    pids = process_executor.map(
        [("ingest", (_points(40),)), ("ingest", (_points(40, seed=1),))]
    )
    assert all(len(p) == 40 for p in pids)
    with pytest.raises(ReproError, match="injected fault"):
        process_executor.map([("fault", ()), ("ping", ())])
    # Shard 1's reply was drained despite shard 0's failure; both
    # streams still alternate request/reply cleanly.
    assert process_executor.map([("ping", ()), ("ping", ())]) == [0, 1]


# ----------------------------------------------------------------------
# Worker death
# ----------------------------------------------------------------------


def test_worker_death_surfaces_as_repro_error_not_hang(process_executor):
    process_executor._procs[0].kill()
    process_executor._procs[0].join(timeout=5)
    with pytest.raises(ReproError, match="shard worker 0"):
        # Depending on buffer timing this surfaces at send (stream
        # closed) or at receive (died mid-call); both name the shard.
        for _ in range(3):
            process_executor.call(0, "ping")
    # The surviving shard is unaffected.
    assert process_executor.call(1, "ping") == 1


def test_close_after_worker_death_is_clean(process_executor):
    for proc in process_executor._procs:
        proc.kill()
        proc.join(timeout=5)
    process_executor.close()  # must not raise
    process_executor.close()  # and stays idempotent
    assert process_executor._procs == [None, None]
    assert process_executor._socks == [None, None]


def test_reply_views_are_read_only():
    executor = StreamShardExecutor(_config(), 2)
    try:
        result = executor.call(0, "ingest", _points(64))
        assert isinstance(result, np.ndarray)
        assert result.dtype == np.int64
        assert not result.flags.writeable
        empty = executor.call(0, "ingest", np.empty((0, 2)))
        assert len(empty) == 0
        # Each view owns its receive buffer: later traffic leaves it
        # intact.
        executor.call(0, "ingest", _points(64, seed=1))
        assert result.tolist() == list(range(64))
    finally:
        executor.close()


# ----------------------------------------------------------------------
# close() contracts
# ----------------------------------------------------------------------


def test_process_executor_double_close(process_executor):
    process_executor.close()
    process_executor.close()
    # close() releases every Process handle (proc.close()) after the
    # join/terminate/kill escalation, so no zombie or dead handle is
    # retained — the slots are cleared outright.
    assert process_executor._procs == [None, None]


def test_serial_executor_close_closes_engines_and_is_idempotent():
    executor = SerialShardExecutor(_config(shard_executor="serial"), 2)
    backends = list(executor._backends)
    assert executor.transport == "inline"
    executor.map([("ping", ()), ("ping", ())])
    executor.close()
    executor.close()
    assert all(backend.engine.closed for backend in backends)


def test_serial_executor_use_after_close_raises():
    executor = SerialShardExecutor(_config(shard_executor="serial"), 2)
    executor.close()
    with pytest.raises(ReproError, match="closed"):
        executor.call(0, "ping")
    with pytest.raises(ReproError, match="closed"):
        executor.map([("ping", ()), None])


def test_process_executor_use_after_close_raises(process_executor):
    process_executor.close()
    with pytest.raises(ReproError, match="closed"):
        process_executor.call(0, "ping")
    with pytest.raises(ReproError, match="closed"):
        process_executor.map([("ping", ()), ("ping", ())])
    with pytest.raises(ReproError, match="closed"):
        process_executor.restart_worker(0)


def test_failed_construction_does_not_leak_workers_or_segments():
    # crash:ping:1 kills every worker at the construction liveness ping,
    # so __init__ itself fails — and must tear down whatever it already
    # started instead of leaking processes and their streams.
    config = _config(shard_fault_plan="crash:ping:1")
    with pytest.raises(ReproError, match="shard worker"):
        StreamShardExecutor(config, 2)
    deadline = time.monotonic() + REAP_TIMEOUT
    while time.monotonic() < deadline:
        stragglers = [
            proc
            for proc in mp.active_children()
            if proc.name.startswith("repro-shard-")
        ]
        if not stragglers:
            break
        time.sleep(0.05)
    assert stragglers == []


def test_close_with_hung_worker_terminates_promptly():
    # The construction ping is each incarnation's ping #1, so the fault
    # arms on the first user-issued ping — in every incarnation.  After
    # the timeout the stream is poisoned; restart_worker and close()
    # must both kill the hung worker instead of waiting out its hang.
    config = _config(
        shard_fault_plan="hang:ping:2:shard=0:incarnation=*",
        shard_call_timeout=0.5,
    )
    executor = StreamShardExecutor(config, 2)
    try:
        with pytest.raises(ShardTimeoutError, match="shard worker 0"):
            executor.call(0, "ping")
        # The poisoned stream refuses further traffic until a restart.
        with pytest.raises(ShardWorkerLost, match="poisoned"):
            executor.call(0, "ping")
        hung_pid = executor._procs[0].pid
        start = time.monotonic()
        executor.restart_worker(0)
        assert time.monotonic() - start < executor._startup_timeout()
        assert time.monotonic() - start < REAP_TIMEOUT + 5.0
        assert _is_gone(hung_pid)
        assert executor.restart_count(0) == 1
        # The respawned worker hangs at its own first user ping.
        with pytest.raises(ShardTimeoutError, match="shard worker 0"):
            executor.call(0, "ping")
        start = time.monotonic()
    finally:
        executor.close()
    assert time.monotonic() - start < REAP_TIMEOUT + 5.0
    assert executor._procs == [None, None]


def test_restart_worker_replaces_a_dead_worker(process_executor):
    process_executor._procs[0].kill()
    process_executor._procs[0].join(timeout=5)
    with pytest.raises(ReproError, match="shard worker 0"):
        for _ in range(3):
            process_executor.call(0, "ping")
    assert process_executor.restart_count(0) == 0
    process_executor.restart_worker(0)
    assert process_executor.restart_count(0) == 1
    # The fresh worker answers on a fresh, unpoisoned stream; the
    # untouched shard never noticed.
    assert process_executor.call(0, "ping") == 0
    assert process_executor.call(1, "ping") == 1


def test_sharded_engine_close_reaches_per_shard_engines():
    engine = api.open(
        algorithm="full", eps=3.0, minpts=5, dim=2, shards=2
    )
    backends = list(engine._router.executor._backends)
    engine.ingest(_points(50))
    engine.close()
    assert all(backend.engine.closed for backend in backends)


# ----------------------------------------------------------------------
# Start method / worker isolation
# ----------------------------------------------------------------------


def test_spawn_workers_rebuild_state_fresh(monkeypatch):
    monkeypatch.setattr(executors_mod, "WORKER_SENTINEL", "mutated-in-parent")
    executor = StreamShardExecutor(_config(), 2)
    try:
        assert executor.start_method == "spawn"
        assert executor.transport == "stream"
        infos = executor.map([("runtime_info", ()), ("runtime_info", ())])
        for index, info in enumerate(infos):
            assert info["index"] == index
            assert info["pid"] != os.getpid()
            # spawn re-imports the module in the worker: the parent's
            # mutation must NOT be visible — backends are rebuilt fresh.
            assert info["sentinel"] == "fresh"
    finally:
        executor.close()


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------


def test_removed_wire_knobs_are_rejected():
    """One wire, no knobs: the former transport and start-method fields
    are unknown configuration, not silently ignored."""
    for knob in ("shard_transport", "shard_start_method"):
        with pytest.raises(ConfigError, match="invalid engine configuration"):
            api.open(**dict(
                algorithm="full", eps=3.0, minpts=5, shards=2,
                shard_executor="process", **{knob: "spawn"},
            ))


def test_fault_tolerance_knobs_require_sharding():
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_call_timeout=5.0)
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_max_restarts=1)
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_fault_plan="crash:ingest:1")


def test_fault_tolerance_knob_values_are_validated():
    with pytest.raises(ConfigError, match="shard_call_timeout"):
        _config(shard_call_timeout=0)
    with pytest.raises(ConfigError, match="shard_call_timeout"):
        _config(shard_call_timeout=float("inf"))
    with pytest.raises(ConfigError, match="shard_max_restarts"):
        _config(shard_max_restarts=-1)
    with pytest.raises(ConfigError, match="shard_max_restarts"):
        _config(shard_max_restarts=1.5)
    with pytest.raises(ConfigError, match="process"):
        _config(shard_executor="serial", shard_fault_plan="crash:ingest:1")
    with pytest.raises(ConfigError, match="fault kind"):
        _config(shard_fault_plan="teleport:ingest:1")
    with pytest.raises(ConfigError, match="call index"):
        _config(shard_fault_plan="crash:ingest:0")


def test_call_timeout_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_CALL_TIMEOUT", raising=False)
    assert _config().resolved_shard_call_timeout == 60.0
    assert _config(shard_call_timeout=2.5).resolved_shard_call_timeout == 2.5
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "12")
    assert _config().resolved_shard_call_timeout == 12.0
    # Explicit knob beats the environment.
    assert _config(shard_call_timeout=2.5).resolved_shard_call_timeout == 2.5
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "-3")
    with pytest.raises(ConfigError, match="REPRO_SHARD_CALL_TIMEOUT"):
        _config().resolved_shard_call_timeout
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "soon")
    with pytest.raises(ConfigError, match="REPRO_SHARD_CALL_TIMEOUT"):
        _config().resolved_shard_call_timeout


def test_max_restarts_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_MAX_RESTARTS", raising=False)
    assert _config().resolved_shard_max_restarts == 3
    assert _config(shard_max_restarts=0).resolved_shard_max_restarts == 0
    monkeypatch.setenv("REPRO_SHARD_MAX_RESTARTS", "7")
    assert _config().resolved_shard_max_restarts == 7
    assert _config(shard_max_restarts=1).resolved_shard_max_restarts == 1
    monkeypatch.setenv("REPRO_SHARD_MAX_RESTARTS", "many")
    with pytest.raises(ConfigError, match="REPRO_SHARD_MAX_RESTARTS"):
        _config().resolved_shard_max_restarts


def test_fault_plan_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert _config().resolved_shard_fault_plan is None
    plan = "crash:ingest:1"
    assert _config(shard_fault_plan=plan).resolved_shard_fault_plan == plan
    monkeypatch.setenv("REPRO_FAULT_PLAN", "hang:ping:1")
    assert _config().resolved_shard_fault_plan == "hang:ping:1"
    assert _config(shard_fault_plan=plan).resolved_shard_fault_plan == plan
    # The serial executor has no worker processes to inject into.
    serial = _config(shard_executor="serial")
    assert serial.resolved_shard_fault_plan is None
    monkeypatch.setenv("REPRO_FAULT_PLAN", "bogus")
    with pytest.raises(ConfigError, match="REPRO_FAULT_PLAN"):
        _config().resolved_shard_fault_plan
