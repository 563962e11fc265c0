"""Shard executors: where the per-shard backends actually live.

The router never talks to a :class:`repro.shard.backend.ShardBackend`
directly; it issues ``(method, args)`` calls through an executor, so
every deployment shares one routing and one merge path:

* :class:`SerialShardExecutor` holds the backends in-process and runs
  calls inline — deterministic, debuggable, zero transport cost; the
  default, and what the differential-testing harness drives.
* :class:`StreamShardExecutor` puts one worker per shard behind a
  framed byte stream (:mod:`repro.shard.rpc`) and overlaps the
  per-shard work of every fan-out (:meth:`~StreamShardExecutor.map`
  writes all requests before reading any reply).  It serves both
  out-of-process executor kinds, which differ only in how a session
  is opened and reopened: ``process`` spawns one local worker per
  shard under the pinned ``spawn`` start method (nothing of the
  parent's kernel-registry or jit state is inherited) on one end of a
  ``socket.socketpair()``, and restarts it by reap and respawn;
  ``tcp`` connects to externally launched workers at the
  ``shard_workers`` addresses and restarts by reconnecting.  Either
  way the worker rebuilds its backend from the session's hello, and
  bulk numpy payloads cross as raw frames, never pickled.

**Failure surface.**  Every reply wait carries a deadline
(``EngineConfig.shard_call_timeout``), so a hung worker raises
:class:`repro.errors.ShardTimeoutError` instead of hanging the parent,
and a dead worker or reset connection raises :class:`ShardWorkerLost`
— both within bounded time, never a hang.  After either failure the
shard's stream is *poisoned* (a late reply from a timed-out worker
would desynchronize the request/reply alternation), and
:meth:`StreamShardExecutor.restart_worker` is the recovery primitive:
drop the session (a local straggler is terminated, then SIGKILLed if
that does not land), open a fresh one with a bumped *incarnation*
number, and fail fast on its liveness ping.  The
:class:`repro.shard.supervisor.ShardSupervisor` drives it and replays
the shard's journal to rebuild state exactly.

Exceptions raised inside a backend propagate to the caller unchanged
when they pickle; an exception that defeats pickling is relayed as a
:class:`repro.errors.ReproError` carrying its ``repr`` and traceback
text (instead of killing the send and surfacing as a fake worker
death).  ``close()`` is idempotent — safe after double-close and after
worker death, escalates terminate → kill on local stragglers and
releases every ``Process`` object.  Calls on a closed executor raise a
clear :class:`ReproError` instead of tripping over torn-down
internals.

Fault injection (:mod:`repro.shard.faults`): when the config resolves
a fault plan, each worker consults a per-incarnation injector before
dispatching a call — the chaos-test surface that proves the recovery
path, at zero cost when no plan is set.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import pickle
import socket
import time
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError, ShardTimeoutError
from repro.shard.backend import ShardBackend
from repro.shard.rpc import (
    _frame_args,
    _plant,
    _serve_session,
    read_message,
    write_message,
)

#: One fan-out request: ``(method name, argument tuple)`` or ``None``
#: for "this shard sits the round out".
Call = Optional[Tuple[str, Tuple[Any, ...]]]

#: Worker-isolation sentinel: workers report this through
#: ``runtime_info``.  A parent that mutates it before opening a
#: process executor must *not* see the mutation reflected back in a
#: ``spawn``-started worker — the regression test that backends are
#: rebuilt fresh in-worker.
WORKER_SENTINEL = "fresh"

#: The start method local workers are spawned under: a fresh
#: interpreter per worker, never the platform default (``fork`` on
#: POSIX), which would hand every worker a snapshot of the parent.
START_METHOD = "spawn"

#: Floor (seconds) on the deadline of a session's *first* replies — the
#: hello's answer and the liveness ping.  A cold ``spawn`` start
#: imports the whole package in the child, which can dwarf a tight
#: ``shard_call_timeout`` tuned for steady-state calls; startup still
#: fails in bounded time, just against a realistic bound.
STARTUP_TIMEOUT_FLOOR = 60.0

#: How long (seconds) each escalation step of a local worker teardown
#: waits: graceful join after the bye, join after terminate, join after
#: kill.
REAP_TIMEOUT = 5.0

#: How long a connect attempt to a remote worker sleeps before
#: retrying, while the startup deadline has not expired.  Covers both
#: cold start (worker still binding its listener) and recovery (a
#: platform supervisor restarting a crashed worker on the same
#: address).
CONNECT_RETRY_SECONDS = 0.05


class ShardWorkerLost(ReproError):
    """A shard worker process died or its stream is unusable.

    Distinct from a *relayed* backend exception (the worker survives
    those): this is the executor diagnosing the worker itself — stream
    closed on send, EOF mid-reply, or a poisoned stream after an
    earlier timeout.  Together with
    :class:`repro.errors.ShardTimeoutError` it is exactly the failure
    set the supervisor treats as recoverable by restart-and-replay.
    """


#: The failures recovery applies to.  Anything else an executor call
#: raises is a relayed backend exception and propagates untouched.
RECOVERABLE_FAILURES = (ShardWorkerLost, ShardTimeoutError)


class SerialShardExecutor:
    """All shard backends in the calling process, called inline."""

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self.shard_count = shard_count
        self.transport = "inline"
        self._config = config
        self._backends = [
            ShardBackend(config, index, shard_count)
            for index in range(shard_count)
        ]
        self._restarts = [0] * shard_count
        self._closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                "this serial shard executor is closed; calls after "
                "close() are a lifecycle bug in the caller"
            )

    def restart_worker(self, shard_index: int) -> None:
        """Replace one backend with a freshly built (empty) one.

        In-process twin of the stream executor's restart primitive, so the
        supervisor's journal/snapshot recovery can be driven (and
        tested) without spawning anything.
        """
        self._ensure_open()
        self._backends[shard_index].close()
        self._backends[shard_index] = ShardBackend(
            self._config, shard_index, self.shard_count
        )
        self._restarts[shard_index] += 1

    def restart_count(self, shard_index: int) -> int:
        return self._restarts[shard_index]

    def call(self, shard_index: int, method: str, *args) -> Any:
        self._ensure_open()
        return getattr(self._backends[shard_index], method)(*args)

    def map(self, calls: Sequence[Call]) -> List[Any]:
        """One result (or ``None``) per shard, in shard order."""
        self._ensure_open()
        return [
            None if call is None else self.call(index, call[0], *call[1])
            for index, call in enumerate(calls)
        ]

    def close(self) -> None:
        """Close every per-shard engine; idempotent."""
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.close()
        self._backends = []


class StreamShardExecutor:
    """One worker per shard behind a framed stream, fan-outs overlapped.

    ``shard_executor="process"`` spawns the workers here, one local
    process per shard on one end of a socketpair; ``"tcp"`` reaches
    externally launched workers at the ``shard_workers`` addresses.
    Opening a session (:meth:`_open_session`) and reaping a local
    process (:meth:`_reap`) are the only steps that tell the two apart;
    the call, failure and restart surface is shared.
    """

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self.shard_count = shard_count
        self.transport = "stream"
        self.call_timeout = config.resolved_shard_call_timeout
        self._fault_spec = config.resolved_shard_fault_plan
        self._config = config
        self._addresses: Optional[Tuple[Tuple[str, int], ...]] = None
        if config.resolved_shard_executor == "tcp":
            self._addresses = config.resolved_shard_workers
            if len(self._addresses) != shard_count:
                raise ConfigError(
                    f"{len(self._addresses)} shard worker addresses for "
                    f"{shard_count} shards; exactly one worker per shard "
                    f"is required"
                )
        #: ``spawn`` for local workers; remote workers are started by
        #: whoever launched them, so the executor has no start method.
        self.start_method = START_METHOD if self._addresses is None else None
        self._socks: List[Optional[socket.socket]] = [None] * shard_count
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * shard_count
        self._incarnations: List[int] = [0] * shard_count
        #: A poisoned stream saw a timeout or EOF: its request/reply
        #: alternation can no longer be trusted (a late reply may still
        #: arrive), so sends fail until restart_worker replaces it.
        self._poisoned: List[bool] = [False] * shard_count
        self._closed = False
        atexit.register(self.close)
        # Fail construction fast (bad config, import error in a worker,
        # unreachable address) instead of on the first routed batch —
        # and if it does fail, tear down whatever was already started.
        # Every session is opened before any is awaited, so cold local
        # starts overlap.
        try:
            for index in range(shard_count):
                self._open_session(index)
            for index in range(shard_count):
                self._await_ready(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _startup_timeout(self) -> float:
        return max(self.call_timeout, STARTUP_TIMEOUT_FLOOR)

    def _open_session(self, index: int) -> None:
        """Open shard ``index``'s stream and send the session hello.

        Local: spawn a worker running :func:`repro.shard.rpc._serve_session`
        on one end of a fresh socketpair.  Remote: connect to the
        worker's listener.
        """
        if self._addresses is None:
            sock, child = socket.socketpair()
            self._socks[index] = sock
            proc = mp.get_context(START_METHOD).Process(
                target=_serve_session,
                args=(child,),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            try:
                proc.start()
            finally:
                child.close()
            self._procs[index] = proc
        else:
            sock = self._connect(index)
            self._socks[index] = sock
        self._poisoned[index] = False
        try:
            write_message(
                sock,
                (
                    "hello",
                    self._config,
                    index,
                    self.shard_count,
                    self._incarnations[index],
                    self._fault_spec,
                ),
                [],
            )
        except OSError as exc:
            self._poisoned[index] = True
            raise ShardWorkerLost(
                f"shard worker {index} closed its stream before the hello"
            ) from exc

    def _connect(self, index: int) -> socket.socket:
        """Connect to remote shard ``index``'s listener.

        Retries within the startup deadline, so both a worker that is
        still binding its listener and one being restarted by its
        platform supervisor are tolerated.
        """
        host, port = self._addresses[index]
        deadline = time.monotonic() + self._startup_timeout()
        while True:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=max(deadline - time.monotonic(), 0.001)
                )
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise ShardWorkerLost(
                        f"cannot reach shard worker {index} at "
                        f"{host}:{port} within {self._startup_timeout():g}s; "
                        f"is 'python -m repro shard-worker' running there?"
                    ) from exc
                time.sleep(CONNECT_RETRY_SECONDS)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _await_ready(self, index: int) -> None:
        """Wait for the hello's answer, then for a liveness ping.

        Both waits run against the startup deadline: a cold ``spawn``
        start imports the whole package before it can answer.
        """
        timeout = self._startup_timeout()
        try:
            self._recv(index, timeout)
            self._send(index, "ping", ())
            self._recv(index, timeout)
        except pickle.UnpicklingError as exc:
            self._poisoned[index] = True
            raise ShardWorkerLost(
                f"shard worker {index} did not complete the session "
                f"handshake"
            ) from exc

    def _drop_stream(self, index: int, graceful: bool) -> None:
        """Close shard ``index``'s stream, saying bye first if healthy."""
        sock = self._socks[index]
        if sock is None:
            return
        self._socks[index] = None
        if graceful:
            try:
                sock.settimeout(1.0)
                write_message(sock, ("bye",), [])
            except OSError:
                pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _reap(self, index: int, graceful: bool) -> None:
        """Make shard ``index``'s local worker fully gone (no-op if remote).

        ``graceful`` first waits for a clean exit (the bye was sent);
        then terminate, then — for a worker that ignores SIGTERM, e.g.
        one that is SIGSTOP'd — SIGKILL.  The final ``proc.close()``
        releases the ``Process`` object so a long-lived parent opening
        many executors leaks nothing.
        """
        proc = self._procs[index]
        if proc is None:
            return
        self._procs[index] = None
        if graceful:
            proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=REAP_TIMEOUT)
        try:
            proc.close()
        except ValueError:  # pragma: no cover - unkillable process
            pass

    def restart_worker(self, index: int) -> None:
        """Replace shard ``index``'s session with a fresh one, state empty.

        The recovery primitive the supervisor drives after a death or
        timeout: the stream is dropped, a local straggler is reaped
        (terminate, then kill — a hung worker is not waited for), and
        a fresh session opens with a bumped incarnation number — a
        respawned local worker, or a reconnect to the remote listener.
        Fails fast — within the startup deadline — if the new session
        does not answer its liveness ping.  The new backend is *empty*;
        rebuilding its state is the caller's job (the supervisor
        restores the last snapshot and replays its journal).
        """
        self._ensure_open()
        self._drop_stream(index, graceful=False)
        self._reap(index, graceful=False)
        self._incarnations[index] += 1
        self._open_session(index)
        self._await_ready(index)

    def restart_count(self, index: int) -> int:
        """How many times shard ``index``'s session has been reopened."""
        return self._incarnations[index]

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                "this shard executor is closed; calls after close() are "
                "a lifecycle bug in the caller"
            )

    def _send(self, shard_index: int, method: str, args: Tuple) -> None:
        if self._poisoned[shard_index]:
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s stream is poisoned by an "
                f"earlier timeout or death; the worker must be restarted "
                f"before it can serve calls again"
            )
        sock = self._socks[shard_index]
        control, arrays = _frame_args(method, args)
        try:
            # Bound the send too: a worker that stopped reading (hung
            # with full buffers) must not block the parent forever.
            sock.settimeout(self.call_timeout)
            write_message(sock, ("call", method, control), arrays)
        except socket.timeout as exc:
            self._poisoned[shard_index] = True
            raise ShardTimeoutError(
                f"shard worker {shard_index} did not accept a call within "
                f"{self.call_timeout:g}s (shard_call_timeout)"
            ) from exc
        except OSError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index} is gone (stream closed)"
            ) from exc

    def _recv(self, shard_index: int, timeout: Optional[float] = None) -> Any:
        if timeout is None:
            timeout = self.call_timeout
        try:
            header, views = read_message(
                self._socks[shard_index], deadline=time.monotonic() + timeout
            )
        except EOFError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index} died mid-call"
            ) from exc
        # ShardTimeoutError subclasses TimeoutError (an OSError), so it
        # must be told apart before the generic stream failures.
        except ShardTimeoutError as exc:
            self._poisoned[shard_index] = True
            raise ShardTimeoutError(
                f"shard worker {shard_index} did not reply within "
                f"{timeout:g}s (shard_call_timeout); the worker is hung "
                f"and must be restarted before it can serve calls again"
            ) from exc
        except OSError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s stream failed mid-call"
            ) from exc
        if header[0] == "error":
            raise header[1]
        return _plant(header[1], views)

    def call(self, shard_index: int, method: str, *args) -> Any:
        self._ensure_open()
        self._send(shard_index, method, args)
        return self._recv(shard_index)

    def map_scatter(self, calls: Sequence[Call]) -> List[Any]:
        """One outcome per shard: results and *failures*, never a raise.

        The supervised fan-out primitive: every involved shard's reply
        is drained (leaving one in a stream would desynchronize the
        next round), and a shard's failure comes back as the exception
        object in its slot instead of aborting the whole round — so
        the supervisor can recover exactly the shards that failed and
        keep every healthy shard's result.
        """
        self._ensure_open()
        results: List[Any] = [None] * len(calls)
        involved = []
        for index, call in enumerate(calls):
            if call is None:
                continue
            try:
                self._send(index, call[0], call[1])
            except RECOVERABLE_FAILURES as exc:
                results[index] = exc
                continue
            involved.append(index)
        for index in involved:
            try:
                results[index] = self._recv(index)
            except BaseException as exc:  # noqa: BLE001
                results[index] = exc
        return results

    def map(self, calls: Sequence[Call]) -> List[Any]:
        """One result (or ``None``) per shard, all shards in flight at once.

        Raises the first failure in shard order (after draining every
        reply); unsupervised deployments keep their fail-fast
        behavior, supervised ones go through :meth:`map_scatter`.
        """
        results = self.map_scatter(calls)
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End every session and reap every local worker; idempotent.

        Healthy workers get a bye (and, if local, a graceful join);
        poisoned local stragglers go straight to terminate → kill, and
        every ``Process`` object is released so nothing leaks in
        long-lived parents — even after worker crashes or hangs.
        Remote workers live on: they are external processes serving
        one session after another.
        """
        if self._closed:
            return
        self._closed = True
        # Drop the atexit reference so closed executors can be GC'd in
        # long-lived processes that open many sharded engines.
        atexit.unregister(self.close)
        # Every bye goes out before any join, so workers exit in
        # parallel.
        for index in range(self.shard_count):
            self._drop_stream(index, graceful=not self._poisoned[index])
        for index in range(self.shard_count):
            self._reap(index, graceful=not self._poisoned[index])

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
