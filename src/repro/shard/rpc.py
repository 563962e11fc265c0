"""The shard wire: one framed byte stream between executor and worker.

Every out-of-process shard deployment speaks this protocol, driven by
:class:`repro.shard.executors.StreamShardExecutor`.  Only the stream
underneath differs:

* ``shard_executor="process"`` — the executor spawns one local worker
  per shard and hands it one end of a ``socket.socketpair()``;
* ``shard_executor="tcp"`` — workers are launched out-of-band
  (``python -m repro shard-worker --port P``, one per shard, on any
  host) and the executor connects to the ``shard_workers`` addresses.

Both kinds of worker run the same loop, :func:`_serve_session`.

**Wire format.**  Every message is two 8-byte big-endian lengths, a
pickled *control frame* and one raw *payload* holding every bulk
numpy array's bytes back to back::

    parent -> worker:  ("hello", config, index, count, incarnation, fault_spec)
                       ("call", method, control)
                       ("bye",)
    worker -> parent:  ("ok", control)        # the hello is answered ("ok", index)
                       ("error", exception)

Which calls carry bulk payloads is declared
(:data:`repro.shard.backend.BULK_CALLS`), never guessed: framing walks
only the declared argument positions and results with
:func:`_extract`, which replaces every ndarray with a :class:`_Ref`
placeholder and collects it; the arrays' ``(dtype, shape)``
descriptors ride the control frame and their bytes are streamed raw,
back to back in one payload — **array data is never pickled in either
direction** — and rebuilt on receipt as read-only views over the
message's receive buffer, which they keep alive: a view stays valid
for as long as the caller holds it.

**Sessions.**  A session owns a backend freshly built from the hello;
ending it (bye, EOF, or an injected crash) discards that backend,
which is the "worker restarted, state empty" contract the
:class:`repro.shard.supervisor.ShardSupervisor` recovers from by
snapshot restore plus journal replay.  A local worker serves one
session and exits; an injected ``crash`` kills it outright
(``os._exit``).  A remote worker's listener serves one session after
another, and an injected ``crash`` aborts only the session (state
discarded, parent sees EOF) while the listener survives — modeling a
platform supervisor that restarts the worker on the same address.

Workers trust their parent: the control frames are pickles, so a
worker must only ever be reachable from the deployment's own router
(bind to loopback or a private interface, as the quickstart does).
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, ShardTimeoutError
from repro.shard.backend import BULK_CALLS, ShardBackend
from repro.shard.faults import injector_for

#: Every message starts with two lengths: the control frame (padding
#: included) and the payload that follows it.
_LENGTHS = struct.Struct(">QQ")

#: Payload arrays start on multiples of this many bytes, so no view is
#: misaligned for its dtype.
_ALIGN = 8


# ----------------------------------------------------------------------
# Payload framing
# ----------------------------------------------------------------------


class _Ref:
    """Control-frame placeholder for one extracted bulk array."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (_Ref, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Ref({self.index})"


def _extract(obj: Any, arrays: List[np.ndarray]) -> Any:
    """Replace every ndarray reachable from ``obj`` with a :class:`_Ref`.

    Walks tuples, dict *values* and dataclass fields; lists (and dict
    keys) are control data by convention and are left untouched.  The
    collected arrays are made C-contiguous here, so the writer can
    stream each one as a single buffer.
    """
    if isinstance(obj, np.ndarray):
        arrays.append(np.ascontiguousarray(obj))
        return _Ref(len(arrays) - 1)
    if isinstance(obj, tuple):
        return tuple(_extract(item, arrays) for item in obj)
    if isinstance(obj, dict):
        return {key: _extract(value, arrays) for key, value in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return dataclass_replace(
            obj,
            **{
                f.name: _extract(getattr(obj, f.name), arrays)
                for f in fields(obj)
            },
        )
    return obj


def _plant(obj: Any, views: List[np.ndarray]) -> Any:
    """Inverse of :func:`_extract`: substitute views for placeholders."""
    if isinstance(obj, _Ref):
        return views[obj.index]
    if isinstance(obj, tuple):
        return tuple(_plant(item, views) for item in obj)
    if isinstance(obj, dict):
        return {key: _plant(value, views) for key, value in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return dataclass_replace(
            obj,
            **{f.name: _plant(getattr(obj, f.name), views) for f in fields(obj)},
        )
    return obj


def _frame_args(method: str, args: Tuple[Any, ...]):
    """Split call args into (control, arrays) per the declared bulk spec."""
    spec = BULK_CALLS.get(method)
    if spec is None or not spec.arg_positions:
        return args, []
    arrays: List[np.ndarray] = []
    control = tuple(
        _extract(arg, arrays) if i in spec.arg_positions else arg
        for i, arg in enumerate(args)
    )
    return control, arrays


def _frame_result(method: str, result: Any):
    """Split a call result into (control, arrays) per the bulk spec."""
    spec = BULK_CALLS.get(method)
    if spec is None or not spec.bulk_result:
        return result, []
    arrays: List[np.ndarray] = []
    return _extract(result, arrays), arrays


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int, deadline: Optional[float]) -> bytearray:
    """Read exactly ``n`` bytes; EOFError on close, timeout on deadline."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardTimeoutError("no reply within the deadline")
            sock.settimeout(remaining)
        else:
            sock.settimeout(None)
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise ShardTimeoutError("no reply within the deadline") from None
        if count == 0:
            raise EOFError("connection closed mid-message")
        got += count
    return buf


def _padding(size: int) -> int:
    return -size % _ALIGN


def write_message(
    sock: socket.socket, header: Any, arrays: Sequence[np.ndarray]
) -> None:
    """One message: a pickled control frame, then every array's raw bytes.

    The control frame carries the header plus each array's ``(dtype,
    shape)`` descriptor, padded so the payload that follows starts
    aligned; the arrays' bytes follow back to back (each aligned), and
    the whole message leaves in one ``sendall``.  The pickle is built
    *before* any byte hits the socket, so a pickling failure leaves the
    stream clean — the error-relay fallback depends on that.
    """
    arrays = [np.ascontiguousarray(arr) for arr in arrays]
    desc = [(arr.dtype.str, arr.shape) for arr in arrays]
    blob = pickle.dumps((header, desc), protocol=pickle.HIGHEST_PROTOCOL)
    control = blob + bytes(_padding(len(blob)))
    payload: List[Any] = []
    size = 0
    for arr in arrays:
        pad = _padding(size)
        payload += [bytes(pad), arr]
        size += pad + arr.nbytes
    sock.sendall(b"".join([_LENGTHS.pack(len(control), size), control, *payload]))


def read_message(
    sock: socket.socket, deadline: Optional[float] = None
) -> Tuple[Any, List[np.ndarray]]:
    """One message back: the control header plus read-only array views.

    The views share the message's receive buffer and keep it alive, so
    they stay valid for as long as the caller holds them.
    """
    control, payload = _LENGTHS.unpack(_recv_exact(sock, _LENGTHS.size, deadline))
    buf = _recv_exact(sock, control + payload, deadline)
    # pickle ignores the alignment padding after the control frame.
    header, desc = pickle.loads(buf)
    views: List[np.ndarray] = []
    offset = control
    for dtype_str, shape in desc:
        dt = np.dtype(dtype_str)
        offset += _padding(offset - control)
        count = int(np.prod(shape, dtype=np.int64))
        flat = np.frombuffer(buf, dtype=dt, count=count, offset=offset)
        flat.flags.writeable = False
        views.append(flat.reshape(shape))
        offset += count * dt.itemsize
    return header, views


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _SessionCrash(Exception):
    """Injected ``crash`` inside a listener-served session: abort it only."""


def _raise_session_crash() -> None:
    raise _SessionCrash()


def _send_error(sock: socket.socket, exc: BaseException) -> None:
    """Relay an exception without letting the relay kill the session.

    The pickle is built before any byte is written, so an unpicklable
    exception falls back to a :class:`ReproError` carrying the repr and
    traceback text — the stream stays in sync either way.
    """
    try:
        write_message(sock, ("error", exc), [])
    except OSError:
        raise
    except Exception:
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        write_message(
            sock,
            (
                "error",
                ReproError(
                    f"shard backend raised an exception that could not be "
                    f"relayed over the stream: {exc!r}\n"
                    f"--- original traceback ---\n{detail}"
                ),
            ),
            [],
        )


def _serve_session(conn: socket.socket, on_crash=None) -> None:
    """Serve one executor session: hello, then calls until bye/EOF.

    The one worker loop: a spawned local worker runs it as its process
    target, a listener (:func:`serve_worker`) runs it once per accepted
    connection.  Each session owns a freshly built backend; ending the
    session (bye, EOF, or an injected crash) discards it — exactly the
    "worker restarted, state empty" contract the supervisor's
    snapshot-plus-replay recovery is built for.  ``on_crash`` is what
    an injected ``crash`` does instead of ``os._exit`` (see
    :meth:`repro.shard.faults.FaultInjector.fire`).
    """
    try:
        header, _ = read_message(conn)
    except (EOFError, OSError, pickle.UnpicklingError):
        return
    if not isinstance(header, tuple) or header[0] != "hello":
        with contextlib.suppress(OSError):
            _send_error(
                conn, ReproError(f"expected a hello frame, got {header!r}")
            )
        return
    _, config, index, count, incarnation, fault_spec = header
    try:
        backend = ShardBackend(config, index, count)
        injector = injector_for(fault_spec, index, incarnation)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        with contextlib.suppress(OSError):
            _send_error(conn, exc)
        return
    try:
        write_message(conn, ("ok", index), [])
        while True:
            try:
                header, views = read_message(conn)
            except (EOFError, OSError):
                return
            if not isinstance(header, tuple) or header[0] == "bye":
                return
            _, method, control = header
            try:
                if injector is not None:
                    injector.fire(method, on_crash=on_crash)
                result = getattr(backend, method)(*_plant(control, views))
            except _SessionCrash:
                # Abort without replying: the parent sees EOF, the
                # state dies with the session, and the listener lives
                # on to accept the recovery connection.
                return
            except BaseException as exc:  # noqa: BLE001 - relayed
                try:
                    _send_error(conn, exc)
                except OSError:
                    return
                continue
            control, arrays = _frame_result(method, result)
            try:
                write_message(conn, ("ok", control), arrays)
            except OSError:
                return
            except Exception as exc:  # noqa: BLE001 - reply framing failed
                try:
                    _send_error(
                        conn,
                        ReproError(
                            f"shard {index} failed to frame a reply for "
                            f"{method!r}: {exc!r}"
                        ),
                    )
                except OSError:
                    return
    finally:
        backend.close()


def serve_worker(
    host: str = "127.0.0.1", port: int = 0, *, once: bool = False
) -> None:
    """Run one shard worker: bind, announce, serve sessions forever.

    The ``python -m repro shard-worker`` entry point.  ``port=0`` binds
    an ephemeral port; the chosen address is announced on stdout as
    ``shard worker listening on host:port`` (flushed), which is how the
    test/CI launcher discovers it.  One session is served at a time —
    an executor owns its worker for the session's lifetime — and the
    listener survives session failures, so a supervisor's reconnect
    always has somewhere to land.  ``once`` returns after the first
    session ends (tests).
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((host, port))
        listener.listen(8)
        bound_host, bound_port = listener.getsockname()[:2]
        print(
            f"shard worker listening on {bound_host}:{bound_port}",
            flush=True,
        )
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                _serve_session(conn, on_crash=_raise_session_crash)
            finally:
                with contextlib.suppress(OSError):
                    conn.close()
            if once:
                return
    finally:
        with contextlib.suppress(OSError):
            listener.close()


# ----------------------------------------------------------------------
# Launching listener workers on this host (tests, CI, the quickstart)
# ----------------------------------------------------------------------


def spawn_worker_process(port: int = 0, host: str = "127.0.0.1"):
    """Launch one ``python -m repro shard-worker`` subprocess.

    Returns ``(process, "host:port")`` once the worker has announced
    its listening address.  ``port=0`` lets the worker pick a free
    ephemeral port.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "shard-worker",
            "--host",
            host,
            "--port",
            str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise ReproError(
                f"shard worker exited with status {proc.returncode} "
                f"before announcing its address"
            )
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
            return proc, address


def terminate_worker_process(proc) -> None:
    """Stop a worker launched by :func:`spawn_worker_process`."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - straggler
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


@contextlib.contextmanager
def local_workers(count: int):
    """``count`` localhost workers on ephemeral ports, reaped on exit.

    Yields the ``["host:port", ...]`` list ready for the
    ``shard_workers`` config knob.
    """
    procs = []
    addresses = []
    try:
        for _ in range(count):
            proc, address = spawn_worker_process()
            procs.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for proc in procs:
            terminate_worker_process(proc)


__all__ = [
    "local_workers",
    "read_message",
    "serve_worker",
    "spawn_worker_process",
    "terminate_worker_process",
    "write_message",
]
