"""Typed, frozen engine configuration — all knob validation in one place.

Every parameter that used to be scattered across clusterer
constructors, environment variables and CLI flags (algorithm, eps,
minpts, rho, dim, kernel backend, batch size, ingest flush policy)
lives in one immutable :class:`EngineConfig`.  Construction validates
everything and raises :class:`repro.errors.ConfigError` with a precise
message, so "is this configuration valid?" is decided before any
structure is built — the clusterers re-check their own invariants, but
through this class a bad knob can never get that far.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro import kernels
from repro.errors import ConfigError

#: Canonical algorithm names (the paper's Section 8 line-up, matching
#: the CLI choices) plus the two family aliases ``semi`` / ``full``,
#: which resolve by ``rho``: exact when ``rho == 0``, approximate
#: otherwise.
ALGORITHM_CHOICES = (
    "semi-exact",
    "semi-approx",
    "full-exact",
    "double-approx",
    "incdbscan",
    "recompute",
)

_ALIASES = {"semi": ("semi-exact", "semi-approx"),
            "full": ("full-exact", "double-approx")}

#: Algorithms whose core definition has no rho relaxation at all.
_EXACT_ONLY = ("incdbscan", "recompute")

#: Default ingest-session buffer size (updates held before a flush).
#: Large enough that pure-ingest phases amortize the vectorized batch
#: paths, small enough that a query barrier never replays an unbounded
#: buffer.
DEFAULT_FLUSH_THRESHOLD = 4096

#: Shard executor choices (see :mod:`repro.shard.executors` and
#: :mod:`repro.shard.rpc`): backends in-process and called inline, one
#: spawned local worker process per shard, or one remote TCP worker per
#: shard (``python -m repro shard-worker``, addressed via
#: ``shard_workers``).  Local and remote workers speak the same framed
#: stream protocol.
SHARD_EXECUTOR_CHOICES = ("serial", "process", "tcp")

#: Default cell-ownership block side (in cells per axis) of a sharded
#: deployment.  Larger blocks shrink the halo-replication factor
#: (fewer points near a foreign boundary) but leave fewer blocks to
#: balance across shards; 16 keeps the replication factor moderate
#: (~1.5x at d=2) while a seed-spreader-scale dataset still spans
#: hundreds of blocks.
DEFAULT_SHARD_BLOCK = 16

#: Algorithms a sharded deployment cannot run: sharding partitions the
#: *cell registry*, so only the grid-based clusterers qualify.  (Today
#: this coincides with ``_EXACT_ONLY``, but the two express different
#: properties — rho-free vs. grid-less — and may diverge.)
UNSHARDEABLE_ALGORITHMS = ("incdbscan", "recompute")

#: Default deadline (seconds) on every shard-worker reply wait.  A
#: hung worker surfaces as :class:`repro.errors.ShardTimeoutError`
#: within this bound instead of hanging the parent forever.  Generous
#: enough that a legitimate big merge on a loaded machine never trips
#: it; chaos tests tighten it per-deployment.  Overridable via the
#: ``REPRO_SHARD_CALL_TIMEOUT`` environment variable.
DEFAULT_SHARD_CALL_TIMEOUT = 60.0

#: Default per-shard restart budget of the supervisor
#: (:class:`repro.shard.supervisor.ShardSupervisor`): how many times
#: one shard's worker may be respawned-and-replayed over the
#: deployment's lifetime before a failure is declared unrecoverable.
#: ``0`` disables recovery (every worker death or timeout is fatal,
#: the pre-supervision behavior).  Overridable via the
#: ``REPRO_SHARD_MAX_RESTARTS`` environment variable.
DEFAULT_SHARD_MAX_RESTARTS = 3

#: Default journal-truncation period of the shard supervisor: after
#: this many journaled mutating calls on one shard, the supervisor
#: captures a state snapshot from the worker and truncates the journal
#: prefix, so recovery replays snapshot + suffix and the journal's
#: memory footprint stays bounded regardless of update history.
#: Overridable via the ``REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY``
#: environment variable.
DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY = 512


def _parse_worker_address(spec: str) -> Tuple[str, int]:
    """Parse one ``host:port`` shard-worker address (ConfigError on junk)."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ConfigError(
            f"shard worker address must be a 'host:port' string, got "
            f"{spec!r}"
        )
    host, _, port_text = spec.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not (0 < port < 65536):
        raise ConfigError(
            f"shard worker address must be a 'host:port' string with a "
            f"valid port, got {spec!r}"
        )
    return host, port


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable configuration of one :class:`repro.api.Engine`.

    Required: ``eps`` (the DBSCAN radius) and ``minpts``.  Everything
    else defaults to the paper's conventions: the fully-dynamic
    algorithm, exact clustering (``rho = 0``), two dimensions, the
    process-wide kernel backend left untouched, sequential updates (no
    ``batch_size``), ingest sessions flushing every
    ``DEFAULT_FLUSH_THRESHOLD`` buffered updates, and a single engine
    (no ``shards``).  Setting ``shards`` makes :func:`repro.api.open`
    build a :class:`repro.shard.ShardedEngine` instead; ``shard_block``
    (ownership block side, in cells per axis), ``shard_executor``
    (``serial`` / ``process`` / ``tcp``) and ``shard_workers`` (one
    ``host:port`` per shard; tcp executor only, env fallback
    ``REPRO_SHARD_WORKERS``) tune the deployment and require
    ``shards``.  ``shard_journal_snapshot_every`` bounds the
    supervisor's recovery journal: after that many journaled mutations
    on one shard its state is snapshotted and the journal prefix
    truncated (default
    :data:`DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY`, env fallback
    ``REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY``).
    Fault tolerance of the process and tcp executors is tuned by
    ``shard_call_timeout`` (deadline in seconds on every reply wait,
    default :data:`DEFAULT_SHARD_CALL_TIMEOUT`),
    ``shard_max_restarts`` (the supervisor's per-shard
    respawn-and-replay budget, default
    :data:`DEFAULT_SHARD_MAX_RESTARTS`; 0 disables recovery) and
    ``shard_fault_plan`` (a :mod:`repro.shard.faults` injection plan
    for chaos testing; process and tcp executors only) — all requiring
    ``shards``, each with an environment fallback
    (``REPRO_SHARD_CALL_TIMEOUT`` / ``REPRO_SHARD_MAX_RESTARTS`` /
    ``REPRO_FAULT_PLAN``).  ``fragment_cache`` toggles the incremental
    fragment cache of the grid clusterers (memoized per-cell barrier
    fragments with cell-level invalidation; default on, env fallback
    ``REPRO_FRAGMENT_CACHE``) — cache hit/miss/invalidation counters
    surface in :class:`repro.api.EngineStats`.

    ``algorithm`` accepts the canonical Section 8 names
    (``semi-exact``, ``semi-approx``, ``full-exact``, ``double-approx``,
    ``incdbscan``, ``recompute``) or a family alias (``semi`` /
    ``full``) that resolves by ``rho``.  The instance stores the name
    as given — so ``replace(rho=...)`` on a family alias re-resolves
    instead of contradicting a frozen exact/approx choice — and
    :attr:`resolved_algorithm` exposes the canonical name.

    All validation happens here, in ``__post_init__``, and every
    failure is a :class:`ConfigError`.
    """

    eps: float
    minpts: int
    algorithm: str = "full-exact"
    rho: float = 0.0
    dim: int = 2
    backend: Optional[str] = None
    batch_size: Optional[int] = None
    flush_threshold: Optional[int] = DEFAULT_FLUSH_THRESHOLD
    shards: Optional[int] = None
    shard_block: Optional[int] = None
    shard_executor: Optional[str] = None
    shard_call_timeout: Optional[float] = None
    shard_max_restarts: Optional[int] = None
    shard_fault_plan: Optional[str] = None
    shard_workers: Optional[Tuple[str, ...]] = None
    shard_journal_snapshot_every: Optional[int] = None
    fragment_cache: Optional[bool] = None

    def __post_init__(self) -> None:
        algorithm = self.algorithm
        if algorithm not in ALGORITHM_CHOICES and algorithm not in _ALIASES:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choices: "
                f"{', '.join(ALGORITHM_CHOICES + tuple(_ALIASES))}"
            )
        if not isinstance(self.eps, (int, float)) or isinstance(self.eps, bool):
            raise ConfigError(f"eps must be a number, got {self.eps!r}")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not isinstance(self.minpts, int) or isinstance(self.minpts, bool):
            raise ConfigError(f"minpts must be an integer, got {self.minpts!r}")
        if self.minpts < 1:
            raise ConfigError(f"minpts must be >= 1, got {self.minpts}")
        if not isinstance(self.rho, (int, float)) or isinstance(self.rho, bool):
            raise ConfigError(f"rho must be a number, got {self.rho!r}")
        if not math.isfinite(self.rho) or self.rho < 0:
            raise ConfigError(
                f"rho must be non-negative and finite, got {self.rho}"
            )
        # Family aliases resolve by rho, so only an *explicitly* named
        # exact algorithm can contradict a non-zero rho.
        if algorithm.endswith("-exact") and self.rho != 0:
            raise ConfigError(
                f"algorithm {algorithm!r} is exact by definition but "
                f"rho={self.rho}; use the approximate variant, the "
                f"family alias, or rho=0"
            )
        if algorithm in _EXACT_ONLY and self.rho != 0:
            raise ConfigError(
                f"algorithm {algorithm!r} has no rho parameter; got "
                f"rho={self.rho}"
            )
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise ConfigError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.backend is not None and self.backend not in kernels.available_backends():
            raise ConfigError(
                f"unknown kernel backend {self.backend!r}; choices: "
                f"{', '.join(kernels.available_backends())}"
            )
        if self.batch_size is not None:
            if not isinstance(self.batch_size, int) or isinstance(self.batch_size, bool):
                raise ConfigError(
                    f"batch_size must be an integer, got {self.batch_size!r}"
                )
            if self.batch_size < 1:
                raise ConfigError(
                    f"batch_size must be >= 1, got {self.batch_size}"
                )
        if self.flush_threshold is not None:
            if not isinstance(self.flush_threshold, int) or isinstance(
                self.flush_threshold, bool
            ):
                raise ConfigError(
                    f"flush_threshold must be an integer or None, got "
                    f"{self.flush_threshold!r}"
                )
            if self.flush_threshold < 1:
                raise ConfigError(
                    f"flush_threshold must be >= 1 (or None to flush only "
                    f"on barriers), got {self.flush_threshold}"
                )
        if self.shards is not None:
            if not isinstance(self.shards, int) or isinstance(self.shards, bool):
                raise ConfigError(
                    f"shards must be an integer or None, got {self.shards!r}"
                )
            if self.shards < 1:
                raise ConfigError(f"shards must be >= 1, got {self.shards}")
            if self.resolved_algorithm in UNSHARDEABLE_ALGORITHMS:
                raise ConfigError(
                    f"algorithm {self.resolved_algorithm!r} cannot be "
                    f"sharded: sharding partitions the cell registry, "
                    f"which only the grid-based algorithms (semi/full "
                    f"families) maintain"
                )
        if self.shard_block is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_block={self.shard_block!r} requires shards to "
                    f"be set"
                )
            if (
                not isinstance(self.shard_block, int)
                or isinstance(self.shard_block, bool)
                or self.shard_block < 1
            ):
                raise ConfigError(
                    f"shard_block must be a positive integer or None, got "
                    f"{self.shard_block!r}"
                )
        if self.shard_executor is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_executor={self.shard_executor!r} requires "
                    f"shards to be set"
                )
            if self.shard_executor not in SHARD_EXECUTOR_CHOICES:
                raise ConfigError(
                    f"unknown shard_executor {self.shard_executor!r}; "
                    f"choices: {', '.join(SHARD_EXECUTOR_CHOICES)}"
                )
        if self.shard_call_timeout is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_call_timeout={self.shard_call_timeout!r} "
                    f"requires shards to be set"
                )
            if (
                not isinstance(self.shard_call_timeout, (int, float))
                or isinstance(self.shard_call_timeout, bool)
                or not math.isfinite(self.shard_call_timeout)
                or self.shard_call_timeout <= 0
            ):
                raise ConfigError(
                    f"shard_call_timeout must be a positive finite number "
                    f"of seconds or None, got {self.shard_call_timeout!r}"
                )
        if self.shard_max_restarts is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_max_restarts={self.shard_max_restarts!r} "
                    f"requires shards to be set"
                )
            if (
                not isinstance(self.shard_max_restarts, int)
                or isinstance(self.shard_max_restarts, bool)
                or self.shard_max_restarts < 0
            ):
                raise ConfigError(
                    f"shard_max_restarts must be a non-negative integer or "
                    f"None (0 disables recovery), got "
                    f"{self.shard_max_restarts!r}"
                )
        if self.shard_fault_plan is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_fault_plan={self.shard_fault_plan!r} requires "
                    f"shards to be set"
                )
            if self.resolved_shard_executor not in ("process", "tcp"):
                raise ConfigError(
                    f"shard_fault_plan={self.shard_fault_plan!r} requires "
                    f"shard_executor='process' or 'tcp'; fault plans are "
                    f"consulted by workers, which the serial executor does "
                    f"not have"
                )
            if not isinstance(self.shard_fault_plan, str):
                raise ConfigError(
                    f"shard_fault_plan must be a plan string or None, got "
                    f"{self.shard_fault_plan!r}"
                )
            # Imported lazily: repro.shard imports this module at load.
            from repro.shard.faults import parse_fault_plan

            parse_fault_plan(self.shard_fault_plan)
        if self.shard_workers is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_workers={self.shard_workers!r} requires shards "
                    f"to be set"
                )
            if self.resolved_shard_executor != "tcp":
                raise ConfigError(
                    f"shard_workers={self.shard_workers!r} requires "
                    f"shard_executor='tcp'; only the tcp executor connects "
                    f"to externally launched workers"
                )
            if isinstance(self.shard_workers, str) or not isinstance(
                self.shard_workers, (list, tuple)
            ):
                raise ConfigError(
                    f"shard_workers must be a sequence of 'host:port' "
                    f"strings or None, got {self.shard_workers!r}"
                )
            for spec in self.shard_workers:
                _parse_worker_address(spec)
            # Frozen dataclass: normalize list input to a hashable tuple.
            object.__setattr__(
                self, "shard_workers", tuple(self.shard_workers)
            )
            if len(self.shard_workers) != self.shards:
                raise ConfigError(
                    f"shard_workers lists {len(self.shard_workers)} "
                    f"addresses but shards={self.shards}; exactly one "
                    f"worker address per shard is required"
                )
        if self.shard_journal_snapshot_every is not None:
            if self.shards is None:
                raise ConfigError(
                    f"shard_journal_snapshot_every="
                    f"{self.shard_journal_snapshot_every!r} requires "
                    f"shards to be set"
                )
            if (
                not isinstance(self.shard_journal_snapshot_every, int)
                or isinstance(self.shard_journal_snapshot_every, bool)
                or self.shard_journal_snapshot_every < 1
            ):
                raise ConfigError(
                    f"shard_journal_snapshot_every must be a positive "
                    f"integer or None, got "
                    f"{self.shard_journal_snapshot_every!r}"
                )
        if self.fragment_cache is not None and not isinstance(
            self.fragment_cache, bool
        ):
            raise ConfigError(
                f"fragment_cache must be a bool or None (None defers to "
                f"the REPRO_FRAGMENT_CACHE environment variable), got "
                f"{self.fragment_cache!r}"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def resolved_algorithm(self) -> str:
        """The canonical algorithm name (family aliases resolved by rho)."""
        if self.algorithm in _ALIASES:
            exact, approx = _ALIASES[self.algorithm]
            return exact if self.rho == 0 else approx
        return self.algorithm

    @property
    def insert_only(self) -> bool:
        """Whether the configured algorithm rejects deletions."""
        return self.algorithm.startswith("semi")

    @property
    def effective_rho(self) -> float:
        """The rho the built clusterer actually runs with."""
        return 0.0 if self.resolved_algorithm.endswith("-exact") else self.rho

    @property
    def resolved_shard_block(self) -> int:
        """The cell-ownership block side a sharded deployment uses."""
        return (
            self.shard_block
            if self.shard_block is not None
            else DEFAULT_SHARD_BLOCK
        )

    @property
    def resolved_shard_executor(self) -> str:
        """The shard executor a sharded deployment uses."""
        return (
            self.shard_executor if self.shard_executor is not None else "serial"
        )

    @property
    def resolved_shard_call_timeout(self) -> float:
        """The deadline (seconds) on every shard-worker reply wait.

        The explicit ``shard_call_timeout`` knob if set, else the
        ``REPRO_SHARD_CALL_TIMEOUT`` environment variable, else
        :data:`DEFAULT_SHARD_CALL_TIMEOUT`.
        """
        if self.shard_call_timeout is not None:
            return float(self.shard_call_timeout)
        env = os.environ.get("REPRO_SHARD_CALL_TIMEOUT")
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = math.nan
            if not math.isfinite(timeout) or timeout <= 0:
                raise ConfigError(
                    f"REPRO_SHARD_CALL_TIMEOUT={env!r} is not a positive "
                    f"finite number of seconds"
                )
            return timeout
        return DEFAULT_SHARD_CALL_TIMEOUT

    @property
    def resolved_shard_max_restarts(self) -> int:
        """The supervisor's per-shard restart budget.

        The explicit ``shard_max_restarts`` knob if set, else the
        ``REPRO_SHARD_MAX_RESTARTS`` environment variable, else
        :data:`DEFAULT_SHARD_MAX_RESTARTS`.
        """
        if self.shard_max_restarts is not None:
            return self.shard_max_restarts
        env = os.environ.get("REPRO_SHARD_MAX_RESTARTS")
        if env:
            try:
                budget = int(env)
            except ValueError:
                budget = -1
            if budget < 0:
                raise ConfigError(
                    f"REPRO_SHARD_MAX_RESTARTS={env!r} is not a "
                    f"non-negative integer"
                )
            return budget
        return DEFAULT_SHARD_MAX_RESTARTS

    @property
    def resolved_fragment_cache(self) -> bool:
        """Whether the built clusterers memoize barrier fragments.

        The explicit ``fragment_cache`` knob if set, else the
        ``REPRO_FRAGMENT_CACHE`` environment variable, else on (the
        cache is invisible in results — exact at ``rho = 0``,
        sandwich-legal above).
        """
        # Imported lazily: repro.core pulls in the kernel registry.
        from repro.core.fragments import resolve_fragment_cache

        return resolve_fragment_cache(self.fragment_cache)

    @property
    def resolved_shard_fault_plan(self) -> Optional[str]:
        """The fault plan worker processes consult, or ``None``.

        ``None`` unless the deployment runs the process or tcp
        executor (fault plans inject into workers).  Then: the
        explicit ``shard_fault_plan`` knob if set, else the
        ``REPRO_FAULT_PLAN`` environment variable (validated here),
        else ``None`` — the zero-overhead default.
        """
        if self.resolved_shard_executor not in ("process", "tcp"):
            return None
        if self.shard_fault_plan is not None:
            return self.shard_fault_plan
        env = os.environ.get("REPRO_FAULT_PLAN")
        if env:
            from repro.shard.faults import parse_fault_plan

            try:
                parse_fault_plan(env)
            except ConfigError as exc:
                raise ConfigError(f"REPRO_FAULT_PLAN: {exc}") from None
            return env
        return None

    @property
    def resolved_shard_workers(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(host, port)`` address of every tcp shard worker.

        The explicit ``shard_workers`` knob if set, else the
        ``REPRO_SHARD_WORKERS`` environment variable (comma-separated
        ``host:port`` list).  Only meaningful for the tcp executor;
        raises :class:`ConfigError` when neither source names exactly
        one address per shard.
        """
        specs = self.shard_workers
        if specs is None:
            env = os.environ.get("REPRO_SHARD_WORKERS")
            if not env:
                raise ConfigError(
                    "shard_executor='tcp' needs worker addresses: set "
                    "shard_workers=['host:port', ...] or the "
                    "REPRO_SHARD_WORKERS environment variable "
                    "(comma-separated)"
                )
            specs = tuple(s.strip() for s in env.split(",") if s.strip())
        addresses = tuple(_parse_worker_address(spec) for spec in specs)
        if self.shards is not None and len(addresses) != self.shards:
            raise ConfigError(
                f"{len(addresses)} shard worker addresses for "
                f"shards={self.shards}; exactly one worker per shard is "
                f"required"
            )
        return addresses

    @property
    def resolved_shard_journal_snapshot_every(self) -> int:
        """The supervisor's journal-truncation period (mutations/shard).

        The explicit ``shard_journal_snapshot_every`` knob if set, else
        the ``REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY`` environment
        variable, else :data:`DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY`.
        """
        if self.shard_journal_snapshot_every is not None:
            return self.shard_journal_snapshot_every
        env = os.environ.get("REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY")
        if env:
            try:
                period = int(env)
            except ValueError:
                period = 0
            if period < 1:
                raise ConfigError(
                    f"REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY={env!r} is not a "
                    f"positive integer"
                )
            return period
        return DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY

    def replace(self, **changes) -> "EngineConfig":
        """A new validated config with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-ready) of every configured knob."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def build_clusterer(self):
        """Instantiate the configured clusterer (without backend side
        effects — :meth:`repro.api.Engine.open` owns backend selection).
        """
        # Imported here: repro.core imports repro.kernels at module
        # load, and keeping config importable early avoids any cycle.
        from repro.baselines.incdbscan import IncDBSCAN
        from repro.baselines.naive_dynamic import RecomputeClusterer
        from repro.core.fullydynamic import FullyDynamicClusterer
        from repro.core.semidynamic import SemiDynamicClusterer

        algorithm = self.resolved_algorithm
        if algorithm.startswith("semi"):
            return SemiDynamicClusterer(
                self.eps,
                self.minpts,
                rho=self.effective_rho,
                dim=self.dim,
                fragment_cache=self.fragment_cache,
            )
        if algorithm in ("full-exact", "double-approx"):
            return FullyDynamicClusterer(
                self.eps,
                self.minpts,
                rho=self.effective_rho,
                dim=self.dim,
                fragment_cache=self.fragment_cache,
            )
        if algorithm == "incdbscan":
            return IncDBSCAN(self.eps, self.minpts, dim=self.dim)
        return RecomputeClusterer(self.eps, self.minpts, dim=self.dim)
