"""One shard of a sharded deployment: an engine plus its trust boundary.

A :class:`ShardBackend` wraps one ordinary :class:`repro.api.Engine`
over this shard's slice of the data — every point of every cell whose
ownership block hashed here, plus halo replicas of foreign cells within
the grid's closeness reach (see :mod:`repro.shard.topology`).  Because
the halo completes the neighborhoods of all owned cells, the engine's
core-status decisions (and emptiness structures) for *owned* cells are
exactly what a single global engine computes; its view of halo cells is
advisory only.  Accordingly, every resolution the backend reports is
restricted by the ownership predicate, and anything touching foreign
territory comes back as probes/candidates for the router's boundary
merge.

The backend is the unit the executors move across process boundaries:
it is constructed from ``(config, shard_index, shard_count)`` alone and
all its method arguments and results are plain data.  Bulk payloads —
point batches, id arrays, the fragment frontiers — are numpy arrays,
and :data:`BULK_CALLS` declares exactly which calls carry them, so the
shard wire (:mod:`repro.shard.rpc`) streams them as raw array frames
without guessing, never as pickled per-element python objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import EngineConfig
from repro.api.engine import Engine
from repro.core.bulk import GumEdgeFragment, MembershipFragments
from repro.errors import ReproError, UnknownPointError
from repro.shard.topology import ShardTopology


@dataclass(frozen=True)
class BulkSpec:
    """Where one executor call's bulk numpy payloads are declared to live.

    ``arg_positions`` names the positional arguments that may hold (or
    contain) bulk arrays; ``bulk_result`` declares the same for the
    call's result.  Everything undeclared is control metadata and is
    pickled untouched — the framer never guesses.
    """

    arg_positions: Tuple[int, ...] = ()
    bulk_result: bool = False

#: The wire contract of the executor call surface: which calls
#: carry bulk numpy payloads, and where.  ``ingest`` takes an ``(n,
#: dim)`` float64 point batch and returns an int64 local-id array;
#: ``delete_many`` takes an int64 local-id array; ``merge_state`` takes
#: an optional int64 local-id array and returns fragments whose
#: frontier coordinate arrays are the bulk of every merge.  Everything
#: else (``ping``, ``stats``, ``is_core``, ...) is control-plane only.
BULK_CALLS = {
    "ingest": BulkSpec(arg_positions=(0,), bulk_result=True),
    "delete_many": BulkSpec(arg_positions=(0,)),
    "merge_state": BulkSpec(arg_positions=(0,), bulk_result=True),
    # Journal truncation: the supervisor drains a shard's live state
    # (point batch + local-id array) and re-seeds a fresh worker with
    # it before replaying the journal suffix.
    "export_state": BulkSpec(arg_positions=(), bulk_result=True),
    "restore_state": BulkSpec(arg_positions=(0, 1)),
}

#: The state-mutating subset of the executor call surface — exactly the
#: calls the shard supervisor journals, because replaying them (in
#: order, against a freshly rebuilt backend) reproduces the backend's
#: state bit-for-bit.  Every other call is read-only and safe to retry
#: without journaling.  ``restore_state`` mutates but is deliberately
#: absent: only the supervisor issues it, as the seed a journal suffix
#: replays on top of — journaling it would recurse.
MUTATING_CALLS = frozenset({"ingest", "delete_many", "set_ownership"})

IdBatch = Union[Sequence[int], np.ndarray]


def _id_list(local_pids: IdBatch) -> List[int]:
    """Normalize an id payload (array or list) to plain python ints."""
    if isinstance(local_pids, np.ndarray):
        return local_pids.tolist()
    return [int(pid) for pid in local_pids]


class ShardBackend:
    """One per-shard engine behind the ownership trust predicate."""

    def __init__(
        self, config: EngineConfig, shard_index: int, shard_count: int
    ) -> None:
        # The per-shard engine is an ordinary single engine: strip the
        # sharding knobs so construction cannot recurse.
        self.config = config.replace(
            shards=None,
            shard_block=None,
            shard_executor=None,
            shard_call_timeout=None,
            shard_max_restarts=None,
            shard_fault_plan=None,
            shard_workers=None,
            shard_journal_snapshot_every=None,
        )
        self.index = shard_index
        self.topology = ShardTopology(
            eps=config.eps,
            dim=config.dim,
            rho=config.effective_rho,
            shard_count=shard_count,
            block=config.resolved_shard_block,
        )
        self._trust = self.topology.trust(shard_index)
        self.engine = Engine.open(self.config)
        # Local-id indirection.  The router addresses this shard by
        # *local* ids; normally those coincide with the engine's own
        # sequential pids.  After a snapshot restore the fresh engine
        # re-numbers from zero, so the backend keeps a bidirectional
        # map and translates at the call boundary — local ids (and
        # therefore everything the router ever sees) survive recovery
        # unchanged.  ``_identity`` short-circuits the translation on
        # the hot paths until the first restore makes it necessary.
        self._identity = True
        self._local_to_engine: dict = {}
        self._engine_to_local: dict = {}
        self._next_local = 0
        self._epoch_offset = 0

    # ------------------------------------------------------------------
    # Updates (local ids; the router owns the global id space)
    # ------------------------------------------------------------------

    def ingest(
        self,
        points: Union[Sequence[Sequence[float]], np.ndarray],
        version: Optional[int] = None,
    ) -> np.ndarray:
        """Bulk-insert this shard's slice of a batch.

        Returns the assigned local ids as an int64 array — the declared
        bulk-result form, identical under every executor.
        ``version`` is the router's ownership-table stamp (checked
        against this shard's table; ``None`` skips the check).
        """
        self.topology.check_version(version)
        engine_pids = self.engine.ingest(points)
        start = self._next_local
        self._next_local += len(engine_pids)
        local = np.arange(start, self._next_local, dtype=np.int64)
        self._local_to_engine.update(zip(local.tolist(), engine_pids))
        self._engine_to_local.update(zip(engine_pids, local.tolist()))
        return local

    def delete_many(
        self, local_pids: IdBatch, version: Optional[int] = None
    ) -> None:
        """Bulk-delete by local ids (router pre-validated the batch)."""
        self.topology.check_version(version)
        ids = _id_list(local_pids)
        self.engine.delete_many([self._engine_id(i) for i in ids])
        for i in ids:
            engine_pid = self._local_to_engine.pop(i)
            del self._engine_to_local[engine_pid]

    # ------------------------------------------------------------------
    # Merge inputs
    # ------------------------------------------------------------------

    def merge_state(
        self,
        local_pids: Optional[IdBatch],
        version: Optional[int] = None,
    ) -> Tuple[Optional[MembershipFragments], GumEdgeFragment, int]:
        """Everything the router needs from this shard for one merge.

        Membership fragments for the queried local ids (``None`` when the
        query touches no point owned here), this shard's GUM edge
        fragment over its owned core cells, and the backend epoch — the
        consistency token the router checks against the update count it
        routed here, so a merge can never silently combine shards at
        different dataset versions.
        """
        self.topology.check_version(version)
        fragments = None
        if local_pids is not None:
            ids = _id_list(local_pids)
            if not self._identity:
                ids = [self._engine_id(i) for i in ids]
            fragments = self.engine.membership_fragments(
                ids, trust=self._trust
            )
            if not self._identity:
                fragments = self._fragments_to_local(fragments)
        return (
            fragments,
            self.engine.gum_edge_fragment(trust=self._trust),
            self.epoch(),
        )

    def _fragments_to_local(
        self, fragments: MembershipFragments
    ) -> MembershipFragments:
        """Rewrite a fragment set from engine pids back to local ids."""
        to_local = self._engine_to_local
        return MembershipFragments(
            fragments={
                cell: [to_local[pid] for pid in members]
                for cell, members in fragments.fragments.items()
            },
            unmatched=[to_local[pid] for pid in fragments.unmatched],
            probes=[(to_local[pid], cell) for pid, cell in fragments.probes],
        )

    # ------------------------------------------------------------------
    # Ownership and recovery state (supervisor / rebalance surface)
    # ------------------------------------------------------------------

    def set_ownership(self, version: int, overrides: dict) -> int:
        """Install a new block→shard table (a rebalance flip); journaled.

        Returns the installed version.  The trust predicate closes over
        the topology's live caches, so owned-cell decisions follow the
        new table immediately.
        """
        self.topology.apply_ownership(version, overrides)
        return self.topology.version

    def export_state(self) -> dict:
        """This shard's full recoverable state, as plain bulk data.

        The supervisor's journal-truncation path: the live point batch
        (sorted by local id) plus everything needed to re-seed a fresh
        worker — local ids, the id allocator cursor, the epoch, and the
        ownership table.  At rho=0 the clustering is a pure function of
        the live point set, so ``restore_state`` of this payload plus a
        replay of the journal suffix is bit-identical to the original
        history.
        """
        local_ids = sorted(self._local_to_engine)
        points = np.empty((len(local_ids), self.config.dim), dtype=np.float64)
        for row, local in enumerate(local_ids):
            points[row] = self.engine.point(self._local_to_engine[local])
        return {
            "points": points,
            "local_ids": np.asarray(local_ids, dtype=np.int64),
            "next_local": self._next_local,
            "epoch": self.epoch(),
            "version": self.topology.version,
            "overrides": self.topology.ownership_overrides,
        }

    def restore_state(
        self,
        points: np.ndarray,
        local_ids: np.ndarray,
        next_local: int,
        epoch: int,
        version: int,
        overrides: dict,
    ) -> None:
        """Re-seed a fresh backend from an exported snapshot.

        Only the supervisor calls this (never journaled): the engine
        re-ingests the live set in local-id order, the id maps pin the
        original local ids onto the fresh engine pids, and the epoch
        offset keeps the consistency token counting from the snapshot
        epoch rather than from zero.
        """
        engine_pids = self.engine.ingest(np.asarray(points, dtype=np.float64))
        ids = np.asarray(local_ids, dtype=np.int64).tolist()
        self._identity = False
        self._local_to_engine = dict(zip(ids, engine_pids))
        self._engine_to_local = dict(zip(engine_pids, ids))
        self._next_local = int(next_local)
        self._epoch_offset = int(epoch) - self.engine.epoch
        self.topology.apply_ownership(version, overrides)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def epoch(self) -> int:
        return self.engine.epoch + self._epoch_offset

    def size(self) -> int:
        """Live points held by this shard (owned plus halo replicas)."""
        return len(self.engine)

    def is_core(self, local_pid: int) -> bool:
        if not self._identity:
            local_pid = self._engine_id(local_pid)
        return self.engine.is_core(local_pid)

    def _engine_id(self, local_pid: int) -> int:
        """Translate one local id to the live engine pid behind it."""
        try:
            return self._local_to_engine[int(local_pid)]
        except KeyError:
            raise UnknownPointError(int(local_pid)) from None

    def stats(self):
        return self.engine.stats()

    def ping(self) -> int:
        """Liveness probe (also used to warm worker processes)."""
        return self.index

    def runtime_info(self) -> dict:
        """Where and in what state this backend actually runs.

        The regression surface for worker isolation: a ``spawn``-started
        local worker reports its own pid and a fresh
        (un-inherited) module sentinel, proving the backend was rebuilt
        in-process rather than forked with the parent's state.
        """
        from repro.shard import executors

        return {
            "index": self.index,
            "pid": os.getpid(),
            "sentinel": executors.WORKER_SENTINEL,
            "backend": self.engine.backend,
        }

    def fault(self, kind: str = "plain") -> None:
        """Deliberately raise — the executors' error-relay test surface."""
        if kind == "unpicklable":
            exc = ReproError(
                "injected fault carrying an unpicklable payload"
            )
            exc.payload = lambda: None  # defeats pickle at relay time
            raise exc
        raise ReproError("injected fault")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying engine (idempotent)."""
        self.engine.close()
