"""The per-cell point store (:class:`repro.core.pointblock.PointBlock`).

Unit tests pin the block's own contract (one row per point, swap-remove,
growth, read-only dict surface); the property test drives both grid
clusterers through mixed scalar and bulk updates — a cell growing past
the initial capacity, emptied until it is unlinked, then refilled — and
checks after every step that each cell's packed rows equal its point set
(``check_invariants``) and that the snapshot equals a cache-off one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.pointblock import PointBlock
from repro.core.semidynamic import SemiDynamicClusterer
from repro.validation import check_invariants


def _rows(block: PointBlock):
    """The block's rows as a ``{pid: point}`` dict."""
    return {
        pid: tuple(row)
        for pid, row in zip(block.ids.tolist(), block.coords.tolist())
    }


class TestPointBlock:
    def test_add_and_add_many_write_rows(self):
        block = PointBlock(2)
        block.add(4, (1.0, 2.0))
        pts = [(3.0, 4.0), (5.0, 6.0)]
        block.add_many([7, 9], pts, np.array(pts))
        assert dict(block) == {4: (1.0, 2.0), 7: (3.0, 4.0), 9: (5.0, 6.0)}
        assert _rows(block) == dict(block)
        assert block.coords_of([9, 4]).tolist() == [[5.0, 6.0], [1.0, 2.0]]

    def test_remove_swaps_last_row_into_the_hole(self):
        block = PointBlock(1)
        for pid in range(5):
            block.add(pid, (float(pid),))
        block.remove(1)
        assert block.ids.tolist() == [0, 4, 2, 3]
        assert _rows(block) == dict(block)
        block.remove(3)  # the last row: nothing moves
        assert block.ids.tolist() == [0, 4, 2]
        assert block.coords_of([4]).tolist() == [[4.0]]

    def test_grows_past_initial_capacity(self):
        block = PointBlock(3)
        capacity = len(block._ids)
        pts = [(float(i), 0.0, -float(i)) for i in range(capacity * 3)]
        block.add_many(list(range(2)), pts[:2], np.array(pts[:2]))
        for pid in range(2, len(pts)):
            block.add(pid, pts[pid])
        assert len(block) == len(pts) > capacity
        assert _rows(block) == dict(enumerate(pts))

    def test_dict_mutators_are_refused(self):
        block = PointBlock(2)
        block.add(0, (0.0, 0.0))
        for mutate in (
            lambda: block.__setitem__(1, (1.0, 1.0)),
            lambda: block.__delitem__(0),
            lambda: block.pop(0),
            lambda: block.update({1: (1.0, 1.0)}),
            lambda: block.clear(),
        ):
            with pytest.raises(TypeError):
                mutate()
        assert _rows(block) == dict(block) == {0: (0.0, 0.0)}

    def test_ids_view_tracks_mutations(self):
        """``ids``/``coords`` are views: a kept copy must not move."""
        block = PointBlock(1)
        for pid in range(3):
            block.add(pid, (float(pid),))
        kept = block.ids.copy()
        view = block.ids
        block.remove(0)
        assert kept.tolist() == [0, 1, 2]
        assert view[0] == 2  # the view saw the swap-remove


# ----------------------------------------------------------------------
# Property: blocks stay exact under mixed scalar/bulk churn
# ----------------------------------------------------------------------

EPS, MINPTS = 1.0, 4

#: Coordinates on a 0.25 lattice over [0, 1.5]^2 crowd ~9 cells of side
#: ~0.71, so cells routinely outgrow the initial block capacity.
_point = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
    lambda t: (t[0] * 0.25, t[1] * 0.25)
)
_op = st.one_of(
    st.tuples(st.just("insert"), _point),
    st.tuples(st.just("insert_many"), st.lists(_point, min_size=1, max_size=20)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(
        st.just("delete_many"),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
    ),
)


def _snapshot(algo):
    clustering = algo.clusters()
    return sorted(sorted(c) for c in clustering.clusters), sorted(clustering.noise)


class _Pair:
    """The clusterer under test plus a cache-off twin fed the same ops."""

    def __init__(self, cls, cache: bool) -> None:
        self.algo = cls(EPS, MINPTS, rho=0.0, dim=2, fragment_cache=cache)
        self.ref = cls(EPS, MINPTS, rho=0.0, dim=2, fragment_cache=False)
        self.live: list = []

    def insert(self, pt) -> None:
        pid = self.algo.insert(pt)
        assert self.ref.insert(pt) == pid
        self.live.append(pid)

    def insert_many(self, pts) -> None:
        pids = self.algo.insert_many(pts)
        assert self.ref.insert_many(pts) == pids
        self.live.extend(pids)

    def delete(self, pid) -> None:
        self.algo.delete(pid)
        self.ref.delete(pid)
        self.live.remove(pid)

    def delete_many(self, pids) -> None:
        self.algo.delete_many(pids)
        self.ref.delete_many(pids)
        for pid in pids:
            self.live.remove(pid)

    def check(self) -> None:
        assert check_invariants(self.algo) == []
        assert _snapshot(self.algo) == _snapshot(self.ref)


@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
@pytest.mark.parametrize(
    "cls", [FullyDynamicClusterer, SemiDynamicClusterer], ids=["full", "semi"]
)
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25))
def test_blocks_match_point_sets_under_churn(cls, cache, ops):
    pair = _Pair(cls, cache)
    deletes = cls is FullyDynamicClusterer
    for kind, arg in ops:
        if kind == "insert":
            pair.insert(arg)
        elif kind == "insert_many":
            pair.insert_many(arg)
        elif not deletes or not pair.live:
            continue
        elif kind == "delete":
            pair.delete(pair.live[arg % len(pair.live)])
        else:
            pids = sorted({pair.live[i % len(pair.live)] for i in arg})
            pair.delete_many(pids)
        pair.check()

    # Grow one cell past the initial block capacity (scalar and bulk).
    target = (0.1, 0.1)
    capacity = len(PointBlock(2)._ids)
    pair.insert_many([target] * capacity)
    pair.insert(target)
    pair.check()
    cell = pair.algo.cell_of(pair.live[-1])
    assert len(pair.algo._cells[cell].points) > capacity
    if not deletes:
        return
    # Empty it (scalar and bulk deletes) until it is unlinked, then refill.
    in_cell = [pid for pid in pair.live if pair.algo.cell_of(pid) == cell]
    pair.delete(in_cell[0])
    pair.check()
    pair.delete_many(in_cell[1:])
    assert cell not in pair.algo._cells
    pair.check()
    pair.insert_many([target] * 3)
    for _ in range(capacity):
        pair.insert(target)
    assert len(pair.algo._cells[cell].points) == capacity + 3
    pair.check()
