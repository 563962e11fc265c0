"""Per-cell point store: an id -> point map with packed row arrays.

Every grid cell keeps its points in one :class:`PointBlock`.  It *is*
the cell's ``id -> point`` dict (point lookups and membership tests stay
plain dict operations) and it also maintains the same points as packed
numpy rows — ``ids`` (int64) and ``coords`` (float64, ``(n, dim)``) —
so the vectorized paths read a cell's arrays directly instead of
rebuilding them from tuples on every barrier or bulk update.

The rows are kept current as points change: a single insert writes one
row, a bulk insert writes one slice, and a removal is a swap-remove
(the last row moves into the hole).  Rows therefore carry **no order
guarantee**; nothing may depend on them beyond being the cell's point
set.  ``ids`` and ``coords`` are views into the block's buffers, valid
only until the next mutation — copy them before keeping them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.geometry.points import Point

__all__ = ["PointBlock"]

_INITIAL_CAPACITY = 8

_dict_set = dict.__setitem__
_dict_del = dict.__delitem__
_dict_update = dict.update


class PointBlock(dict):
    """One cell's points: a read-only ``id -> point`` dict plus packed rows.

    Mutate only through :meth:`add`, :meth:`add_many` and :meth:`remove`;
    the dict mutators raise so no point can bypass the rows.
    """

    __slots__ = ("_rows", "_ids", "_coords")

    def __init__(self, dim: int) -> None:
        super().__init__()
        self._rows: Dict[int, int] = {}
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._coords = np.empty((_INITIAL_CAPACITY, dim), dtype=float)

    @property
    def ids(self) -> np.ndarray:
        """Point ids, one per row (a view: copy before keeping)."""
        return self._ids[: len(self)]

    @property
    def coords(self) -> np.ndarray:
        """``(n, dim)`` coordinates, row-aligned with :attr:`ids` (a view)."""
        return self._coords[: len(self)]

    def coords_of(self, pids: Sequence[int]) -> np.ndarray:
        """Coordinates of ``pids`` in the given order (a fresh array)."""
        rows = self._rows
        return self._coords[[rows[pid] for pid in pids]]

    def _reserve(self, needed: int) -> None:
        capacity = len(self._ids)
        if needed <= capacity:
            return
        capacity = max(2 * capacity, needed)
        n = len(self)
        ids = np.empty(capacity, dtype=np.int64)
        ids[:n] = self._ids[:n]
        coords = np.empty((capacity, self._coords.shape[1]), dtype=float)
        coords[:n] = self._coords[:n]
        self._ids, self._coords = ids, coords

    def add(self, pid: int, pt: Point) -> None:
        """Store a new point: one dict entry and one row write."""
        n = len(self)
        if n == len(self._ids):
            self._reserve(n + 1)
        self._ids[n] = pid
        self._coords[n] = pt
        self._rows[pid] = n
        _dict_set(self, pid, pt)

    def add_many(
        self, pids: List[int], pts: List[Point], coords: np.ndarray
    ) -> None:
        """Store new points with one slice write; ``coords`` rows match ``pts``."""
        n = len(self)
        end = n + len(pids)
        self._reserve(end)
        self._ids[n:end] = pids
        self._coords[n:end] = coords
        self._rows.update(zip(pids, range(n, end)))
        _dict_update(self, zip(pids, pts))

    def remove(self, pid: int) -> None:
        """Drop a point; the last row moves into its slot (swap-remove)."""
        row = self._rows.pop(pid)
        _dict_del(self, pid)
        last = len(self)
        if row != last:
            moved = self._ids.item(last)
            self._ids[row] = moved
            self._coords[row] = self._coords[last]
            self._rows[moved] = row

    def _read_only(self, *args, **kwargs):
        raise TypeError("PointBlock changes only through add/add_many/remove")

    __setitem__ = __delitem__ = _read_only
    pop = popitem = clear = update = setdefault = __ior__ = _read_only
