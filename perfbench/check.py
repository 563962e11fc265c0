"""Correctness check of a run's final clustering (outside the timed window).

Gan & Tao's sandwich theorem: a rho-double-approximate clustering C
satisfies C1 <= C <= C2, where C1 is exact DBSCAN at eps and C2 exact
DBSCAN at (1+rho)eps — every C1 cluster lies inside some C cluster and
every C cluster inside some C2 cluster.  The bounds come from two fresh
exact engines bulk-loaded with the final live set; the repo's
``check_sandwich`` runs a pure-Python DBSCAN and takes minutes at this
size, so it is not used here.

:func:`self_test` corrupts a clustering the check accepted (one split,
one merge) and confirms both corruptions are flagged, so a run can
show that its check is able to fail.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import repro.api as api

from inputs import DIM, EPS, MINPTS, RHO


class Bounds:
    """C1 and C2 for one live set, plus a point-to-cluster index of each."""

    def __init__(self, coords: Dict[int, Sequence[float]]) -> None:
        self.ids = set(coords)
        order = sorted(coords)
        self.lower = _exact_clusters(order, coords, EPS)
        self.upper = _exact_clusters(order, coords, EPS * (1.0 + RHO))
        self._upper_of = _index(self.upper)

    def violations(
        self, clusters: Sequence[Set[int]], noise: Iterable[int]
    ) -> List[str]:
        """Sandwich violations of ``clusters`` (empty when legal)."""
        found: List[str] = []
        covered = set(noise)
        for cluster in clusters:
            covered |= cluster
        if covered != self.ids:
            found.append(
                f"clustering covers {len(covered)} ids, live set has "
                f"{len(self.ids)} ({len(covered ^ self.ids)} differ)"
            )
        output_of = _index(clusters)
        for i, c1 in enumerate(self.lower):
            anchor = next(iter(c1))
            if not any(c1 <= clusters[j] for j in output_of.get(anchor, ())):
                found.append(f"C1 cluster {i} (size {len(c1)}) is split")
        for i, cluster in enumerate(clusters):
            if not cluster:
                continue
            anchor = next(iter(cluster))
            if not any(
                cluster <= self.upper[j] for j in self._upper_of.get(anchor, ())
            ):
                found.append(f"output cluster {i} (size {len(cluster)}) is over-merged")
        return found


def _exact_clusters(
    order: List[int], coords: Dict[int, Sequence[float]], eps: float
) -> List[Set[int]]:
    with api.open(algorithm="semi", eps=eps, minpts=MINPTS, rho=0.0, dim=DIM) as engine:
        local = engine.ingest([coords[pid] for pid in order])
        global_of = dict(zip(local, order))
        snap = engine.snapshot()
        return [{global_of[pid] for pid in cluster} for cluster in snap.clusters]


def _index(clusters: Sequence[Set[int]]) -> Dict[int, List[int]]:
    index: Dict[int, List[int]] = {}
    for j, cluster in enumerate(clusters):
        for pid in cluster:
            index.setdefault(pid, []).append(j)
    return index


def self_test(
    bounds: Bounds, clusters: Sequence[Set[int]], noise: Iterable[int]
) -> Tuple[bool, str]:
    """Whether the check flags a split and a merge of ``clusters``."""
    noise = set(noise)
    ranked = sorted(clusters, key=len, reverse=True)
    if len(ranked) < 2 or len(ranked[0]) < 2:
        return False, "too few clusters to corrupt"
    big = sorted(ranked[0])
    split = [set(big[: len(big) // 2]), set(big[len(big) // 2:])] + ranked[1:]
    merged = [ranked[0] | ranked[1]] + ranked[2:]
    flagged_split = bool(bounds.violations(split, noise))
    flagged_merge = bool(bounds.violations(merged, noise))
    ok = flagged_split and flagged_merge
    return ok, f"split flagged={flagged_split} merge flagged={flagged_merge}"
