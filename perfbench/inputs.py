"""Seeded inputs of every workload: points, op rounds and schedules.

Everything a run feeds the program is built here from the one
``--seed`` before any timer starts.  All workloads share one input
family: seed-spreader points (Gan & Tao, Section 8.1: extent 1e5,
radius 25, 100 points per station, step 50, about ten restarts, 0.01%
uniform noise) at the Table 2 defaults d=3, eps=100d, MinPts=10,
rho=0.001 and %ins=5/6.  The generator is the benchmark's own, so a
change to the program's workload module cannot change the inputs.

Closed-loop workloads run in *rounds*.  A round is a fixed op list
that starts from the base population; after it, an untimed reset
deletes the points the round inserted and re-inserts the base points
it deleted, so the live set returns to the base population and every
round measures the same stationary job.  A run cycles through
:data:`ROUND_TEMPLATES` templates; how many rounds it measures is set
by ``--seconds`` (see ``workloads.ROUNDS_PER_SECOND``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

DIM = 3
EPS = 100.0 * DIM
MINPTS = 10
RHO = 0.001
ALGORITHM = "full"
INSERT_FRACTION = 5.0 / 6.0

#: Live points bulk-loaded during set-up (counted in ``setup_s``).  At
#: 30,000 the run-to-run spread of the timings on a shared 2-cpu box
#: was about twice what it is at this size.
BASE_POINTS = 10_000
#: Independent seed-spreader draws the points are pooled from; with a
#: single draw (about ten walks) the per-cell density a point sees
#: varied by 2x from seed to seed.
SPREADER_BLOCKS = 4
#: Distinct round templates a run cycles through.
ROUND_TEMPLATES = 6

# Seed-spreader constants (the paper's).
EXTENT = 1e5
RADIUS = 25.0
STEP = 50.0
POINTS_PER_STATION = 100
RESTARTS = 10.0
NOISE_FRACTION = 0.0001

# paper-stream: one op per call.
PAPER_ROUND_UPDATES = 2_000
#: One C-group-by per this many updates (f_qry = 0.05N).
PAPER_QUERY_EVERY = 20
PAPER_QUERY_SIZES = (2, 100)

# bulk-churn / sharded-churn: batches of B inserts and B/5 deletes.
BULK_BATCH = 1_000
BULK_DELETE = BULK_BATCH // 5
BULK_QUERY = 500
BULK_BATCHES_PER_ROUND = 4
BULK_SNAPSHOT_EVERY = 2

POOL_POINTS = ROUND_TEMPLATES * BULK_BATCH * BULK_BATCHES_PER_ROUND

Point = Tuple[float, ...]


def seed_spreader(n: int, seed: int, dim: int = DIM) -> np.ndarray:
    """``n`` seed-spreader points in arrival order (shuffled), ``(n, dim)``."""
    rng = np.random.default_rng(seed)
    noise = int(round(n * NOISE_FRACTION))
    m = n - noise
    restart = rng.random(m) < min(1.0, RESTARTS / max(1, m))
    steps = rng.standard_normal((m // POINTS_PER_STATION + 1, dim))
    jumps = rng.random((int(restart.sum()) + 1, dim)) * EXTENT
    centers = np.empty((m, dim))
    loc = rng.random(dim) * EXTENT
    emitted = step_i = jump_i = 0
    start = 0
    for i in range(m):
        emitted += 1
        moved = False
        if emitted >= POINTS_PER_STATION:
            d = steps[step_i]
            step_i += 1
            new = np.clip(loc + STEP * d / (np.linalg.norm(d) or 1.0), 0, EXTENT)
            emitted = 0
            moved = True
        if restart[i]:
            new = jumps[jump_i]
            jump_i += 1
            emitted = 0
            moved = True
        if moved:
            centers[start:i + 1] = loc
            loc = new
            start = i + 1
    centers[start:] = loc
    dirs = rng.standard_normal((m, dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    scale = RADIUS * rng.random(m) ** (1.0 / dim) / norms
    clustered = np.clip(centers + dirs * scale[:, None], 0.0, EXTENT)
    pts = np.concatenate([clustered, rng.random((noise, dim)) * EXTENT])
    return pts[rng.permutation(n)]


def as_points(arr: np.ndarray) -> List[Point]:
    return [tuple(row) for row in arr.tolist()]


@dataclass
class Dataset:
    """The base population plus the pool rounds draw insertions from."""

    base: List[Point]
    pool: List[Point]


def dataset(seed: int) -> Dataset:
    n = BASE_POINTS + POOL_POINTS
    blocks = [
        seed_spreader(n // SPREADER_BLOCKS, seed * SPREADER_BLOCKS + k)
        for k in range(SPREADER_BLOCKS)
    ]
    arr = np.concatenate(blocks)
    pts = as_points(arr[np.random.default_rng(seed).permutation(len(arr))])
    return Dataset(base=pts[:BASE_POINTS], pool=pts[BASE_POINTS:])


# ----------------------------------------------------------------------
# Round templates
# ----------------------------------------------------------------------
#
# Victims and query ids depend on which ids are live, which is only
# known while the round runs; the template fixes them as uniform
# fractions drawn from the seed, so the same seed always picks the same
# ids against the same (deterministic) live list.


def paper_rounds(data: Dataset, seed: int) -> List[list]:
    """Templates of ``("insert", point)`` / ``("delete", u)`` /
    ``("query", (u, ...))`` / ``("snapshot", None)`` op lists."""
    rng = random.Random(seed * 7919 + 1)
    inserts = int(round(PAPER_ROUND_UPDATES * INSERT_FRACTION))
    rounds = []
    for t in range(ROUND_TEMPLATES):
        kinds = [True] * inserts + [False] * (PAPER_ROUND_UPDATES - inserts)
        rng.shuffle(kinds)
        pool = iter(data.pool[t * inserts:(t + 1) * inserts])
        ops: list = []
        for i, is_insert in enumerate(kinds, start=1):
            ops.append(("insert", next(pool)) if is_insert else ("delete", rng.random()))
            if i % PAPER_QUERY_EVERY == 0:
                size = rng.randint(*PAPER_QUERY_SIZES)
                ops.append(("query", tuple(rng.random() for _ in range(size))))
            if i in (PAPER_ROUND_UPDATES // 2, PAPER_ROUND_UPDATES):
                ops.append(("snapshot", None))
        rounds.append(ops)
    return rounds


@dataclass
class Batch:
    """One bulk-churn step: ingest, delete, query, maybe snapshot."""

    points: List[Point]
    delete_u: Sequence[float]
    query_u: Sequence[float]
    snapshot: bool


def bulk_rounds(data: Dataset, seed: int) -> List[List[Batch]]:
    rng = np.random.default_rng(seed * 7919 + 2)
    rounds = []
    cursor = 0
    for _ in range(ROUND_TEMPLATES):
        batches = []
        for b in range(1, BULK_BATCHES_PER_ROUND + 1):
            batches.append(
                Batch(
                    points=data.pool[cursor:cursor + BULK_BATCH],
                    delete_u=rng.random(BULK_DELETE).tolist(),
                    query_u=rng.random(BULK_QUERY).tolist(),
                    snapshot=b % BULK_SNAPSHOT_EVERY == 0,
                )
            )
            cursor += BULK_BATCH
        rounds.append(batches)
    return rounds


# ----------------------------------------------------------------------
# service-open: traffic mix and arrival schedule
# ----------------------------------------------------------------------


@dataclass
class Request:
    """One open-loop request: due time (s from phase start) and payload."""

    due: float
    conn: int
    kind: str
    size: int
    points: Optional[List[Point]]
    u: Sequence[float]


def service_schedule(
    data: Dataset, seed: int, rate: float, seconds: float, conns: int
) -> List[Request]:
    """``rate * seconds`` requests, one every ``1/rate`` s, fitted mix.

    Op kinds and sizes follow the program's fitted traffic model
    (:func:`repro.workload.traffic.default_service_mix`), sampled
    without replacement: requests are dealt from seeded shuffles of the
    trace the model is fitted on, so every 26 requests hold exactly the
    fitted mix.  Drawn independently (``TrafficMixSampler.sample``), the
    share of costly kinds moved the mean update cost by a fifth from
    seed to seed.  Each request goes to a connection drawn at random.
    Arrivals are evenly spaced rather than Poisson: with Poisson
    clumping the median latency moved by about a quarter from seed to
    seed.
    """
    from repro.workload.traffic import DEFAULT_SERVICE_TRACE, default_service_mix

    mix = default_service_mix()
    deck = list(DEFAULT_SERVICE_TRACE)
    for kind in mix.kinds:  # the deck is the model's fitted population
        share = sum(1 for k, _ in deck if k == kind) / len(deck)
        assert abs(share - mix.weight(kind)) < 1e-9, kind
    rng = random.Random(seed * 7919 + 3)
    count = int(rate * seconds)
    ops: List[Tuple[str, int]] = []
    while len(ops) < count:
        rng.shuffle(deck)
        ops += deck
    requests = []
    cursor = 0
    pool = data.pool
    for i, (kind, size) in enumerate(ops[:count]):
        points = None
        if kind == "ingest":
            points = [pool[(cursor + j) % len(pool)] for j in range(size)]
            cursor += size
        requests.append(
            Request(
                due=i / rate,
                conn=rng.randrange(conns),
                kind=kind,
                size=size,
                points=points,
                u=tuple(rng.random() for _ in range(size)),
            )
        )
    return requests
