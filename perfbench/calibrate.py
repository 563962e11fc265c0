"""A fixed reference job that tracks how fast the machine is right now.

On a shared host the same code ran up to 2.2x slower in CPU time, not
only in wall time, from one minute to the next (presumably other tenants
sharing the host's caches and cores), so no run length made raw
timings repeat.  Each phase therefore runs this job, which is the
benchmark's own and never changes, in a helper process before and
after each measured round (each segment, in ``service-open``), and
scales the round's CPU timings by

    factor = REFERENCE_NS / mean(job CPU time before, job CPU time after)

so they read as if the machine ran the reference job in
:data:`REFERENCE_NS`.  The machine's speed drifted within seconds (the
median bulk update of one process moved by a tenth between 4-second
windows), so each round gets its own factor; each set-up is bracketed
the same way.  A change to the program moves the scaled timings as
much as the raw ones, since the job calls no program code.  The
helper holds no program state, so the program's heap cannot slow it.

The job mixes the kinds of work the program's time goes to: random
walks over a heap of small Python objects and a large dict (most of a
bulk update's time is interpreted code chasing pointers through the
grid and its indexes), small numpy distance blocks, and building an
array from a list of tuples.

Usage as a helper: ``python3 perfbench/calibrate.py`` reads one line per
request on stdin and answers each with the job's CPU time in ns.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List

#: Nominal CPU time of one reference job; the scale of every gated timing.
REFERENCE_NS = 10_000_000


def _job():
    import random

    import numpy as np

    rng = np.random.default_rng(20170514)
    pick = random.Random(20170514)
    sa = rng.random((64, 3)) * 1e3
    sb = rng.random((256, 3)) * 1e3
    rows = [tuple(row) for row in rng.random((1000, 3)).tolist()]
    # A heap of small objects far larger than a core's caches, walked
    # in random order, as the program walks its grid cells and indexes.
    cells = [[i, float(i), {i}] for i in range(200_000)]
    index = {i * 7919: (i, float(i)) for i in range(200_000)}
    walk = [pick.randrange(len(cells)) for _ in range(10_000)]
    keys = [pick.randrange(len(index)) * 7919 for _ in range(10_000)]

    def run() -> None:
        total = 0.0
        for i in walk:
            cell = cells[i]
            total += cell[1] + len(cell[2])
        for k in keys:
            count, value = index[k]
            index[k] = (count, value + 1.0)
        for _ in range(2):
            d = ((sa[:, None, :] - sb[None, :, :]) ** 2).sum(-1)
            (d < 1e4).sum(1)
        np.array(rows)

    return run


def _serve() -> None:
    run = _job()
    run()  # warm-up: first-call costs are not the machine's speed
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.process_time_ns()
        run()
        print(time.process_time_ns() - t0, flush=True)


def _median(values: List[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale(before: float, after: float) -> float:
    """The factor of a stretch bracketed by samples ``before`` and ``after``."""
    return REFERENCE_NS / ((before + after) / 2)


class Calibrator:
    """The helper process and the reference-job samples of one phase."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: List[int] = []
        # Wait out the helper's start-up so no set-up is charged for it.
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration helper failed to start")

    def sample(self, count: int = 1) -> float:
        """Run the reference job ``count`` times; their median time (ns)."""
        new = []
        for _ in range(count):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("calibration helper exited")
            new.append(int(line))
        self.samples += new
        return _median(new)

    def factor(self) -> float:
        """``REFERENCE_NS`` over the median of every sample (for display)."""
        return REFERENCE_NS / _median(self.samples)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


if __name__ == "__main__":
    _serve()
