"""CPU time of the system under test, summed over its processes (Linux).

Every timing the benchmark gates is CPU time, not wall time.  On a
shared host the wall clock of a call also counts the time its vCPU was
handed to another tenant (steal) and the time it sat in a run queue;
on a loaded 2-cpu box that made the median of a 10-ms call vary by a
third from run to run.  The kernel charges neither to a process's CPU
clock (``CLOCK_PROCESS_CPUTIME_ID``; steal is left out where the guest
kernel accounts it, ``CONFIG_PARAVIRT_TIME_ACCOUNTING``).

A process's CPU clock covers all its threads.  Another process's clock
is read with ``clock_gettime`` on the clock id the kernel derives from
its pid, so shard workers and the service's server process are timed
from the calling process without touching the program.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Tuple

#: ``CPUCLOCK_SCHED``: the scheduler's runtime clock of a whole process.
_CPUCLOCK_SCHED = 2


def process_cpu_ns(pid: int) -> int:
    """CPU time process ``pid`` has used so far, in ns; 0 once it is gone."""
    try:
        return time.clock_gettime_ns(((~pid) << 3) | _CPUCLOCK_SCHED)
    except OSError:
        return 0


def descendants(root: int = 0) -> List[int]:
    """Pids of every live process below ``root`` (default: this process)."""
    root = root or os.getpid()
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces; the fields after it do not.
        parent[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [child for child, ppid in parent.items() if ppid == pid]
        found += kids
        frontier += kids
    return sorted(found)


class CpuClock:
    """Summed CPU clocks of this process (optionally) and watched pids."""

    def __init__(self, pids: Iterable[int] = (), own: bool = True) -> None:
        self.pids = list(pids)
        self.own = own

    def now(self) -> int:
        total = time.process_time_ns() if self.own else 0
        for pid in self.pids:
            total += process_cpu_ns(pid)
        return total


Mark = Tuple[int, Dict[int, int]]


def mark() -> Mark:
    """This process's CPU clock and those of its descendants, now."""
    return time.process_time_ns(), {pid: process_cpu_ns(pid) for pid in descendants()}


def seconds_since(start: Mark) -> float:
    """CPU seconds this process and its descendants used since ``start``.

    A descendant started after ``start`` counts from its birth; one that
    was reaped in between is lost, so take the mark after tearing down
    and read it before the next teardown.
    """
    own, before = start
    spent = time.process_time_ns() - own
    for pid in descendants():
        spent += process_cpu_ns(pid) - before.get(pid, 0)
    return spent / 1e9
