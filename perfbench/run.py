"""The repo's benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-stream --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload once, untraced, and prints the
end-to-end metrics.  ``--trace 1`` runs it untraced and then traced,
and prints the per-layer metrics of the traced run plus, for every
end-to-end metric, the tracing overhead (traced / untraced - 1).

Each phase runs in a fresh ``phase.py`` process with every BLAS thread
pool pinned to one thread, and every process of the phase pinned to
one CPU.  The run refuses to start when a
``REPRO_*`` variable is set, since those silently switch the program's
backend, cache, transport, fault plan or sizes.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment fingerprint and a
readable table.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, UNGATED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-stream", "bulk-churn", "service-open", "sharded-churn")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: Wall-clock budget of a whole run, all phases included.
RUN_BUDGET_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_fingerprint() -> dict:
    """Git commit (when the tree is a checkout) and a hash of ``src``."""
    commit = "unavailable (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
            else:
                commit = f"packed {ref[5:]}"
        else:
            commit = ref
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_phase(args, traced: bool, env: dict, deadline: float) -> dict:
    """Run one phase in its own process group; kill the group on timeout.

    The group holds everything the phase starts (server process, shard
    workers), so nothing outlives a phase that overran its budget.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "phase.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--traced", str(int(traced)),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("phase overran the run's time budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def print_table(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:14.4f} {units[name]:6s} {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        return fail(f"refusing to run with {', '.join(knobs)} set; unset them")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail(f"no program sources under {os.path.join(ROOT, 'src')}")
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Every process of a phase (program, workers, server, calibration
    # helper) inherits this: the helper then samples the very CPU the
    # program runs on.  The gated timings are CPU times, so processes
    # taking turns on one CPU does not inflate them.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        phases = [run_phase(args, False, env, deadline)]
        if args.trace:
            phases.append(run_phase(args, True, env, deadline))
    except (RuntimeError, json.JSONDecodeError) as exc:
        return fail(f"{args.workload}: {exc}")
    plain = phases[0]

    stamp = dict(plain["fingerprint"])
    stamp.update(source_fingerprint())
    for key in ("shard_executor", "shard_transport", "shard_start_method"):
        stamp[key] = plain["info"].get(key, "n/a (unsharded)")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    for i, phase in enumerate(phases):
        kind = "traced" if i else "untraced"
        print(f"{kind}: correct={phase['correct']} attempted={phase['attempted']} "
              f"failed={phase['failed']} check: {phase['selftest']} "
              f"problems={phase['problems']}")
        print(f"{kind} info " + json.dumps(phase["info"], sort_keys=True))

    e2e_units = {name: unit for name, unit, _ in END_TO_END}
    shown = {name: plain["metrics"][name] for name in e2e_units}
    shown.update({name: plain["extra"][name] for name, _ in UNGATED})
    shown_units = dict(e2e_units, **dict(UNGATED))
    notes = {
        name: f"(p{t['pct']:g} of {t['samples']} samples, {t['beyond']} beyond)"
        for name, t in plain["tails"].items()
    }
    notes["setup_s"] = f"(median of {len(plain['info']['setup_times'])} set-ups)"
    for name in ("update_cpu_us", "query_cpu_us", "snapshot_cpu_ms"):
        notes[name] = "(mean per call)"
    if args.trace:
        traced = phases[1]
        layer_units = {name: unit for name, unit, _ in PER_LAYER}
        values = {name: traced["layers"].get(name, 0.0) for name in layer_units
                  if not name.startswith("overhead.")}
        for name in e2e_units:
            base = plain["metrics"][name]
            values[f"overhead.{name}"] = (
                traced["metrics"][name] / base - 1.0 if base else 0.0
            )
        print_table("end-to-end (untraced)", shown, shown_units, notes)
        print_table("per-layer (traced)", values, layer_units, {})
        units = layer_units
    else:
        values = {name: plain["metrics"][name] for name in e2e_units}
        print_table("end-to-end", shown, shown_units, notes)
        units = e2e_units
    if set(values) != set(units):
        return fail(f"metric set differs from metrics.py: {set(values) ^ set(units)}")
    print(json.dumps({
        "correct": all(p["correct"] for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
