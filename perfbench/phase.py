"""One measured phase of one workload, in a process of its own.

Usage: ``python3 perfbench/phase.py --workload W --seed N --seconds S
--traced 0|1`` with the BLAS thread pools already pinned by ``run.py``.
Prints one JSON object as its last stdout line: the end-to-end metrics
of the phase, the tail accounting, the per-layer metrics (traced phases
only), the correctness verdict and the environment fingerprint.  A
fresh process per phase keeps peak memory and warm caches of one phase
out of the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy  # noqa: E402
from repro import kernels  # noqa: E402

import check  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import inputs  # noqa: E402
import service_load  # noqa: E402
import workloads  # noqa: E402
from stats import mean, median, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("paper-stream", "bulk-churn", "service-open", "sharded-churn")


def fingerprint() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels": kernels.backend_summary(),
    }


def end_to_end(rec, info: dict):
    """The gated metrics of one phase, the ungated ones (unscaled CPU
    and wall-clock timings), and the tail accounting of the latter.

    Gated timings are CPU times scaled by the calibration factor of
    their round or set-up (``calibrate.py``).  Op costs are means per
    call, the amortized cost the paper's bounds speak of: the service's
    update requests mix cheap buffered ingests with ones that flush the
    buffer, and the median of that mix jumped between the two from
    seed to seed.
    """
    setups = info["setup_times"]
    metrics = {"setup_s": median([used * factor for used, factor in setups])}
    extra = {"unscaled_setup_s": median([used for used, _ in setups])}
    accounting = {}
    for name, scale, unit in (("update", 1e3, "us"), ("query", 1e3, "us"),
                              ("snapshot", 1e6, "ms")):
        samples = getattr(rec, name)
        metrics[f"{name}_cpu_{unit}"] = mean(getattr(rec, name + "_scaled")) / scale
        extra[f"unscaled_{name}_cpu_{unit}"] = mean(getattr(rec, name + "_cpu")) / scale
        pct = tail_percentile(len(samples))
        tail = percentile(samples, pct)
        extra[f"wall_{name}_p50_{unit}"] = median(samples) / scale
        extra[f"wall_{name}_tail_{unit}"] = tail / scale
        accounting[f"wall_{name}_tail_{unit}"] = {
            "pct": pct,
            "samples": len(samples),
            "beyond": sum(1 for v in samples if v > tail),
        }
    metrics["updates_per_cpu_s"] = rec.points_updated / (rec.cpu_scaled_ns / 1e9)
    metrics["ok_frac"] = 1.0 - rec.failed / rec.ops
    metrics["peak_rss_mb"] = info["peak_rss_mb"]
    extra["wall_updates_per_s"] = rec.points_updated / (rec.window_ns / 1e9)
    return metrics, extra, accounting


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    traced = bool(args.traced)
    stamp = fingerprint()

    data = inputs.dataset(args.seed)
    cal = Calibrator()
    try:
        if args.workload == "service-open":
            res = service_load.measure(data, args.seed, args.seconds, traced, cal)
        else:
            res = workloads.measure(
                args.workload, data, args.seed, args.seconds, traced, cal
            )
    finally:
        cal.close()
    rec, info = res["record"], res["info"]
    info["window_s"] = rec.window_ns / 1e9
    info["window_cpu_s"] = rec.cpu_ns / 1e9
    info["calibration_factor"] = cal.factor()
    info["calibration_samples"] = len(cal.samples)

    t0 = time.perf_counter()
    bounds = check.Bounds(res["coords"])
    violations = bounds.violations(res["clusters"], res["noise"])
    selftest_ok, selftest = check.self_test(bounds, res["clusters"], res["noise"])
    info["check_s"] = time.perf_counter() - t0

    problems = list(violations)
    if not selftest_ok:
        problems.append(f"check self-test failed: {selftest}")
    if info.get("restarts"):
        problems.append(f"{info['restarts']} shard worker restart(s)")
    lag = info.get("gen_lag_tail_ms")
    if lag is not None and lag > info["gen_lag_limit_ms"]:
        problems.append(f"generator lag {lag:.1f} ms over its limit; run invalid")
    rec.failed += len(violations) + info.get("restarts", 0)

    metrics, extra, accounting = end_to_end(rec, info)
    print(json.dumps({
        "metrics": metrics,
        "extra": extra,
        "tails": accounting,
        "layers": res["layers"],
        "attempted": rec.ops,
        "failed": rec.failed,
        "correct": not problems,
        "problems": problems[:10],
        "selftest": selftest,
        "info": info,
        "fingerprint": stamp,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
