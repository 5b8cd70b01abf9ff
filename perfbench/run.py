"""qramprep benchmark: one seeded workload in a closed loop, one client, one thread.

    python3 perfbench/run.py --workload {preprocess,prepare_image,sweep} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``. The line before it is the full report:
workload parameters, sample counts, the unbounded median, tail and mean
latency, raw samples, machine info and the first failure messages.

Set-up probes and the measurement each run in a fresh child interpreter
with every thread pool pinned to one thread, so the peak RSS belongs to the
workload alone and the run can be held to a time limit. The package is
imported from ``src/`` next to this directory, never from an installed copy.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("preprocess", "prepare_image", "sweep")
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_K = 4
SETUP_PROBES = 7  # timed fresh interpreters, after one untimed probe that writes bytecode caches
# reference_kernel() wall time on an idle 2-vCPU Intel Xeon VM under Python
# 3.11: set-up times are reported in seconds at that speed (see end_to_end)
REFERENCE_S = 0.02
TIME_LIMIT = 170.0  # seconds for the whole run, set-up probes included
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0, help="seed for the workload's inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--k", type=int, help="address width override, K = 2**k (smoke runs)")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---- child interpreters ----------------------------------------------------------


def child_setup(args) -> int:
    """Import qramprep and finish one K=2**4 op; print its seconds and the reference kernel's."""
    start = time.perf_counter()
    import workloads

    wl = workloads.build(args.workload, args.seed, SETUP_K)
    out = wl.op()
    elapsed = time.perf_counter() - start
    wl.check(out)
    start = time.perf_counter()
    workloads.reference_kernel()
    print(json.dumps({"setup_s": elapsed, "reference_s": time.perf_counter() - start}))
    return 0


def child_measure(args) -> int:
    """Warm up with one op, then run the closed loop (untraced, then traced if asked)."""
    import resource

    import numpy

    import workloads

    wl = workloads.build(args.workload, args.seed, args.k)
    warmup = workloads.Phase()
    workloads.run_op(wl, warmup)
    window = args.seconds / 2 if args.trace else args.seconds
    report = {
        "params": wl.params(),
        "numpy": numpy.__version__,
        "warmup": asdict(warmup),
        "untraced": asdict(workloads.measure(wl, window)),
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer(workloads.qp)
        with tracer.installed():
            traced = workloads.measure(wl, window, tracer)
        layer, absent = tracer.metrics()
        trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
        report.update(traced=asdict(traced), layer=layer, absent=absent,
                      trace_file=str(trace_file.relative_to(ROOT)))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


def run_child(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.k is not None:
        cmd += ["--k", str(args.k)]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV}, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- report ----------------------------------------------------------------------


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def ratios(phase: dict) -> list[float]:
    """Each passing op's wall time over that of the reference kernel run just before it."""
    return [lat / ref for lat, ref in zip(phase["latencies"], phase["references"])]


def end_to_end(child: dict, setup: list[dict]) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the wall-clock statistics the report adds unbounded.

    Op latency is bounded in units of the reference kernel (``ref``), which
    cancels the host's changing speed; the wall-clock median, tail and
    throughput moved by 12-45% between runs of the same code and are only
    reported. Set-up time keeps its unit: each probe's wall time over its own
    reference-kernel time, times ``REFERENCE_S``.
    """
    params, phase = child["params"], child["untraced"]
    attempted = child["warmup"]["attempted"] + phase["attempted"]
    failed = child["warmup"]["failed"] + phase["failed"]
    metrics = {
        "setup_s": {"value": REFERENCE_S * statistics.median(
            p["setup_s"] / p["reference_s"] for p in setup), "unit": "s", "n": len(setup)},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB", "n": 1},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio", "n": attempted},
    }
    latencies = phase["latencies"]
    if not latencies:
        return metrics, {}
    n = len(latencies)
    cells = params["K"] * params["pipelines_per_op"] * n
    relative = ratios(phase)
    value, percentile, beyond = tail(relative)
    metrics.update({
        "latency_ref.p50": {"value": statistics.median(relative), "unit": "ref", "n": n},
        "latency_ref.tail": {"value": value, "unit": "ref", "n": n,
                             "percentile": percentile, "beyond": beyond},
        "cells_per_ref": {"value": cells / sum(relative), "unit": "cells/ref", "n": n},
        "budget_use": {"value": max(phase["budget_uses"]), "unit": "ratio", "n": n},
    })
    value, percentile, beyond = tail(latencies)
    unbounded = {
        "setup_s.wall": {"value": statistics.median(p["setup_s"] for p in setup), "unit": "s",
                         "n": len(setup)},
        "latency_s.p50": {"value": statistics.median(latencies), "unit": "s", "n": n},
        "latency_s.tail": {"value": value, "unit": "s", "n": n,
                           "percentile": percentile, "beyond": beyond},
        "latency_s.min": {"value": min(latencies), "unit": "s", "n": n},
        "cells_per_s": {"value": cells / sum(latencies), "unit": "cells/s", "n": n},
        "reference_s.p50": {"value": statistics.median(phase["references"]), "unit": "s", "n": n},
    }
    return metrics, unbounded


def per_layer(child: dict) -> dict:
    metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
               for name, value in child["layer"].items()}
    untraced, traced = ratios(child["untraced"]), ratios(child["traced"])
    if untraced and traced:
        metrics["bench.trace_overhead"] = {
            "value": statistics.median(traced) / statistics.median(untraced), "unit": "ratio",
            "n": len(traced)}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child == "setup":
        return child_setup(args)
    if args.child == "measure":
        return child_measure(args)
    if not (ROOT / "src" / "qramprep" / "__init__.py").is_file():
        print(f"error: no qramprep package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    machine = machine_info()
    try:
        setup = []
        if not args.trace:
            run_child("setup", args, deadline)
            setup = [run_child("setup", args, deadline) for _ in range(SETUP_PROBES)]
        child = run_child("measure", args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, unbounded = (per_layer(child), {}) if args.trace else end_to_end(child, setup)
    phases = [child["warmup"], child["untraced"]] + ([child["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    machine["numpy"] = child["numpy"]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": child["params"],
        "metrics": metrics,
        "unbounded": unbounded,
        "absent": child.get("absent", []),
        "trace_file": child.get("trace_file"),
        "errors": [e for p in phases for e in p["errors"]],
        "latencies": {p: child[p]["latencies"] for p in ("untraced", "traced") if p in child},
        "setup_samples": setup,
        "machine": machine,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
