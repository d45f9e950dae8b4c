#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Imports tdq from the checkout's src/, builds the workload's seeded job list,
and runs that list in passes (one process, one thread, a closed loop with one
job in flight) until --seconds is spent.  Every job's output is checked.
Prints a run record, then as its last line a JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 spends half the time untraced and half traced and reports
the per-layer metrics.

Times are host-speed corrected: a fixed calibration kernel that shares no
code with tdq runs between every two jobs (and between set-up repetitions),
and each job's time is scaled by CAL_REF_S over the mean of the two kernel
times that bracket it.  A shared host that slows the process down slows the
kernel alike, so the corrected figures stay put while tdq's own cost shows in
full.  The run record keeps the raw figures too.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15
CAL_REF_S = 1e-3  # nominal calibration time: corrected = raw * CAL_REF_S / measured

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
COUNTER_UNITS = {
    "checks": "count",
    "scalar.max_den_bits": "bits",
    "takagi.takagi_series.terms": "count",
    "takagi.takagi_dyadic_exact.repeat_share": "ratio",
    "odometer.steps": "count",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


def load_tdq() -> SimpleNamespace:
    """Import tdq afresh from ROOT/src; fail unless it comes from there."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "tdq" or n.startswith("tdq.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("tdq")
    cli = importlib.import_module("tdq.cli")
    if Path(pkg.__file__).resolve().parent != (src / "tdq").resolve():
        raise ImportError(f"tdq resolved to {pkg.__file__}, not {src / 'tdq'}")
    return SimpleNamespace(cli=cli, scalar=pkg.scalar, digit_sums=pkg.digit_sums,
                           trollope=pkg.trollope, takagi=pkg.takagi, odometer=pkg.odometer)


def calibrate() -> float:
    """Seconds for one burst of the calibration kernel: a fixed mix of
    Fraction, float, complex and dict work, about 1 ms on a 2-vCPU Xeon VM."""
    t0 = time.perf_counter()
    q, s, p = Fraction(-5, 7), Fraction(0), Fraction(1)
    for k in range(60):
        p *= q
        s += p / (k + 1)
    x, z = 0.0, 0.3 + 0.4j
    for i in range(1500):
        x += (i * 0.5) % 1.7
        z = z * z * 0.5 + 0.1j
    d = {}
    for i in range(600):
        d[(i, i & 7)] = str(i)
    return time.perf_counter() - t0


def corrected(times: list, bursts: list) -> list:
    """Scale times[i] by CAL_REF_S over the mean of the calibration bursts
    bursts[i] and bursts[i + 1] run just before and just after it."""
    return [t * 2 * CAL_REF_S / (before + after) for t, before, after in zip(times, bursts, bursts[1:])]


class Pass(NamedTuple):
    wall: float        # sum of job latencies, raw seconds
    latencies: list    # per job, raw seconds
    corrected: list    # per job, host-speed corrected seconds
    bursts: list       # calibration bursts: one before each job and one after the last
    verdicts: list     # per job
    layers: dict       # traced passes: name -> [calls, self_s]
    counters: dict     # traced passes


def run_pass(ctx, jobs, tracer=None) -> Pass:
    latencies, verdicts, bursts = [], [], []
    if tracer is not None:
        tracer.reset_counters()
        lo = len(tracer.start)
        pass_span = tracer.open("pass")
    for job in jobs:
        kind = workloads.KINDS[job.kind]
        bursts.append(calibrate())
        span = tracer.open("job." + job.kind) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, error = kind.run(ctx, job.params), None
        except Exception as exc:  # job boundary: record the failure, keep running
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        verdicts.append(judge(ctx, kind, job, out, error))
    layers, counters = {}, {}
    if tracer is not None:
        tracer.close(pass_span)
        layers = tracer.self_times(lo, len(tracer.start))
        calls = tracer.dyadic_calls
        counters = {
            "scalar.max_den_bits": tracer.max_den_bits,
            "takagi.takagi_series.terms": tracer.terms,
            "takagi.takagi_dyadic_exact.repeat_share": tracer.dyadic_repeats / calls if calls else 0.0,
            "odometer.steps": tracer.steps,
        }
    counters["checks"] = sum(v.points for v in verdicts)
    counters["cli.bytes_out"] = sum(v.bytes_out for v in verdicts)
    bursts.append(calibrate())
    return Pass(sum(latencies), latencies, corrected(latencies, bursts), bursts, verdicts, layers, counters)


def _describe(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def judge(ctx, kind, job, out, error) -> workloads.Verdict:
    """A job that raised failed on its own; output its check cannot read is wrong."""
    if error is not None:
        return workloads.Verdict(False, False, 0, note=_describe(error))
    try:
        return kind.check(ctx, job.params, out)
    except Exception as exc:  # check boundary: count the job, keep running
        return workloads.Verdict(False, True, 0, note="check: " + _describe(exc))


def run_passes(ctx, jobs, budget: float, tracer=None) -> list[Pass]:
    """At least one pass; another only if it should end within the budget."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ctx, jobs, tracer))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def end_to_end(setup: list, passes: list[Pass], raw: bool = False) -> tuple[dict, dict]:
    """Latency figures pool every job execution of the run; wall_s is the mean
    pass time, i.e. the run's total job time over its passes.  The figures
    are host-speed corrected unless raw is set."""
    jobs = len(passes[0].latencies)
    times = [p.latencies if raw else p.corrected for p in passes]
    pooled = sorted(x for t in times for x in t)
    # midway through the 11th slowest job's share of the samples, so ten
    # jobs of every pass lie beyond it
    tail_pct = 100 * (jobs - 10.5) / jobs
    tail_rank = math.ceil(tail_pct / 100 * len(pooled))
    verdicts = [v for p in passes for v in p.verdicts]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(sum(t) for t in times),
        "job_p50_ms": 1000 * statistics.median(pooled),
        "job_tail_ms": 1000 * pooled[tail_rank - 1],
        "pass_ratio": sum(v.ok for v in verdicts) / len(verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": {"samples": len(setup), "stat": "median"},
        "wall_s": {"samples": len(passes), "stat": "mean pass time"},
        "job_p50_ms": {"samples": len(pooled), "stat": "p50 over every job execution"},
        "job_tail_ms": {"samples": len(pooled), "stat": f"p{tail_pct:.1f} over every job execution",
                        "beyond": len(pooled) - tail_rank},
        "pass_ratio": {"samples": len(verdicts), "stat": "passed / attempted"},
        "peak_rss_mb": {"samples": 1, "stat": "ru_maxrss of this process"},
    }
    return values, samples


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    """Per-pass layer figures (median corrected self time over traced passes)."""
    values = {}
    for name in tracing.LAYER_NAMES:
        values[f"{name}.calls"] = traced[0].layers.get(name, [0, 0.0])[0]
        values[f"{name}.self_s"] = statistics.median(p.layers.get(name, [0, 0.0])[1] * sum(p.corrected) / p.wall
                                                     for p in traced)
    values.update(traced[0].counters)
    values["scalar.max_den_bits"] = max(p.counters["scalar.max_den_bits"] for p in traced)
    values["trace.overhead_ratio"] = (statistics.median(sum(p.corrected) for p in traced)
                                      / statistics.median(sum(p.corrected) for p in plain))
    return values


def layer_unit(name: str) -> str:
    if name in COUNTER_UNITS:
        return COUNTER_UNITS[name]
    return "s" if name.endswith(".self_s") else "count"


def worst_residual(jobs, passes: list[Pass]) -> dict:
    """The job whose residual is largest relative to its tolerance (none when all are 0)."""
    best, best_key = {"job": None, "residual": "0", "tol": 0, "witness": None}, 0.0
    for job, v in zip(jobs, passes[0].verdicts):
        if v.residual is None:
            continue
        key = (math.inf if v.residual != 0 else 0.0) if v.tol == 0 else float(v.residual) / v.tol
        if key > best_key:
            best_key = key
            best = {"job": job.name, "residual": str(v.residual), "tol": v.tol, "witness": v.witness}
    return best


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": cpu}


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup, setup_bursts = [], []
    calibrate()  # warm-up
    try:
        for _ in range(SETUP_REPEATS):
            setup_bursts.append(calibrate())
            t0 = time.perf_counter()
            lib = load_tdq()
            jobs = workloads.make_jobs(args.workload, args.seed)
            setup.append(time.perf_counter() - t0)
    except ImportError as exc:
        print(f"perfbench: cannot import tdq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    setup_bursts.append(calibrate())

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        ctx = workloads.Context(lib, Path(tmp))
        if args.trace:
            tracer = tracing.Tracer(lib)
            t0 = time.perf_counter()
            plain = run_passes(ctx, jobs, args.seconds / 2)
            with tracer.installed():
                traced = run_passes(ctx, jobs, args.seconds - (time.perf_counter() - t0), tracer)
        else:
            plain, traced = run_passes(ctx, jobs, args.seconds), []

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    passes = plain + traced
    verdicts = [v for p in passes for v in p.verdicts]
    e2e, samples = end_to_end(corrected(setup, setup_bursts), plain)
    raw, _ = end_to_end(setup, plain, raw=True)
    if args.trace:
        values = per_layer(plain, traced)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    anchors = []
    for i, job in enumerate(jobs):
        if job.name in workloads.ANCHOR_REFERENCE_S:
            anchors.append({"job": job.name,
                            "median_s": statistics.median(p.latencies[i] for p in plain),
                            "reference_s": workloads.ANCHOR_REFERENCE_S[job.name]})
    failures = {}
    for p in passes:
        for job, v in zip(jobs, p.verdicts):
            if not v.ok:
                failures.setdefault(job.name, {"job": job.name, "count": 0, "note": v.note,
                                               "residual": str(v.residual), "witness": v.witness})
                failures[job.name]["count"] += 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": machine(),
        "jobs": {"per_pass": len(jobs), "passes": len(plain), "traced_passes": len(traced),
                 "attempted": len(verdicts), "failed": sum(not v.ok for v in verdicts)},
        "host_speed": {"reference_s": CAL_REF_S, "setup_bursts_s": setup_bursts,
                       "pass_bursts_s": [p.bursts for p in plain]},
        "pass_wall_s": {"untraced": [p.wall for p in plain], "traced": [p.wall for p in traced]},
        "job_latency_s": {job.name: [p.latencies[i] for p in plain] for i, job in enumerate(jobs)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], **samples[k]} for k, v in e2e.items()},
        "end_to_end_raw": raw,
        "per_layer": metrics if args.trace else None,
        "worst_residual": worst_residual(jobs, plain),
        "failures": list(failures.values()),
        "anchors": anchors,
    }
    if args.trace:
        spans = OUT / f"spans-{stem}.bin"
        record["trace_file"] = {"path": str(spans.relative_to(ROOT)), **tracer.write(spans)}
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not any(v.wrong for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
