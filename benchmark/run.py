#!/usr/bin/env python3
"""gptlab benchmark: exact-verification workloads, closed loop, one client.

Run inside a source checkout:

    python3 benchmark/run.py --workload lri-exhaust --seed 1 --seconds 30 --trace 0

Workloads: lri-exhaust, polytope-faces and scenario-cli (NOTES.md says why
each exists).  The library is imported from the checkout's ``src/`` and from
nowhere else.  One client runs one op at a time, the next only after the
previous one returned; every op gets an instance of its own and every answer
is checked against an exact table.  It needs nothing beyond the standard
library and gptlab's own dependency (jsonschema), and measures in one process
and one thread (set-up time is sampled in child processes, one at a time).

``--trace 0`` runs whole cycles of the workload until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
schedule (``trace_cycles`` cycles untraced, then as many fresh cycles traced),
so its counts repeat exactly for a seed, and reports the per-layer metrics;
``--spans FILE`` also writes every span as a JSON line.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it, each
starting with ``#``, record the run: context, seed, a hash of the generated
inputs, sample counts and any failed ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def require_sources():
    if not (SRC / "gptlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no gptlab sources in {SRC}; run inside a source checkout")


def import_library():
    """Import gptlab from the checkout's src/, refusing any other copy."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import gptlab

    if Path(gptlab.__file__).resolve().parent != (SRC / "gptlab").resolve():
        raise SystemExit(f"error: imported gptlab from {gptlab.__file__}, not from {SRC}")
    return gptlab


def setup(args, workdir: Path):
    """Import, generate the first cycle and run one checked warm-up pass."""
    import_library()
    import inputs

    workload = inputs.WORKLOADS[args.workload](args.seed, workdir)
    first = workload.make_cycle(0)
    for inst in workload.make_cycle(-1):
        problem = workload.check(inst, workload.run(inst))
        if problem:
            raise SystemExit(f"error: warm-up {inst.kind} failed: {problem}")
    return workload, first


def measure_setup(args) -> list:
    """Wall time of whole set-ups, each in a fresh interpreter, spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150, check=False)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return samples


def run_ops(workload, batch, first_cycle: int, stats: dict, *, seconds=None, cycles=None,
            tracer=None):
    """Closed loop over whole cycles; returns (latencies, cycles run)."""
    latencies = []
    done = 0
    started = time.perf_counter()
    while True:
        for inst in batch:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.run(inst)
                else:
                    with tracer.op():
                        result = workload.run(inst)
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            latencies.append(time.perf_counter() - t0)
            stats["attempted"] += 1
            if isinstance(result, Exception):
                problem = f"raised {type(result).__name__}: {result}"
            else:
                try:
                    problem = workload.check(inst, result)
                    stats["report_bytes"] += workload.report_bytes(result)
                except Exception as exc:  # malformed output
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                stats["failures"].append(f"{inst.kind}: {problem}")
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - started >= seconds:
            break
        batch = workload.make_cycle(first_cycle + done)
    return latencies, done


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(300):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of a non-empty sample.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics: on a
    few dozen latencies from a mix of input kinds it varies less from run to
    run than one or two interpolated order statistics.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def layer_metrics(tracer, stats: dict, overhead_ratio: float) -> tuple:
    """Per-layer metric values, and the per-name span summary they came from."""
    summary = tracer.summary()
    counters = tracer.counters

    def layer(name, key):
        return sum(v[key] for k, v in summary.items() if k.split(".", 1)[0] == name)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    lookups = tracer.child_names("runner._Env.group")
    hits = sum(1 for kids in lookups if "dynamics.reversible_maps" not in kids)
    explored = counters["interactions.explored"]
    solves = calls("lp.solve_equality_feasibility")
    is_face = calls("geometry.is_face")
    values = {
        "interactions.explored": (explored, "count"),
        "interactions.lri_yield": (ratio(counters["interactions.lris"], explored), "ratio"),
        "interactions.verify_s": (incl("interactions.LriWitness.verify"), "s"),
        "interactions.self_s": (layer("interactions", "self_s"), "s"),
        "dynamics.searches": (calls("dynamics._search_vertex_maps"), "count"),
        "dynamics.elements": (counters["dynamics.elements"], "count"),
        "dynamics.matrix_s": (incl("dynamics.ReversibleMap.matrix"), "s"),
        "dynamics.self_s": (layer("dynamics", "self_s"), "s"),
        "decompose.calls": (layer("decompose", "calls"), "count"),
        "decompose.self_s": (layer("decompose", "self_s"), "s"),
        "lp.solves": (solves, "count"),
        "lp.infeasible_ratio": (ratio(counters["lp.infeasible"], solves), "ratio"),
        "lp.self_s": (layer("lp", "self_s"), "s"),
        "geometry.is_face_calls": (is_face, "count"),
        "geometry.face_yield": (ratio(counters["geometry.faces"], is_face), "ratio"),
        "geometry.self_s": (layer("geometry", "self_s"), "s"),
        "statespace.effects_s": (incl("statespace.extremal_effects"), "s"),
        "statespace.self_s": (layer("statespace", "self_s"), "s"),
        "linalg.calls": (layer("linalg", "calls"), "count"),
        "linalg.self_s": (layer("linalg", "self_s"), "s"),
        "scenario.parse_s": (incl("scenario.parse"), "s"),
        "runner.self_s": (layer("runner", "self_s"), "s"),
        "runner.group_cache_hit_ratio": (ratio(hits, len(lookups)), "ratio"),
        "report.self_s": (layer("report", "self_s"), "s"),
        "report.bytes": (stats["report_bytes"], "bytes"),
        "cli.self_s": (layer("cli", "self_s"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return values, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lri-exhaust", "polytope-faces", "scenario-cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_sources()  # before anything is written

    # One client on one fixed CPU: where the scheduler happens to place the
    # process otherwise adds its own run-to-run spread (the vCPUs of a shared
    # host need not run at the same speed).  Set-up children inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup(args, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, workdir: Path) -> int:
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "commit": read_commit(),
        "loadavg_start": os.getloadavg(),
    }
    setup_samples = [] if args.trace else measure_setup(args)
    workload, first = setup(args, workdir)
    stats = {"attempted": 0, "failures": [], "report_bytes": 0}

    if args.trace:
        from tracing import Tracer

        k = workload.trace_cycles
        plain, _ = run_ops(workload, first, 0, stats, cycles=k)
        tracer = Tracer()
        stats["report_bytes"] = 0
        tracer.install()
        try:
            traced, _ = run_ops(workload, workload.make_cycle(k), k, stats, cycles=k,
                                tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        values, summary = layer_metrics(tracer, stats, overhead)
        if args.spans:
            tracer.write_spans(args.spans)
        self_total = sum(v["self_s"] for v in summary.values())
        detail = {"spans": len(tracer.span_name), "traced_ops": len(traced),
                  "traced_wall_s": sum(traced), "self_s_total": self_total,
                  "untraced_ops": len(plain), "untraced_wall_s": sum(plain)}
    else:
        latencies, cycles = run_ops(workload, first, 0, stats, seconds=args.seconds)
        values = {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (1000 * quantile(latencies, 0.5), "ms"),
            "latency_p90_ms": (1000 * quantile(latencies, 0.9), "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        detail = {"latency_samples": len(latencies), "cycles": cycles,
                  "setup_samples_s": setup_samples}

    context["loadavg_end"] = os.getloadavg()
    attempted, failed = stats["attempted"], len(stats["failures"])
    print("# context " + json.dumps(context))
    print("# inputs " + json.dumps({
        "workload": args.workload, "seed": args.seed, "generated": workload.generated,
        "repeated": workload.generated - len(workload.seen),
        "redrawn": workload.repeats, "sha256": workload.digest.hexdigest()}))
    print("# run " + json.dumps({**detail, "error_rate": failed / attempted}))
    for line in stats["failures"]:
        print("# FAILED " + line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
