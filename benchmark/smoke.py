#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

    python3 benchmark/smoke.py

For each workload, in this process: run the warm-up pass and one cycle (every
input kind once) under the tracer, check every answer against the table,
check that the self times of all spans add up to the traced wall time of the
ops, and check that uninstalling the tracer restores every wrapped binding.
Then, in two child processes per workload, run ``run.py --trace 1 --spans``
with the same seed and check that the exact counts are identical and that
the written span file holds the reported spans, whose self times again add
up to the traced wall time.  Prints one line
per check and exits 1 if any fails.
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

EXACT_COUNTS = ("interactions.explored", "lp.solves", "geometry.is_face_calls",
                "dynamics.elements", "linalg.calls", "report.bytes", "dynamics.searches",
                "decompose.calls")


def bindings() -> dict:
    """Every function object reachable from gptlab's module and class dicts."""
    from tracing import LAYERS, METHODS

    found = {}
    for name in ("", *(f".{layer}" for layer in LAYERS)):
        mod = sys.modules[f"gptlab{name}"]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                found[(mod.__name__, attr)] = obj
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    if inspect.isfunction(value):
                        found[(mod.__name__, attr, key)] = value
    for layer, classes in METHODS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"gptlab.{layer}"], cls_name)
            for attr, raw in vars(cls).items():
                found[(layer, cls_name, attr)] = raw
    return found


def in_process(name: str, scratch: Path, results: list) -> None:
    import inputs
    from tracing import Tracer

    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workload = inputs.WORKLOADS[name](0, Path(tmp))
        batch = workload.make_cycle(-1) + workload.make_cycle(0)
        before = bindings()
        tracer = Tracer()
        tracer.install()
        wrapped = sum(1 for key, obj in bindings().items() if before.get(key) is not obj)
        walls = []
        problems = []
        try:
            for inst in batch:
                t0 = time.perf_counter()
                with tracer.op():
                    result = workload.run(inst)
                walls.append(time.perf_counter() - t0)
                problem = workload.check(inst, result)
                if problem:
                    problems.append(f"{inst.kind}: {problem}")
        finally:
            tracer.uninstall()
        after = bindings()
    results.append((f"{name}: {len(batch)} ops answered exactly", not problems, problems))
    self_total = sum(v["self_s"] for v in tracer.summary().values())
    wall = sum(walls)
    results.append((f"{name}: self times {self_total:.6f} s add up to traced wall {wall:.6f} s",
                    abs(self_total - wall) <= 1e-3 * wall, None))
    results.append((f"{name}: tracer wrapped {wrapped} bindings and restored all of them",
                    wrapped > 0 and after == before, None))


def counts(name: str, spans: Path) -> dict:
    """Exact counts of one traced run; its span file must match its own report."""
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", name,
                           "--seed", "7", "--trace", "1", "--spans", str(spans)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        return {"error": proc.stderr}
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(x for x in lines if x.startswith("# run "))[len("# run "):])
    rows = [json.loads(x) for x in spans.read_text().splitlines()]
    child = {}
    for r in rows:
        child[r["parent"]] = child.get(r["parent"], 0.0) + r["end"] - r["start"]
    self_total = sum(r["end"] - r["start"] - child.get(r["id"], 0.0) for r in rows)
    if len(rows) != detail["spans"] or abs(self_total - detail["traced_wall_s"]) > 1e-3 * self_total:
        return {"error": f"span file: {len(rows)} spans, self time {self_total} s; report: {detail}"}
    metrics = json.loads(lines[-1])["metrics"]
    return {key: metrics[key]["value"] for key in EXACT_COUNTS}


def main() -> int:
    run.import_library()
    results: list = []
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for name in ("lri-exhaust", "polytope-faces", "scenario-cli"):
        in_process(name, scratch, results)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in ("lri-exhaust", "polytope-faces", "scenario-cli"):
            first, second = (counts(name, Path(tmp) / f"spans-{k}.jsonl") for k in (1, 2))
            results.append((f"{name}: traced counts repeat for one seed, spans written out "
                            f"agree with the report {first}",
                            first == second and "error" not in first, [first, second]))
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    for label, ok, detail in results:
        print(("ok     " if ok else "FAILED ") + label)
        if not ok and detail:
            print("       " + json.dumps(detail))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
