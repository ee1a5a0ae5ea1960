"""Seeded inputs, timed operations and exact answers for each workload.

Every timed op gets an instance of its own.  The base polytopes are
scrambled by a seeded integer map L with det L = 1 and u o L = u: every
coordinate changes, no answer does (group orders, interaction counts and
verdicts, face and effect counts and hull membership are invariant under
such maps).  Instances are a pure function of (seed, cycle, slot), are
generated before the op's clock starts, and are fingerprinted so that no
instance repeats within a run.

A workload runs in cycles: one cycle is every input kind once, in a seeded
order.  ``Workload.make_cycle`` generates a cycle, ``run`` is the timed
call and ``check`` compares its result against the exact answer table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import gptlab as gl
from gptlab import cli
from gptlab.report import REPORT_SCHEMA

# -- scrambling ----------------------------------------------------------------


def scramble_matrix(u, rng: random.Random, steps: int = 3) -> gl.Matrix:
    """Seeded det-1 integer matrix L with u o L = u.

    L is a product of transvections I + c a b^T with u.a = 0 (so u is
    preserved) and b.a = 0 (so the determinant is 1 and L^-1 is integral).
    """
    d = len(u)
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    if d < 2:
        return gl.Matrix.from_rows(rows)
    u = [Fraction(x) for x in u]
    pivots = [k for k in range(d) if u[k] != 0]
    for _ in range(steps):
        k = rng.choice(pivots)
        i = rng.choice([t for t in range(d) if t != k])
        a = [Fraction(0)] * d
        a[i] += u[k]
        a[k] -= u[i]
        r = [rng.choice((-1, 0, 1)) for _ in range(d)]
        aa = sum(x * x for x in a)
        ar = sum(x * y for x, y in zip(a, r))
        b = [aa * rj - ar * aj for rj, aj in zip(r, a)]
        if not any(b):
            continue
        c = rng.choice((-1, 1))
        la = [sum(rows[p][q] * a[q] for q in range(d)) for p in range(d)]
        rows = [[rows[p][q] + c * la[p] * b[q] for q in range(d)] for p in range(d)]
    return gl.Matrix.from_rows(rows)


def scramble(space: gl.StateSpace, rng: random.Random, label: str = "") -> gl.StateSpace:
    return gl.transformed(space, scramble_matrix(space.u, rng), label or space.label)


def space_text(space: gl.StateSpace) -> str:
    return json.dumps(gl.space_to_json(space), sort_keys=True)


def _literal(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in rows) + "]"


# -- workloads -----------------------------------------------------------------


class Instance:
    """One op's input: a kind, its data, and the text that fingerprints it."""

    __slots__ = ("kind", "data", "text")

    def __init__(self, kind: str, data, text: str):
        self.kind = kind
        self.data = data
        self.text = text


class Workload:
    name = ""
    kinds: tuple = ()
    warmup_kinds: tuple = ()
    trace_cycles = 1  # cycles run by each half of a traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seen: set = set()
        self.digest = hashlib.sha256()
        self.generated = 0
        self.repeats = 0

    def make_cycle(self, cycle: int) -> list:
        """Every kind once, in seeded order; cycle -1 is the warm-up pass."""
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        kinds = list(self.warmup_kinds if cycle < 0 else self.kinds)
        rng.shuffle(kinds)
        out = []
        for slot, kind in enumerate(kinds):
            for _attempt in range(100):
                inst = self.make(kind, rng, f"{cycle}-{slot}")
                if inst.text not in self.seen:
                    break
                self.repeats += 1
            else:
                raise RuntimeError(f"could not draw a fresh {kind} instance")
            self.seen.add(inst.text)
            self.digest.update(inst.text.encode())
            self.generated += 1
            out.append(inst)
        return out

    def make(self, kind: str, rng: random.Random, tag: str) -> Instance:
        raise NotImplementedError

    def run(self, inst: Instance):
        raise NotImplementedError

    def check(self, inst: Instance, result) -> str:
        """Empty string when the result matches the answer table."""
        raise NotImplementedError

    def report_bytes(self, result) -> int:
        return 0


# lri-exhaust: kind -> (factor builders, group orders, (mode, total, trivial))
LRI_PAIRS = {
    "gbit x gbit": (lambda: (gl.gbit(), gl.gbit()), (8, 8), ("theorem2", 64, 64)),
    "simplex1 x gbit": (lambda: (gl.simplex(1), gl.gbit()), (2, 8), ("enumerate", 128, 16)),
    "simplex2 x simplex1": (lambda: (gl.simplex(2), gl.simplex(1)), (6, 2), ("enumerate", 144, 12)),
    "(gbit+point) x simplex1": (lambda: (gl.direct_sum(gl.gbit(), gl.point()), gl.simplex(1)),
                                (8, 2), ("enumerate", 256, 16)),
    "cube3 x point": (lambda: (gl.cube(3), gl.point()), (48, 1), ("theorem2", 48, 48)),
    "simplex1 x simplex1": (lambda: (gl.simplex(1), gl.simplex(1)), (2, 2), ("enumerate", 12, 4)),
}


class LriExhaust(Workload):
    """Both factor groups, then all locally reversible interactions."""

    name = "lri-exhaust"
    # gbit x gbit, the headline theorem-2 case, runs twice per cycle: an odd
    # cycle length puts the median latency inside one kind's spread instead of
    # on the gap between two kinds.
    kinds = ("gbit x gbit", *LRI_PAIRS)
    warmup_kinds = ("cube3 x point", "simplex1 x simplex1")

    def make(self, kind, rng, tag):
        a, b = LRI_PAIRS[kind][0]()
        a, b = scramble(a, rng), scramble(b, rng)
        return Instance(kind, (a, b), kind + space_text(a) + space_text(b))

    def run(self, inst):
        a, b = inst.data
        groups = (gl.reversible_maps(a), gl.reversible_maps(b))
        if LRI_PAIRS[inst.kind][2][0] == "theorem2":
            report = gl.verify_theorem2(a, b, groups)
            return groups, (report.verdict, report.total, report.trivial)
        enum = gl.enumerate_lris(a, b, groups)
        trivial = sum(1 for _, w in enum if w.is_trivial())
        return groups, ("complete" if enum.complete else "incomplete", len(enum), trivial)

    def check(self, inst, result):
        groups, got = result
        _, orders, (mode, total, trivial) = LRI_PAIRS[inst.kind]
        want = ("pass" if mode == "theorem2" else "complete", total, trivial)
        got_orders = tuple(g.order for g in groups)
        if got_orders != orders:
            return f"group orders {got_orders} != {orders}"
        if got != want:
            return f"{got} != {want}"
        return ""


# polytope-faces: face lattices, extremal effects and hull membership.
FACE_COUNTS = {  # kind -> (builder, faces by cardinality)
    "faces cube3": (lambda: gl.cube(3), {0: 1, 1: 8, 2: 12, 4: 6, 8: 1}),
    "faces cross3": (lambda: gl.cross(3), {0: 1, 1: 6, 2: 12, 3: 8, 6: 1}),
    "faces cross4": (lambda: gl.cross(4), {0: 1, 1: 8, 2: 24, 3: 32, 4: 16, 8: 1}),
    "faces gbit(x)simplex1": (lambda: gl.min_tensor(gl.gbit(), gl.simplex(1)),
                              {0: 1, 1: 8, 2: 24, 3: 32, 4: 18, 5: 8, 6: 8, 8: 1}),
    "faces simplex4": (lambda: gl.simplex(4), {0: 1, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1}),
}
EFFECT_COUNTS = {  # kind -> (builder, number of extremal effects)
    "effects gbit": (gl.gbit, 6),
    "effects cube3": (lambda: gl.cube(3), 8),
    "effects cross3": (lambda: gl.cross(3), 10),
}
HULL_KINDS = ("hull inside", "hull inside", "hull inside", "hull outside", "hull outside")


class PolytopeFaces(Workload):
    """Face lattices, extremal effects and certified hull membership.

    Thirteen ops per cycle: an odd cycle length puts the median latency
    inside one kind's spread instead of on the gap between two kinds.
    """

    name = "polytope-faces"
    kinds = tuple(FACE_COUNTS) + tuple(EFFECT_COUNTS) + HULL_KINDS
    warmup_kinds = ("faces simplex4", "effects gbit", "hull inside", "hull outside")

    def make(self, kind, rng, tag):
        if kind in FACE_COUNTS:
            space = scramble(FACE_COUNTS[kind][0](), rng)
            return Instance(kind, space.vertices, kind + space_text(space))
        if kind in EFFECT_COUNTS:
            space = scramble(EFFECT_COUNTS[kind][0](), rng)
            return Instance(kind, space, kind + space_text(space))
        gg = scramble(gl.min_tensor(gl.gbit(), gl.gbit()), rng)
        gens = gg.vertices
        n, d = len(gens), gg.ambient_dim
        if kind == "hull inside":
            weights = [Fraction(rng.randint(0, 6)) for _ in range(n)]
            weights[rng.randrange(n)] += 1
            total = sum(weights)
            point = tuple(sum(w * g[k] for w, g in zip(weights, gens)) / total for k in range(d))
        else:
            # v + t (v - barycentre) leaves the polytope through the vertex v.
            v = gens[rng.randrange(n)]
            centre = tuple(sum(g[k] for g in gens) / n for k in range(d))
            t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            point = tuple(v[k] + t * (v[k] - centre[k]) for k in range(d))
        text = kind + space_text(gg) + ",".join(str(x) for x in point)
        return Instance(kind, (point, gens), text)

    def run(self, inst):
        if inst.kind in FACE_COUNTS:
            return gl.face_lattice(inst.data)
        if inst.kind in EFFECT_COUNTS:
            return gl.extremal_effects(inst.data)
        point, gens = inst.data
        return gl.in_hull(point, gens)

    def check(self, inst, result):
        if inst.kind in FACE_COUNTS:
            want = FACE_COUNTS[inst.kind][1]
            got = result.counts_by_cardinality()
            return "" if got == want else f"face counts {got} != {want}"
        if inst.kind in EFFECT_COUNTS:
            want = EFFECT_COUNTS[inst.kind][1]
            return "" if len(result) == want else f"{len(result)} effects != {want}"
        point, gens = inst.data
        want = inst.kind == "hull inside"
        if result.member != want:
            return f"membership {result.member} != {want}"
        return "" if result.verify(point, gens) else "hull certificate failed to verify"


# scenario-cli: one generated scenario file per op, run through the CLI.
# Spaces G, H, D1, D2 are scrambled literals; B, X, D, Q keep fixed
# coordinates because cnot, ctrl and prbox are written in them.
SCENARIO_TEMPLATE = """\
# generated benchmark scenario {tag}
space G = {G}
space H = {H}
space D1 = {D1}
space D2 = {D2}
space GH = dsum(G, H)
space GD = product(G, D1)
space DG = product(D2, G)
check decompose GH expect decomposable
check transitive GH expect true
check group GH expect 128
check decompose GD expect decomposable
check transitive GD expect true
check group GD expect 128
check theorem1 DG expect pass
check theorem1 GH expect pass
space B = simplex(1)
space P4 = product(B, B)
map CNOT = cnot
check lri CNOT on P4 expect nontrivial
check broadcaster CNOT on P4 b=0 expect nontrivial
space X = point()
space D = dsum(X, X)
space Q = gbit()
map R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
map I = identity(Q)
map T = ctrl(D, Q, I, R)
space DQ = product(D, Q)
check theorem3 T on DQ expect conditional
space QQ = product(Q, Q)
check entangled prbox on QQ expect true
check distributivity G D1 H expect true
check theorem2 D1 D1 expect inapplicable
"""
# (kind, outcome, certificate fields that must match) per check, in order
SCENARIO_ANSWERS = (
    ("decompose", "decomposable", {"count": 2}),
    ("transitive", "true", {"transitive": True}),
    ("group", "128", {"order": 128}),
    ("decompose", "decomposable", {"count": 2}),
    ("transitive", "true", {"transitive": True}),
    ("group", "128", {"order": 128}),
    ("theorem1", "pass", {"N": 2, "component_vertices": 4}),
    ("theorem1", "pass", {"N": 1, "component_vertices": 4}),
    ("lri", "nontrivial", {}),
    ("broadcaster", "nontrivial", {}),
    ("theorem3", "conditional", {}),
    ("entangled", "true", {"entangled": True}),
    ("distributivity", "true", {"equal": True}),
    ("theorem2", "inapplicable", {}),
)
WARMUP_SCENARIO = """\
# generated benchmark warm-up scenario {tag}
space G = {G}
space D1 = {D1}
space GD = product(G, D1)
check group G expect 8
check theorem1 GD expect pass
check theorem2 D1 D1 expect inapplicable
"""


class ScenarioCli(Workload):
    name = "scenario-cli"
    kinds = ("scenario",)
    warmup_kinds = ("warm-up scenario",)
    trace_cycles = 2

    def make(self, kind, rng, tag):
        spaces = {"G": gl.gbit(), "H": gl.gbit(), "D1": gl.simplex(1), "D2": gl.simplex(2)}
        literals = {}
        for name, base in spaces.items():
            s = scramble(base, rng)
            literals[name] = f"vertices {_literal(s.vertices)} unit {_literal([s.u])[1:-1]}"
        template = WARMUP_SCENARIO if kind.startswith("warm-up") else SCENARIO_TEMPLATE
        text = template.format(tag=tag, **literals)
        path = self.workdir / f"{self.name}-{self.seed}-{tag}.gpt"
        path.write_text(text, encoding="utf-8")
        return Instance(kind, path, text.split("\n", 1)[1])

    def run(self, inst):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--json", "run", str(inst.data)])
        return code, out.getvalue()

    def check(self, inst, result):
        import jsonschema

        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            data = json.loads(text)
            jsonschema.validate(data, REPORT_SCHEMA)
        except (ValueError, jsonschema.ValidationError) as exc:
            return f"report does not validate: {exc}"
        if inst.kind.startswith("warm-up"):
            return ""
        checks = data["checks"]
        if len(checks) != len(SCENARIO_ANSWERS):
            return f"{len(checks)} checks != {len(SCENARIO_ANSWERS)}"
        for rec, (kind, outcome, fields) in zip(checks, SCENARIO_ANSWERS):
            cert = rec["certificate"] or {}
            if rec["kind"] != kind or rec["verdict"] not in ("pass", "inapplicable") \
                    or cert.get("outcome") != outcome:
                return f"{rec['id']}: {rec['verdict']} / {cert.get('outcome')} != {outcome}"
            for key, want in fields.items():
                if cert.get(key) != want:
                    return f"{rec['id']}: {key} {cert.get(key)} != {want}"
            if kind == "group" and len(cert["matrices"]) != 128:
                return f"{rec['id']}: {len(cert['matrices'])} matrix certificates"
        return ""

    def report_bytes(self, result) -> int:
        """Size of the printed report with every ``millis`` timing zeroed."""
        data = json.loads(result[1])
        for rec in data["checks"]:
            rec["millis"] = 0
        return len(json.dumps(data, indent=2, sort_keys=True)) + 1


WORKLOADS = {w.name: w for w in (LriExhaust, PolytopeFaces, ScenarioCli)}
