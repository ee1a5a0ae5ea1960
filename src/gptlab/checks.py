"""One table entry per check kind, space construction and map construction.

``CHECKS`` holds each check kind's operand slots, outcomes and run function.
The scenario parser and printer walk an entry's slots, the runner resolves
them to operands, and the runner and the CLI subcommands call its run function.
Slots, in source order: ``space`` (a space name), ``pair`` (one product space
or two space names, resolved to two factors), ``map`` (a map name), ``state``
(``prbox`` or a coordinate vector), the keyword ``on``, ``product`` (a product
space, resolved to its two factors) and ``b=K`` (a fixed input, 0 if absent).

A run function takes an environment, which supplies ``group(space)`` and
``config.budgets``, and the resolved operands.  It returns the outcome label,
the verdict when no ``expect`` clause is given, and the certificate.

``SPACES`` and ``MAPS`` hold each construction's operands and build function.
An operand is ``int``, ``space`` or ``map``; a trailing ``maps`` takes one or
more maps.  The parser reads a call's arguments off the operands, the printer
writes every call alike, and the runner calls ``build(ctx, *operands)`` on
the resolved operands.  Table order is the order of the parser's hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import decompose as dec
from . import dynamics as dyn
from . import interactions as ia
from . import report as rp
from . import statespace as ss
from .linalg import Matrix


@dataclass(frozen=True)
class CheckKind:
    slots: tuple
    outcomes: tuple  # expect words besides budget_exceeded; () means a positive integer
    run: Callable


def _truth(flag: bool) -> tuple:
    return ("true" if flag else "false"), ("pass" if flag else "fail")


def _decompose(_env, space):
    decomp = dec.irreducible_components(space)
    cert = {"count": decomp.n, "blocks": decomp.blocks(),
            "dims": [c.dim for c in decomp.components]}
    return ("decomposable" if decomp.n >= 2 else "irreducible"), "pass", cert


def _transitive(env, space):
    orbits = dyn.orbits(space, env.config.budgets)
    verdict = len(orbits) == 1
    return (*_truth(verdict), {"transitive": verdict, "orbits": orbits})


def _group(env, space):
    group = env.group(space)
    cert = {"order": group.order, "perms": [list(p) for p in group.perms],
            "matrices": [rp.mat_to_json(g.matrix) for g in group.elements],
            "generators": [list(g.perm) for g in group.generators]}
    return str(group.order), "pass", cert


def _distributivity(_env, a, b, c):
    ok = ss.check_distributivity(a, b, c)
    return (*_truth(ok), {"equal": ok})


def _entangled(_env, state, a, b):
    ctx = a.ctx
    coords = ss.pr_box_state() if state == "prbox" else tuple(ctx.num(x) for x in state)
    verdict = ss.is_entangled(coords, a, b)
    cert: dict = {"entangled": verdict.entangled}
    if verdict.entangled:
        cert["separating_covector"] = rp.vec_to_json(verdict.membership.separating, ctx)
    else:
        cert["weights"] = rp.vec_to_json(verdict.membership.weights, ctx)
    return (*_truth(verdict.entangled), cert)


def _theorem1(env, space):
    try:
        result = dec.classical_subsystem(space, env.config.budgets)
    except dec.NotTransitiveError:
        return "inapplicable", "inapplicable", {"reason": "space is not transitive"}
    if result is None:
        return "inapplicable", "inapplicable", {"reason": "space is irreducible"}
    cert = {"N": result.n_levels, "component_vertices": result.component.nvertices,
            "blocks": result.decomposition.blocks(), "iso": rp.isomorphism_to_json(result.iso)}
    return "pass", "pass", cert


def _theorem2(env, a, b):
    report = ia.verify_theorem2(a, b, (env.group(a), env.group(b)), env.config.budgets)
    cert = {"total": report.total, "trivial": report.trivial, "detail": report.detail}
    if report.counterexample is not None:
        cert["counterexample"] = rp.witness_to_json(report.counterexample)
    return report.verdict, report.verdict, cert


def _witness(env, matrix, a, b):
    return ia.lri_decompose(matrix, a, b, (env.group(a), env.group(b)))


def _lri(env, matrix, a, b):
    witness = _witness(env, matrix, a, b)
    if witness is None:
        return "none", "fail", {"witness": None}
    outcome = "trivial" if witness.is_trivial() else "nontrivial"
    return outcome, "pass", {"witness": rp.witness_to_json(witness)}


def _broadcaster(env, matrix, a, b, b_index):
    witness = _witness(env, matrix, a, b)
    if witness is None:
        return "none", "fail", {"witness": None}
    ctx = a.ctx
    pb = ia.partial_broadcaster(witness, b_index)
    f_map = ia.broadcast_f_map(pb)
    family = ia.nondisturbing_measurement(pb)
    decomp = ia.extract_decomposition(family)
    cert = {
        "witness": rp.witness_to_json(witness),
        "broadcaster": rp.broadcaster_to_json(pb),
        "f_table": [rp.vec_to_json(row, ctx) for row in f_map.table],
        "f_all_pure": f_map.all_pure,
        "f_constant": f_map.is_constant(),
        "measurement": {"effects": [rp.vec_to_json(e.covector, ctx) for e, _ in family.members],
                        "maps": [rp.mat_to_json(m) for _, m in family.members]},
        "decomposition": None if decomp is None else {"blocks": decomp.blocks()},
    }
    return ("trivial" if f_map.is_constant() else "nontrivial"), "pass", cert


def _theorem3(_env, matrix, a, b):
    structure = ia.conditional_structure(matrix, a, b)
    if structure is None:
        return "none", "fail", {"blocks": None}
    blocks = []
    for src in sorted(structure.blocks):
        dst, x_mat, y_mat = structure.blocks[src]
        blocks.append({"src": list(src), "dst": list(dst),
                       "x": rp.mat_to_json(x_mat), "y": rp.mat_to_json(y_mat)})
    return "conditional", "pass", {"blocks": blocks}


_INTERACTION = ("none", "trivial", "nontrivial")

CHECKS = {
    "decompose": CheckKind(("space",), ("decomposable", "irreducible"), _decompose),
    "transitive": CheckKind(("space",), ("true", "false"), _transitive),
    "group": CheckKind(("space",), (), _group),
    "lri": CheckKind(("map", "on", "product"), _INTERACTION, _lri),
    "broadcaster": CheckKind(("map", "on", "product", "b=K"), _INTERACTION, _broadcaster),
    "theorem1": CheckKind(("space",), ("pass", "inapplicable"), _theorem1),
    "theorem2": CheckKind(("pair",), ("pass", "fail", "inapplicable"), _theorem2),
    "theorem3": CheckKind(("map", "on", "product"), ("conditional", "none"), _theorem3),
    "distributivity": CheckKind(("space", "space", "space"), ("true", "false"),
                                _distributivity),
    "entangled": CheckKind(("state", "on", "product"), ("true", "false"), _entangled),
}


@dataclass(frozen=True)
class Construction:
    operands: tuple
    build: Callable

    def operand(self, k: int) -> str:
        """The operand kind of argument k.  Past the end the last one repeats,
        which a trailing ``maps`` needs; surplus arguments of an entry
        without operands read as integers until the arity check rejects them."""
        return self.operands[min(k, len(self.operands) - 1)] if self.operands else "int"


SPACES = {
    "simplex": Construction(("int",), lambda ctx, n: ss.simplex(n, ctx)),
    "point": Construction((), lambda ctx: ss.point(ctx)),
    "gbit": Construction((), lambda ctx: ss.gbit(ctx)),
    "cube": Construction(("int",), lambda ctx, n: ss.cube(n, ctx)),
    "cross": Construction(("int",), lambda ctx, n: ss.cross(n, ctx)),
    "product": Construction(("space", "space"), lambda _ctx, a, b: ss.min_tensor(a, b)),
    "dsum": Construction(("space", "space"), lambda _ctx, a, b: ss.direct_sum(a, b)),
}

MAPS = {
    "identity": Construction(("space",), lambda ctx, a: Matrix.identity(a.ambient_dim, ctx)),
    "swap": Construction(("space", "space"), lambda _ctx, a, b: ia.swap_map(a, b)),
    "cnot": Construction((), lambda ctx: ia.cnot_map(ss.simplex(1, ctx))),
    "product": Construction(("map", "map"), lambda _ctx, x, y: ia.product_map(x, y)),
    "ctrl": Construction(("space", "space", "maps"),
                         lambda _ctx, d, b, *maps: ia.controlled_map(d, b, maps)),
}
