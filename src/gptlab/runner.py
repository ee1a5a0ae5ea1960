"""Scenario evaluation: statements in order, one record per check.

A failing check never aborts later checks; evaluation errors become
verdict="error" records.  A space or map definition that cannot be evaluated
stops the run with a ParseError at its line:column.  With an ``expect`` clause the verdict is pass/fail
by comparison with the computed outcome label, which lets scenarios encode
negative controls (e.g. ``check lri SW on GG expect none``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .arith import Context, EXACT, float_context
from .config import Budgets, BudgetExceededError, DEFAULT_BUDGETS
from . import decompose as dec
from . import dynamics as dyn
from . import interactions as ia
from . import scenario as sc
from . import statespace as ss
from .linalg import Matrix
from .report import CheckRecord, Report, mat_to_json, vec_to_json

VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    mode: str = "exact"
    eps: float = 1e-9
    budgets: Budgets = DEFAULT_BUDGETS

    @property
    def ctx(self) -> Context:
        return EXACT if self.mode == "exact" else float_context(self.eps)


class _Env:
    def __init__(self, config: RunConfig):
        self.config = config
        self.ctx = config.ctx
        self.spaces: dict = {}
        self.maps: dict = {}
        self._groups: dict = {}

    def group(self, space: ss.StateSpace) -> dyn.SymmetryGroup:
        key = id(space)
        if key not in self._groups:
            self._groups[key] = dyn.reversible_maps(space, self.config.budgets)
        return self._groups[key]

    def factor_pair(self, stmt_ids, offset: int = 0):
        """Resolve (A, B) either from two ids or one product-built space."""
        ids = stmt_ids[offset:]
        if len(ids) == 2:
            return self.spaces[ids[0]], self.spaces[ids[1]]
        space = self.spaces[ids[0]]
        if space.factors is None:
            raise ValueError(
                f"{ids[0]!r} is not a product space; pass two factor spaces"
            )
        return space.factors


def execute(ast: sc.ScenarioAst, config: RunConfig = RunConfig(),
            scenario_name: str = "scenario") -> Report:
    env = _Env(config)
    records = []
    check_no = 0
    for stmt in ast.statements:
        if isinstance(stmt, sc.CheckStmt):
            check_no += 1
            records.append(_run_check(stmt, env, check_no))
            continue
        try:
            if isinstance(stmt, sc.SpaceDef):
                env.spaces[stmt.name] = _eval_space(stmt, env)
            else:
                env.maps[stmt.name] = _eval_map(stmt, env)
        except (ValueError, KeyError) as exc:
            raise sc.ParseError(str(exc), stmt.loc.line, stmt.loc.col) from exc
    return Report(scenario_name, VERSION, config.mode, tuple(records))


def _eval_space(stmt: sc.SpaceDef, env: _Env) -> ss.StateSpace:
    e = stmt.expr
    ctx = env.ctx
    if isinstance(e, sc.BuilderCall):
        builder = ss.BUILDERS[e.builder]
        space = builder(*e.args, ctx=ctx)
        return ss.StateSpace(stmt.name, space.vertices, space.u, ctx,
                             space.factors, space.product_index)
    if isinstance(e, sc.CompositeExpr):
        a, b = env.spaces[e.left], env.spaces[e.right]
        made = ss.min_tensor(a, b) if e.kind == "product" else ss.direct_sum(a, b)
        return ss.StateSpace(stmt.name, made.vertices, made.u, ctx,
                             made.factors, made.product_index)
    rows = [[ctx.num(x) for x in row] for row in e.rows]
    unit = [ctx.num(x) for x in e.unit]
    made = ss.make_space(rows, unit, label=stmt.name, ctx=ctx)
    return made


def _eval_map(stmt: sc.MapDef, env: _Env) -> Matrix:
    e = stmt.expr
    ctx = env.ctx
    if isinstance(e, sc.MatrixLit):
        return Matrix.from_rows([[ctx.num(x) for x in row] for row in e.rows], ctx)
    if e.name == "cnot":
        return ia.cnot_map(ss.simplex(1, ctx))
    if e.name == "identity":
        return Matrix.identity(env.spaces[e.args[0]].ambient_dim, ctx)
    if e.name == "swap":
        return ia.swap_map(env.spaces[e.args[0]], env.spaces[e.args[1]])
    if e.name == "product":
        return ia.product_map(env.maps[e.args[0]], env.maps[e.args[1]])
    if e.name == "ctrl":
        control, system = env.spaces[e.args[0]], env.spaces[e.args[1]]
        maps = [env.maps[m] for m in e.args[2:]]
        return ia.controlled_map(control, system, maps)
    raise ValueError(f"unknown map construction {e.name!r}")


def _run_check(stmt: sc.CheckStmt, env: _Env, number: int) -> CheckRecord:
    check_id = f"c{number:02d}-{stmt.kind}"
    start = time.perf_counter()
    try:
        outcome, verdict, certificate = _dispatch(stmt, env)
    except BudgetExceededError as exc:
        outcome, verdict, certificate = "budget_exceeded", "budget_exceeded", {"error": str(exc)}
    except Exception as exc:  # recorded, never aborts the scenario
        outcome, verdict, certificate = "error", "error", {"error": str(exc)}
    millis = (time.perf_counter() - start) * 1000.0
    if stmt.expect is not None and verdict != "error":
        verdict = "pass" if outcome == stmt.expect else "fail"
    if certificate is not None:
        certificate = {"outcome": outcome, **certificate}
    return CheckRecord(check_id, stmt.kind, verdict, certificate, millis)


def _dispatch(stmt: sc.CheckStmt, env: _Env):
    """Returns (outcome label, natural verdict, certificate dict)."""
    kind = stmt.kind
    ctx = env.ctx

    if kind == "decompose":
        space = env.spaces[stmt.ids[0]]
        decomp = dec.irreducible_components(space)
        outcome = "decomposable" if decomp.n >= 2 else "irreducible"
        cert = {
            "count": decomp.n,
            "blocks": decomp.blocks(),
            "dims": [c.dim for c in decomp.components],
        }
        return outcome, "pass", cert

    if kind == "transitive":
        space = env.spaces[stmt.ids[0]]
        group = env.group(space)
        verdict = dyn.is_transitive(space, group)
        cert = {"transitive": verdict, "orbits": dyn.orbits(space, group)}
        return ("true" if verdict else "false"), ("pass" if verdict else "fail"), cert

    if kind == "group":
        space = env.spaces[stmt.ids[0]]
        group = env.group(space)
        cert = {
            "order": group.order,
            "perms": [list(p) for p in group.perms],
            "matrices": [mat_to_json(g.matrix) for g in group.elements],
            "generators": [list(g.perm) for g in group.generators],
        }
        return str(group.order), "pass", cert

    if kind == "distributivity":
        a, b, c = (env.spaces[i] for i in stmt.ids)
        ok = ss.check_distributivity(a, b, c)
        return ("true" if ok else "false"), ("pass" if ok else "fail"), {"equal": ok}

    if kind == "entangled":
        space = env.spaces[stmt.ids[0]]
        if space.factors is None:
            raise ValueError("entangled check needs a product space")
        a, b = space.factors
        coords = ss.pr_box_state() if stmt.state == "prbox" else \
            tuple(ctx.num(x) for x in stmt.state)
        verdict = ss.is_entangled(coords, a, b)
        cert: dict = {"entangled": verdict.entangled}
        if verdict.entangled:
            cert["separating_covector"] = vec_to_json(verdict.membership.separating, ctx)
        else:
            cert["weights"] = vec_to_json(verdict.membership.weights, ctx)
        outcome = "true" if verdict.entangled else "false"
        return outcome, ("pass" if verdict.entangled else "fail"), cert

    if kind == "theorem1":
        space = env.spaces[stmt.ids[0]]
        group = env.group(space)
        if not dyn.is_transitive(space, group):
            return "inapplicable", "inapplicable", {"reason": "space is not transitive"}
        result = dec.classical_subsystem(space, group, env.config.budgets)
        if result is None:
            return "inapplicable", "inapplicable", {"reason": "space is irreducible"}
        cert = {
            "N": result.n_levels,
            "component_vertices": result.component.nvertices,
            "blocks": result.decomposition.blocks(),
            "iso": {
                "matrix": mat_to_json(result.iso.matrix),
                "vertex_map": list(result.iso.vertex_map),
            },
        }
        return "pass", "pass", cert

    if kind == "theorem2":
        a, b = env.factor_pair(stmt.ids)
        report = ia.verify_theorem2(a, b, (env.group(a), env.group(b)),
                                    env.config.budgets)
        cert = {"total": report.total, "trivial": report.trivial,
                "detail": report.detail}
        if report.counterexample is not None:
            cert["counterexample"] = _witness_json(report.counterexample)
        return report.verdict, report.verdict, cert

    if kind == "lri":
        matrix = env.maps[stmt.ids[0]]
        space = env.spaces[stmt.ids[1]]
        if space.factors is None:
            raise ValueError("lri check needs a product space")
        a, b = space.factors
        witness = ia.lri_decompose(matrix, a, b, (env.group(a), env.group(b)))
        if witness is None:
            return "none", "fail", {"witness": None}
        outcome = "trivial" if witness.is_trivial() else "nontrivial"
        return outcome, "pass", {"witness": _witness_json(witness)}

    if kind == "theorem3":
        matrix = env.maps[stmt.ids[0]]
        space = env.spaces[stmt.ids[1]]
        if space.factors is None:
            raise ValueError("theorem3 check needs a product space")
        a, b = space.factors
        structure = ia.conditional_structure(matrix, a, b)
        if structure is None:
            return "none", "fail", {"blocks": None}
        blocks = []
        for src in sorted(structure.blocks):
            dst, x_mat, y_mat = structure.blocks[src]
            blocks.append({
                "src": list(src),
                "dst": list(dst),
                "x": mat_to_json(x_mat),
                "y": mat_to_json(y_mat),
            })
        return "conditional", "pass", {"blocks": blocks}

    if kind == "broadcaster":
        matrix = env.maps[stmt.ids[0]]
        space = env.spaces[stmt.ids[1]]
        if space.factors is None:
            raise ValueError("broadcaster check needs a product space")
        a, b = space.factors
        witness = ia.lri_decompose(matrix, a, b, (env.group(a), env.group(b)))
        if witness is None:
            return "none", "fail", {"witness": None}
        b_index = stmt.b_index if stmt.b_index is not None else 0
        pb = ia.partial_broadcaster(witness, b_index)
        f_map = ia.broadcast_f_map(pb)
        family = ia.nondisturbing_measurement(pb)
        decomp = ia.extract_decomposition(family)
        cert = {
            "witness": _witness_json(witness),
            "broadcaster": {
                "matrix": mat_to_json(pb.matrix),
                "fixed_side": pb.fixed_side,
                "fixed_index": pb.fixed_index,
            },
            "f_table": [vec_to_json(row, ctx) for row in f_map.table],
            "f_all_pure": f_map.all_pure,
            "f_constant": f_map.is_constant(),
            "measurement": {
                "effects": [vec_to_json(e.covector, ctx) for e, _ in family.members],
                "maps": [mat_to_json(m) for _, m in family.members],
            },
            "decomposition": None if decomp is None else {"blocks": decomp.blocks()},
        }
        outcome = "trivial" if f_map.is_constant() else "nontrivial"
        return outcome, "pass", cert

    raise ValueError(f"unknown check kind {kind!r}")


def _witness_json(witness: ia.LriWitness) -> dict:
    return {
        "matrix": mat_to_json(witness.matrix),
        "x_perms": [list(x.perm) for x in witness.x_family],
        "y_perms": [list(y.perm) for y in witness.y_family],
    }
