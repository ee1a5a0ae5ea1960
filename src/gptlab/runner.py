"""Scenario evaluation: statements in order, one record per check.

A failing check never aborts later checks; evaluation errors become
verdict="error" records.  A space or map definition that cannot be evaluated
stops the run with a ParseError at its line:column.  A construction calls its
entry's build function in ``checks.SPACES`` or ``checks.MAPS``, and each
check runs its kind's entry in ``checks.CHECKS``.  With an ``expect`` clause
the verdict is pass/fail by comparison with the computed outcome label, which
lets scenarios encode negative controls (e.g. ``check lri SW on GG expect
none``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .arith import Context, EXACT, float_context
from .config import Budgets, BudgetExceededError, DEFAULT_BUDGETS
from .checks import CHECKS, MAPS, SPACES
from . import dynamics as dyn
from . import scenario as sc
from . import statespace as ss
from .linalg import Matrix
from .report import CheckRecord, Report

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
    if isinstance(e, sc.Call):
        made = _build(SPACES, e, env)
        return ss.StateSpace(stmt.name, made.vertices, made.u, ctx,
                             made.factors, made.product_index)
    rows = [[ctx.num(x) for x in row] for row in e.rows]
    unit = [ctx.num(x) for x in e.unit]
    return ss.make_space(rows, unit, label=stmt.name, ctx=ctx)


def _eval_map(stmt: sc.MapDef, env: _Env) -> Matrix:
    e = stmt.expr
    ctx = env.ctx
    if isinstance(e, sc.MatrixLit):
        return Matrix.from_rows([[ctx.num(x) for x in row] for row in e.rows], ctx)
    return _build(MAPS, e, env)


def _build(table: dict, call: sc.Call, env: _Env):
    """The call's entry built on its resolved operands."""
    entry = table[call.name]
    operands = []
    for k, arg in enumerate(call.args):
        kind = entry.operand(k)
        operands.append(arg if kind == "int" else env.spaces[arg] if kind == "space"
                        else env.maps[arg])
    return entry.build(env.ctx, *operands)


def _run_check(stmt: sc.CheckStmt, env: _Env, number: int) -> CheckRecord:
    check_id = f"c{number:02d}-{stmt.kind}"
    start = time.perf_counter()
    try:
        outcome, verdict, certificate = CHECKS[stmt.kind].run(env, *_operands(stmt, env))
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


def _factors(space: ss.StateSpace, message: str) -> tuple:
    if space.factors is None:
        raise ValueError(message)
    return space.factors


def _operands(stmt: sc.CheckStmt, env: _Env) -> list:
    """The operands of a check's run function, read off its kind's slots."""
    ids = iter(stmt.ids)
    operands = []
    for slot in CHECKS[stmt.kind].slots:
        if slot == "space":
            operands.append(env.spaces[next(ids)])
        elif slot == "map":
            operands.append(env.maps[next(ids)])
        elif slot == "product":
            space = env.spaces[next(ids)]
            operands.extend(_factors(space, f"{stmt.kind} check needs a product space"))
        elif slot == "pair":
            names = list(ids)
            spaces = [env.spaces[name] for name in names]
            operands.extend(spaces if len(spaces) == 2 else _factors(
                spaces[0], f"{names[0]!r} is not a product space; pass two factor spaces"))
        elif slot == "state":
            operands.append(stmt.state)
        elif slot == "b=K":
            operands.append(0 if stmt.b_index is None else stmt.b_index)
    return operands


def run_kind(kind: str, config: RunConfig, *operands) -> tuple:
    """(outcome, verdict, certificate) of one check kind on resolved operands."""
    return CHECKS[kind].run(_Env(config), *operands)
