"""Exact-rational linear programming (phase-1 simplex) with certificates.

The only problem solved here is feasibility: convex-hull membership.  The
simplex runs over the ambient arithmetic context, uses Bland's rule
(termination without tolerances in exact mode) and returns a Farkas
certificate whenever a system is infeasible, so every answer is
independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import EXACT, Context
from .linalg import Vector, dot


@dataclass(frozen=True)
class LpResult:
    """Outcome of a feasibility run for A x = b, x >= 0."""

    feasible: bool
    x: Optional[tuple] = None
    farkas: Optional[tuple] = None  # y with y.A <= 0 and y.b > 0


def solve_equality_feasibility(a_rows: Sequence[Vector], b: Vector, nvars: int,
                               ctx: Context = EXACT) -> LpResult:
    """Find x >= 0 with A x = b, or a Farkas certificate of infeasibility."""
    m = len(a_rows)
    if m != len(b):
        raise ValueError("row/rhs mismatch")
    one, zero = ctx.one(), ctx.zero()
    a_rows = [tuple(ctx.num(x) for x in row) for row in a_rows]
    b = tuple(ctx.num(x) for x in b)

    # Normalize to nonnegative right-hand sides, remembering the row flips.
    flip = [ctx.sign(bi) < 0 for bi in b]
    rows = []
    rhs = []
    for i in range(m):
        coeff = list(a_rows[i])
        bi = b[i]
        if flip[i]:
            coeff = [-x for x in coeff]
            bi = -bi
        rows.append(coeff + [one if j == i else zero for j in range(m)] + [bi])
        rhs.append(bi)

    total = nvars + m  # structural + artificial columns
    basis = [nvars + i for i in range(m)]

    # Objective row for min(sum of artificials): reduced costs under the
    # all-artificial basis are c_j - sum of column entries.
    obj = [zero] * (total + 1)
    for j in range(total + 1):
        s = zero
        for r in rows:
            s = s + r[j]
        cj = one if nvars <= j < total else zero
        obj[j] = cj - s

    while True:
        enter = None
        for j in range(total):
            if ctx.lt(obj[j], zero):
                enter = j  # Bland: smallest index
                break
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            arj = rows[r][enter]
            if ctx.lt(zero, arj):
                ratio = rows[r][total] / arj
                if best is None or ctx.lt(ratio, best) or (
                    ctx.eq(ratio, best) and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed tableau")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for r in range(m):
            if r != leave and not ctx.is_zero(rows[r][enter]):
                f = rows[r][enter]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[leave])]
        if not ctx.is_zero(obj[enter]):
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    value = zero
    for r in range(m):
        if basis[r] >= nvars:
            value = value + rows[r][total]

    if ctx.is_zero(value):
        x = [zero] * nvars
        for r in range(m):
            if basis[r] < nvars:
                x[basis[r]] = rows[r][total]
        return LpResult(feasible=True, x=tuple(x))

    # Farkas: y' = c_B B^{-1}; the artificial block of the tableau is B^{-1}.
    yprime = []
    for i in range(m):
        s = zero
        for r in range(m):
            if basis[r] >= nvars:
                s = s + rows[r][nvars + i]
        yprime.append(s)
    y = tuple(-yi if fl else yi for yi, fl in zip(yprime, flip))
    return LpResult(feasible=False, farkas=y)


@dataclass(frozen=True)
class HullMembership:
    """Certificate-carrying answer to 'is p in conv(gens)?'."""

    member: bool
    weights: Optional[tuple] = None      # convex combination over gens
    separating: Optional[tuple] = None   # covector h with h(p) > max_i h(g_i)

    def verify(self, p: Vector, gens: Sequence[Vector], ctx: Context = EXACT) -> bool:
        if self.member:
            w = self.weights
            if w is None or len(w) != len(gens):
                return False
            if any(ctx.lt(wi, ctx.zero()) for wi in w):
                return False
            if not ctx.eq(sum(w, ctx.zero()), ctx.one()):
                return False
            recon = [ctx.zero()] * len(p)
            for wi, g in zip(w, gens):
                recon = [a + wi * b for a, b in zip(recon, g)]
            return all(ctx.eq(a, b) for a, b in zip(recon, p))
        h = self.separating
        if h is None:
            return False
        hp = dot(h, p)
        return all(ctx.lt(dot(h, g), hp) for g in gens)


def in_hull(p: Vector, gens: Sequence[Vector], ctx: Context = EXACT) -> HullMembership:
    """Exact convex-hull membership with a weight or separation certificate."""
    if not gens:
        raise ValueError("empty generator list")
    d = len(p)
    if any(len(g) != d for g in gens):
        raise ValueError("generators and point must share one dimension")
    n = len(gens)
    one = ctx.one()
    a_rows = [tuple(g[i] for g in gens) for i in range(d)]
    a_rows.append(tuple(one for _ in range(n)))
    b = tuple(p) + (one,)
    res = solve_equality_feasibility(a_rows, b, n, ctx)
    if res.feasible:
        return HullMembership(member=True, weights=res.x)
    # y = (h, t) with h.g_i + t <= 0 for all i and h.p + t > 0.
    h = res.farkas[:d]
    return HullMembership(member=False, separating=h)
