"""Phase-1 simplex for convex-hull membership, with certificates.

The only problem solved here is feasibility of A x = b, x >= 0, which is
convex-hull membership.  Every answer is checkable: a point x, or a Farkas
vector y with y.A <= 0 < y.b.  The simplex uses Bland's rule (the smallest
entering column; ratio ties go to the smallest basic column), so it
terminates without tolerances.

Exact mode pivots in Python ints, fraction-free (Edmonds, J. Res. NBS 1967;
Bareiss, Math. Comp. 1968).  Column j of A is scaled by s_j, the lcm of its
denominators, and b by L, the lcm of its denominators; artificial columns
keep scale 1.  The tableau then shares one denominator D, which starts at 1.
A pivot on piv = T[r][c] keeps row r and sends every other row x, f = x[c],
to (x.piv - f.T[r]) / D; then D becomes piv.  The division is exact, since
each entry is a minor of the scaled integer system, and T[r][j] stands for
the rational entry T[r][j] s_basis[r] / (D s_j).

Scaling column j by s_j > 0 multiplies its reduced cost by s_j, and every
ratio of one ratio test by the same L / s_c.  D stays positive, since each
pivot is a positive entry.  So the integer signs give Bland's entering column,
cross-multiplied ratios give his leaving row, and the pivots, x and y are
exactly those of a Fraction tableau.  Float mode runs the same rule on context
scalars compared with ``ctx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import truediv
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
    if len(a_rows) != len(b):
        raise ValueError("row/rhs mismatch")
    if any(len(row) != nvars for row in a_rows):
        raise ValueError("row length differs from nvars")
    # Normalize to nonnegative right-hand sides, remembering the row flips.
    b = [ctx.num(x) for x in b]
    flip = [ctx.sign(bi) < 0 for bi in b]
    rows = [[-ctx.num(x) if fl else ctx.num(x) for x in row] + [-bi if fl else bi]
            for row, bi, fl in zip(a_rows, b, flip)]
    if ctx.exact:
        tableau, basis, scale, denom = _phase1_integer(rows, nvars)
    else:
        tableau, basis, scale, denom = _phase1_float(rows, nvars, ctx)

    # Entry j of row r stands for T[r][j] scale[basis[r]] / (denom scale[j]).
    quot = Fraction if ctx.exact else truediv
    total = nvars + len(rows)
    artificial = [row for row, k in zip(tableau, basis) if k >= nvars]
    if ctx.is_zero(sum(row[total] for row in artificial)):
        x = [ctx.zero()] * nvars
        for row, k in zip(tableau, basis):
            if k < nvars:
                x[k] = quot(scale[k] * row[total], denom * scale[total])
        return LpResult(feasible=True, x=tuple(x))

    # Farkas: y' = c_B B^{-1}; the artificial block of the tableau is B^{-1}.
    y = []
    for i, fl in enumerate(flip):
        yi = quot(sum(row[nvars + i] for row in artificial), denom)
        y.append(-yi if fl else yi)
    return LpResult(feasible=False, farkas=tuple(y))


def _phase1_integer(rows, nvars):
    """Fraction-free phase 1 on rows of Fractions (coefficients, then rhs).

    Returns the final integer tableau, its basis, the column scales and D.
    """
    m = len(rows)
    total = nvars + m
    # the lcm of each column's denominators, the rhs last
    lcms = [lcm(*(row[j].denominator for row in rows)) for j in range(nvars + 1)]
    ints = [[x.numerator * (s // x.denominator) for x, s in zip(row, lcms)] for row in rows]
    tableau = [row[:nvars] + [int(k == i) for k in range(m)] + row[nvars:]
               for i, row in enumerate(ints)]
    scale = lcms[:nvars] + [1] * m + lcms[nvars:]
    # Reduced costs of min(sum of artificials) under the artificial basis.
    obj = ([-sum(row[j] for row in tableau) for j in range(nvars)] + [0] * m
           + [-sum(row[total] for row in tableau)])
    basis = list(range(nvars, total))
    denom = 1
    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r, row in enumerate(tableau):
            if row[enter] > 0:
                if leave is not None:
                    # this row's ratio rhs / entry against the best, cross-multiplied
                    diff = row[total] * piv - prow[total] * row[enter]
                    if diff > 0 or (diff == 0 and basis[r] > basis[leave]):
                        continue
                leave, prow, piv = r, row, row[enter]
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed tableau")
        for r, row in enumerate(tableau):
            if r != leave:
                tableau[r] = _eliminate(row, prow, enter, piv, denom)
        obj = _eliminate(obj, prow, enter, piv, denom)
        basis[leave] = enter
        denom = piv
    return tableau, basis, scale, denom


def _eliminate(row, prow, enter, piv, denom):
    """Row after the fraction-free pivot on prow[enter] = piv; exact over denom."""
    f = row[enter]
    if f:
        return [(x * piv - f * y) // denom for x, y in zip(row, prow)]
    return [x * piv // denom for x in row]


def _phase1_float(rows, nvars, ctx):
    """The same phase 1 on context scalars, with unit scales and D = 1."""
    m = len(rows)
    total = nvars + m  # structural + artificial columns
    one, zero = ctx.one(), ctx.zero()
    tableau = [row[:nvars] + [one if k == i else zero for k in range(m)] + row[nvars:]
               for i, row in enumerate(rows)]
    basis = list(range(nvars, total))
    # Reduced costs of min(sum of artificials) under the artificial basis.
    obj = [(one if nvars <= j < total else zero) - sum((row[j] for row in tableau), zero)
           for j in range(total + 1)]
    while True:
        enter = next((j for j in range(total) if ctx.lt(obj[j], zero)), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            arj = tableau[r][enter]
            if ctx.lt(zero, arj):
                ratio = tableau[r][total] / arj
                if best is None or ctx.lt(ratio, best) or (
                    ctx.eq(ratio, best) and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed tableau")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for r in range(m):
            if r != leave and not ctx.is_zero(tableau[r][enter]):
                f = tableau[r][enter]
                tableau[r] = [x - f * y for x, y in zip(tableau[r], tableau[leave])]
        if not ctx.is_zero(obj[enter]):
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tableau[leave])]
        basis[leave] = enter
    return tableau, basis, [1] * (total + 1), 1


@dataclass(frozen=True)
class HullMembership:
    """Certificate-carrying answer to 'is p in conv(gens)?'."""

    member: bool
    weights: Optional[tuple] = None      # convex combination over gens
    separating: Optional[tuple] = None   # covector h with h(p) > max_i h(g_i)

    def verify(self, p: Vector, gens: Sequence[Vector], ctx: Context = EXACT) -> bool:
        if any(len(g) != len(p) for g in gens):
            return False
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
        if h is None or len(h) != len(p):
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
