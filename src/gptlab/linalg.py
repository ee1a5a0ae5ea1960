"""Dense exact linear algebra on tuples of rationals.

Vectors and covectors are plain tuples of scalars; :class:`Matrix` is an
immutable dense matrix.  Everything takes an explicit arithmetic context so
the same code runs in exact and float mode.  Sizes here are tiny (ambient
dimensions below ~20), so the implementations favour clarity and exactness
over asymptotics.  In exact mode the products (``apply``, ``left_apply``,
``@``) run over integers: each row or column is scaled once by the lcm of its
denominators, and each output entry costs a single ``Fraction(n, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .arith import EXACT, Context, Scalar

Vector = tuple  # tuple[Scalar, ...]


def vec(values: Iterable, ctx: Context = EXACT) -> Vector:
    return tuple(ctx.num(v) for v in values)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: Scalar, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def dot(a: Vector, b: Vector) -> Scalar:
    return sum(x * y for x, y in zip(a, b, strict=True))


def kron(a: Vector, b: Vector) -> Vector:
    """Kronecker product with layout (i, j) -> i*len(b)+j."""
    return tuple(x * y for x in a for y in b)


def _scaled(v: Vector) -> tuple:
    """A rational vector as (integer numerators, common denominator)."""
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def is_zero_vec(a: Vector, ctx: Context) -> bool:
    return all(ctx.is_zero(x) for x in a)


def veq(a: Vector, b: Vector, ctx: Context) -> bool:
    return len(a) == len(b) and all(ctx.eq(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; rows is a tuple of equal-length tuples."""

    rows: tuple
    ctx: Context = field(default=EXACT, compare=False)
    # exact mode: rows and columns in _scaled form, built on first use
    _int_rows: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _int_cols: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows and len({len(r) for r in self.rows}) != 1:
            raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], ctx: Context = EXACT) -> "Matrix":
        return Matrix(tuple(vec(r, ctx) for r in rows), ctx)

    @staticmethod
    def from_cols(cols: Sequence[Sequence], ctx: Context = EXACT) -> "Matrix":
        return Matrix.from_rows(list(zip(*cols)), ctx) if cols else Matrix((), ctx)

    @staticmethod
    def identity(n: int, ctx: Context = EXACT) -> "Matrix":
        one, zero = ctx.one(), ctx.zero()
        return Matrix(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), ctx)

    @staticmethod
    def zeros(m: int, n: int, ctx: Context = EXACT) -> "Matrix":
        zero = ctx.zero()
        return Matrix(tuple(tuple(zero for _ in range(n)) for _ in range(m)), ctx)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)) if self.rows else (), self.ctx)

    def _scaled_rows(self) -> tuple:
        if self._int_rows is None:
            object.__setattr__(self, "_int_rows", tuple(_scaled(r) for r in self.rows))
        return self._int_rows

    def _scaled_cols(self) -> tuple:
        if self._int_cols is None:
            object.__setattr__(self, "_int_cols", tuple(_scaled(c) for c in zip(*self.rows)))
        return self._int_cols

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {len(v)}")
        if not self.ctx.exact:
            return tuple(dot(r, v) for r in self.rows)
        vn, vd = _scaled(v)
        return tuple(Fraction(sum(map(mul, rn, vn)), rd * vd) for rn, rd in self._scaled_rows())

    def left_apply(self, covec: Vector) -> Vector:
        """covec @ M (covector acting from the left)."""
        if len(covec) != self.nrows:
            raise ValueError(f"dimension mismatch: {len(covec)} @ {self.shape}")
        if not self.ctx.exact:
            return tuple(dot(covec, self.col(j)) for j in range(self.ncols))
        vn, vd = _scaled(covec)
        return tuple(Fraction(sum(map(mul, vn, cn)), vd * cd) for cn, cd in self._scaled_cols())

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        if not self.ctx.exact:
            bt = other.transpose().rows
            return Matrix(tuple(tuple(dot(r, c) for c in bt) for r in self.rows), self.ctx)
        cols = other._scaled_cols()
        return Matrix(tuple(tuple(Fraction(sum(map(mul, rn, cn)), rd * cd) for cn, cd in cols)
                            for rn, rd in self._scaled_rows()), self.ctx)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(vadd(a, b) for a, b in zip(self.rows, other.rows, strict=True)), self.ctx)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(vsub(a, b) for a, b in zip(self.rows, other.rows, strict=True)), self.ctx)

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(tuple(vscale(c, r) for r in self.rows), self.ctx)

    def kron(self, other: "Matrix") -> "Matrix":
        rows = []
        for ra in self.rows:
            for rb in other.rows:
                rows.append(tuple(x * y for x in ra for y in rb))
        return Matrix(tuple(rows), self.ctx)

    def is_zero(self) -> bool:
        return all(self.ctx.is_zero(x) for r in self.rows for x in r)

    def eq(self, other: "Matrix") -> bool:
        return self.shape == other.shape and all(
            veq(a, b, self.ctx) for a, b in zip(self.rows, other.rows)
        )

    # -- elimination ------------------------------------------------------

    def rank(self, col_order: Optional[Sequence[int]] = None) -> int:
        """Exact rank via fraction-free (Bareiss) elimination.

        ``col_order`` permutes the elimination columns; the result must not
        depend on it (property-checked in the test-suite).
        """
        if not self.rows or self.ncols == 0:
            return 0
        ctx = self.ctx
        order = list(col_order) if col_order is not None else list(range(self.ncols))
        m = [[row[j] for j in order] for row in self.rows]
        nr, nc = len(m), len(m[0])
        rank = 0
        prev = ctx.one()
        for c in range(nc):
            pivot_row = None
            for r in range(rank, nr):
                if not ctx.is_zero(m[r][c]):
                    if pivot_row is None or (not ctx.exact and abs(m[r][c]) > abs(m[pivot_row][c])):
                        pivot_row = r
                        if ctx.exact:
                            break
            if pivot_row is None:
                continue
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            piv = m[rank][c]
            for r in range(rank + 1, nr):
                for k in range(c + 1, nc):
                    m[r][k] = (piv * m[r][k] - m[r][c] * m[rank][k]) / prev
                m[r][c] = ctx.zero()
            prev = piv
            rank += 1
            if rank == nr:
                break
        return rank

    def rref(self) -> tuple:
        """Reduced row echelon form; returns (Matrix, pivot column tuple)."""
        ctx = self.ctx
        m = [list(r) for r in self.rows]
        nr = len(m)
        nc = len(m[0]) if m else 0
        pivots = []
        r = 0
        for c in range(nc):
            if r == nr:
                break
            pivot_row = None
            for i in range(r, nr):
                if not ctx.is_zero(m[i][c]):
                    if pivot_row is None or (not ctx.exact and abs(m[i][c]) > abs(m[pivot_row][c])):
                        pivot_row = i
                        if ctx.exact:
                            break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            piv = m[r][c]
            m[r] = [x / piv for x in m[r]]
            for i in range(nr):
                if i != r and not ctx.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return Matrix(tuple(tuple(row) for row in m), ctx), tuple(pivots)

    def nullspace(self) -> list:
        """Canonical basis (RREF-derived) of {x : M x = 0}, as vectors."""
        ctx = self.ctx
        red, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for j in free:
            v = [ctx.zero()] * self.ncols
            v[j] = ctx.one()
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][j]
            basis.append(tuple(v))
        return basis

    def solve(self, b: Vector):
        """One solution of M x = b (free variables set to 0), or None."""
        ctx = self.ctx
        aug = Matrix(tuple(tuple(r) + (bv,) for r, bv in zip(self.rows, b, strict=True)), ctx)
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None  # inconsistent: pivot in the augmented column
        x = [ctx.zero()] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        for r in range(len(pivots), red.nrows):
            if not ctx.is_zero(red.rows[r][self.ncols]):
                return None
        return tuple(x)

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        ctx = self.ctx
        n = self.nrows
        m = [list(r) for r in self.rows]
        prev = ctx.one()
        sign = 1
        for c in range(n):
            pivot_row = None
            for r in range(c, n):
                if not ctx.is_zero(m[r][c]):
                    if pivot_row is None or (not ctx.exact and abs(m[r][c]) > abs(m[pivot_row][c])):
                        pivot_row = r
                        if ctx.exact:
                            break
            if pivot_row is None:
                return ctx.zero()
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            piv = m[c][c]
            for r in range(c + 1, n):
                for k in range(c + 1, n):
                    m[r][k] = (piv * m[r][k] - m[r][c] * m[c][k]) / prev
                m[r][c] = ctx.zero()
            prev = piv
        return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ctx = self.ctx
        n = self.nrows
        aug = Matrix(
            tuple(tuple(r) + tuple(Matrix.identity(n, ctx).rows[i]) for i, r in enumerate(self.rows)),
            ctx,
        )
        red, pivots = aug.rref()
        if list(pivots[:n]) != list(range(n)):
            return None
        return Matrix(tuple(r[n:] for r in red.rows), ctx)


def independent_subset(vectors: Sequence[Vector], ctx: Context = EXACT) -> list:
    """Indices of a greedy maximal linearly independent subset, in order."""
    chosen: list = []
    echelon: list = []  # reduced rows mirroring `chosen`
    for idx, v in enumerate(vectors):
        row = list(v)
        for erow in echelon:
            lead = next(j for j in range(len(erow)) if not ctx.is_zero(erow[j]))
            if not ctx.is_zero(row[lead]):
                f = row[lead] / erow[lead]
                row = [x - f * y for x, y in zip(row, erow)]
        if any(not ctx.is_zero(x) for x in row):
            chosen.append(idx)
            echelon.append(row)
    return chosen


def span_rank(vectors: Sequence[Vector], ctx: Context = EXACT) -> int:
    if not vectors:
        return 0
    return Matrix.from_rows(vectors, ctx).rank()


def dependency_basis(vectors: Sequence[Vector], ctx: Context = EXACT) -> list:
    """Canonical basis of the linear dependencies among the given vectors.

    Returns coefficient vectors c with sum_i c[i] * vectors[i] = 0.
    """
    if not vectors:
        return []
    mat = Matrix.from_cols(vectors, ctx)
    return mat.nullspace()
