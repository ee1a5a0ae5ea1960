"""Dense exact linear algebra on tuples of rationals.

Vectors and covectors are plain tuples of scalars; :class:`Matrix` is an
immutable dense matrix.  Everything takes an explicit arithmetic context so
the same code runs in exact and float mode.  Sizes here are tiny (ambient
dimensions below ~20), so the implementations favour clarity and exactness
over asymptotics.  In exact mode the products (``apply``, ``left_apply``,
``@``) run over integers: each row or column is scaled once by the lcm of its
denominators (its ``_scaled`` form), and each output entry costs a single
``Fraction(n, d)``.

``Matrix.sends`` is the one vertex-image check: does M map each vector of
one list to the vector at the same position of another?  Every certificate
of a map on vertices calls it.  In exact mode it compares in integers and
builds no ``Fraction``: M sends vn/vd to wn/wd exactly when
sum(rn * vn) * wd == wn[i] * rd * vd for every row rn/rd of M
(``Matrix.sends_scaled``).  Each state space caches its vertices in
``_scaled`` form (``StateSpace.vertex_forms``), so a check of vertex k against
vertex perm[k] (``statespace.sends_vertices``) rescales nothing.  Float mode
compares the product M @ [src] with [dst] by ``eq``.

There are two elimination loops: the Gauss-Jordan loop of ``Matrix.rref``,
off which ``inverse`` reads, and the incremental echelon of
``independent_subset``, on which ``rank`` and the basis helpers build.  Both
decide zero with ``ctx.is_zero`` on the working entries; a Gauss-Jordan pivot
is the first nonzero entry of its column in exact mode and the largest in
magnitude in float mode.
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

    def eq(self, other: "Matrix") -> bool:
        return self.shape == other.shape and all(
            veq(a, b, self.ctx) for a, b in zip(self.rows, other.rows)
        )

    def sends(self, src: Sequence[Vector], dst: Sequence[Vector]) -> bool:
        """Whether M maps src[k] to dst[k] for every k.

        False when the lists differ in length or a dst vector has the wrong
        dimension; ValueError when a src vector does not have ``ncols``.
        """
        if not self.ctx.exact:
            if not src:
                return not dst
            return (self @ Matrix(tuple(zip(*src)), self.ctx)).eq(Matrix(tuple(zip(*dst)), self.ctx))
        return self.sends_scaled([_scaled(v) for v in src], [_scaled(w) for w in dst])

    def sends_scaled(self, src: Sequence[tuple], dst: Sequence[tuple]) -> bool:
        """``sends`` in exact mode, on vectors given in ``_scaled`` form: row
        rn/rd maps vn/vd to wn[i]/wd iff sum(rn * vn) * wd == wn[i] * rd * vd."""
        for vn, _ in src:
            if len(vn) != self.ncols:
                raise ValueError(f"dimension mismatch: {self.shape} @ {len(vn)}")
        if len(src) != len(dst):
            return False
        rows = self._scaled_rows()
        for (vn, vd), (wn, wd) in zip(src, dst):
            if len(wn) != len(rows):
                return False
            for (rn, rd), w in zip(rows, wn):
                if sum(map(mul, rn, vn)) * wd != w * rd * vd:
                    return False
        return True

    # -- elimination ------------------------------------------------------

    def rank(self) -> int:
        """Rank: the size of a greedy independent subset of the rows."""
        return len(independent_subset(self.rows, self.ctx))

    def rref(self) -> tuple:
        """Reduced row echelon form, by the one Gauss-Jordan loop; returns
        (Matrix, pivot column tuple)."""
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

    def inverse(self):
        """Inverse matrix, or None when singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        ctx = self.ctx
        n = self.nrows
        ident = Matrix.identity(n, ctx).rows
        aug = Matrix(tuple(tuple(r) + ident[i] for i, r in enumerate(self.rows)), ctx)
        red, pivots = aug.rref()
        if list(pivots[:n]) != list(range(n)):
            return None
        return Matrix(tuple(r[n:] for r in red.rows), ctx)


def independent_subset(vectors: Sequence[Vector], ctx: Context = EXACT) -> list:
    """Indices of a greedy maximal linearly independent subset, in order."""
    chosen: list = []
    echelon: list = []  # (leading index, reduced row) mirroring `chosen`
    for idx, v in enumerate(vectors):
        row = list(v)
        for lead, erow in echelon:
            if not ctx.is_zero(row[lead]):
                f = row[lead] / erow[lead]
                row = [x - f * y for x, y in zip(row, erow)]
        lead = next((j for j, x in enumerate(row) if not ctx.is_zero(x)), None)
        if lead is not None:
            chosen.append(idx)
            echelon.append((lead, row))
    return chosen


def complete_basis(cols: Sequence[Vector], d: int, ctx: Context = EXACT) -> list:
    """Independent ``cols`` followed by the unit vectors e_j that complete them
    to a basis of the d-dimensional ambient space, chosen greedily in order."""
    one, zero = ctx.one(), ctx.zero()
    vectors = list(cols) + [tuple(one if k == j else zero for k in range(d)) for j in range(d)]
    return [vectors[k] for k in independent_subset(vectors, ctx)]


def span_projector(vectors: Sequence[Vector], ctx: Context = EXACT) -> Matrix:
    """Orthogonal projector P = W (W^T W)^-1 W^T of R^n onto the column space
    of the n x d matrix whose rows are the given vectors, W a greedy basis of
    its columns.

    The kernel of P is the space of linear dependencies among the vectors:
    P c = 0 iff sum_i c[i] * vectors[i] = 0.
    """
    basis = independent_subset(list(zip(*vectors)), ctx)
    w = Matrix(tuple(tuple(v[j] for j in basis) for v in vectors), ctx)
    wt = w.transpose()
    return w @ ((wt @ w).inverse() @ wt)
