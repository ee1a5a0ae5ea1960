"""Convex-polytope combinatorics: extreme rays of cones, facets, faces, the
face lattice and joins.

A face is identified with the set of vertex indices on which some covector
attains its maximum; the empty set and the full set are faces by convention.
Every nonempty face is an intersection of facets, and the facets of conv(gens)
are the extreme rays of the cone {h : h(g, 1) >= 0 for all g}.  One
double-description routine, :func:`extreme_rays`, finds those rays, and the
extremal effects of a state space too; the rays it holds at once are capped
by ``Budgets.dd_rays``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .arith import EXACT, Context
from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .linalg import Matrix, Vector, independent_subset
from .lp import HullMembership, in_hull

__all__ = [
    "Face",
    "FaceLattice",
    "in_hull",
    "HullMembership",
    "extreme_rays",
    "column_basis",
    "extreme_indices",
    "is_face",
    "face_lattice",
    "join",
]


def extreme_rays(rows: Sequence[Vector], ctx: Context = EXACT,
                 budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """Extreme rays of the pointed cone {x : a(x) >= 0 for every row a}.

    Motzkin's double description: the rays of the simplicial cone cut by a
    greedy set of d independent rows are the columns of its inverse; each
    remaining row a then keeps the rays with a(x) >= 0 and adds
    a(p) n - a(n) p for every pair with a(p) > 0 > a(n) that is adjacent.  A
    pair is adjacent when no third ray vanishes on every row, so far, that both
    vanish on; these zero sets are int bitmasks over the rows.  In exact mode
    the rows are scaled to integers once and every ray is a primitive integer
    vector (returned as Fractions); in float mode rays are scaled to max-norm
    1 and ``ctx`` decides the signs.  Raises ValueError when the rows do not
    span (the cone is not pointed) and BudgetExceededError when more than
    ``budgets.dd_rays`` rays are held at once.
    """
    rows = Matrix.from_rows(rows, ctx).rows
    d = len(rows[0])
    basis = independent_subset(rows, ctx)
    if len(basis) < d:
        raise ValueError("the rows do not span, so the cone is not pointed")
    if d > budgets.dd_rays:
        raise BudgetExceededError(
            f"double description holds {d} rays, cap is {budgets.dd_rays}")
    norm = _primitive if ctx.exact else _unit
    scaled = [norm(a) for a in rows]
    inverse = Matrix(tuple(rows[i] for i in basis), ctx).inverse()
    tight = sum(1 << i for i in basis)
    rays = [(norm(c), tight & ~(1 << i)) for i, c in zip(basis, inverse.cols())]
    for k in sorted(set(range(len(rows))) - set(basis)):
        a, bit = scaled[k], 1 << k
        plus, minus, kept = [], [], []
        for ray, zeros in rays:
            s = sum(map(mul, a, ray))
            side = ctx.sign(s)
            if side > 0:
                plus.append((ray, zeros, s))
                kept.append((ray, zeros))
            elif side < 0:
                minus.append((ray, zeros, s))
            else:
                kept.append((ray, zeros | bit))
        zero_sets = [zeros for _, zeros in rays]
        for p, zp, sp in plus:
            for n, zn, sn in minus:
                common = zp & zn
                if common.bit_count() < d - 2 or not _adjacent(common, zero_sets):
                    continue
                kept.append((norm(tuple(sp * x - sn * y for x, y in zip(n, p))), common | bit))
                if len(kept) > budgets.dd_rays:
                    raise BudgetExceededError(
                        f"double description holds {len(kept)} rays, cap is {budgets.dd_rays}")
        rays = kept
    return [tuple(map(ctx.num, ray)) for ray, _ in rays]


def _adjacent(common: int, zero_sets: list) -> bool:
    """True when no zero set but the pair's own two contains ``common``."""
    count = 0
    for zeros in zero_sets:
        if zeros & common == common:
            count += 1
            if count > 2:
                return False
    return True


def _primitive(v: Vector) -> tuple:
    """The positive multiple of a rational vector with coprime integer entries."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _unit(v: Vector) -> tuple:
    """The positive multiple of a float vector with largest entry 1 in size."""
    m = max(abs(x) for x in v) or 1.0
    return tuple(x / m for x in v)


def column_basis(points: Sequence[Vector], ctx: Context = EXACT) -> tuple:
    """(W, S) for a greedy basis of the points' coordinate columns: S is the
    0/1 matrix selecting those columns and W the points restricted to them.

    W has full column rank, so a covector y on the basis is fixed by its
    values W y on the points, and ``S.left_apply(y)`` is the covector with
    those values that vanishes off the basis.
    """
    p = Matrix.from_rows(points, ctx)
    one, zero = ctx.one(), ctx.zero()
    select = Matrix(tuple(tuple(one if k == j else zero for k in range(p.ncols))
                          for j in independent_subset(p.cols(), ctx)), ctx)
    return p @ select.transpose(), select


def _facets(gens: Sequence[Vector], ctx: Context, budgets: Budgets) -> list:
    """(vertex set, covector) per facet of conv(gens).

    Each point g is lifted to (g, 1); a facet is an extreme ray h of the
    lifted points' dual cone normalized by h(sum of lifted points) = 1, and
    its vertex set is where h vanishes.  The covector -h on the point
    coordinates attains its maximum over gens exactly there.  Facets come
    sorted by their values on the lifted points.
    """
    w, select = column_basis([tuple(g) + (ctx.one(),) for g in gens], ctx)
    found = []
    for ray in extreme_rays(w.rows, ctx, budgets):
        values = w.apply(ray)
        total = sum(values, ctx.zero())
        h = select.left_apply(tuple(y / total for y in ray))
        found.append((tuple(v / total for v in values), tuple(-x for x in h[:-1])))
    found.sort(key=lambda pair: pair[0])
    return [(frozenset(i for i, v in enumerate(values) if ctx.is_zero(v)), h)
            for values, h in found]


def _support(facets: list, indices: frozenset, gens: Sequence[Vector], ctx: Context) -> tuple:
    """Intersection of the facets containing ``indices`` (every index of
    gens when none do) and the sum of their covectors."""
    closure = frozenset(range(len(gens)))
    covector = tuple(ctx.zero() for _ in gens[0])
    for vertex_set, h in facets:
        if indices <= vertex_set:
            closure &= vertex_set
            covector = tuple(a + b for a, b in zip(covector, h))
    return closure, covector


def extreme_indices(gens: Sequence[Vector], ctx: Context = EXACT,
                    budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """Indices of the points of a duplicate-free list that are vertices of
    their hull: those whose facet closure is the point alone."""
    facets = _facets(gens, ctx, budgets)
    return [i for i in range(len(gens))
            if _support(facets, frozenset({i}), gens, ctx)[0] == {i}]


@dataclass(frozen=True)
class Face:
    """A face of a vertex list, as a sorted duplicate-free index tuple."""

    indices: tuple
    covector: Optional[tuple] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __le__(self, other: "Face") -> bool:
        return set(self.indices) <= set(other.indices)

    def sort_key(self) -> tuple:
        return (len(self.indices), self.indices)


def is_face(gens: Sequence[Vector], subset, ctx: Context = EXACT,
            budgets: Budgets = DEFAULT_BUDGETS):
    """Decide the face condition for a vertex-index subset.

    Returns (verdict, covector).  The subset is a face when it equals the
    intersection of the facets containing it; the covector, the sum of those
    facets' covectors, certifies a positive verdict: its maximum over gens is
    attained exactly on the subset.  The empty set is a face by convention
    (certificate None).
    """
    idx = frozenset(subset)
    if any(i < 0 or i >= len(gens) for i in idx):
        raise ValueError("subset indices out of range")
    if not idx:
        return True, None
    closure, h = _support(_facets(gens, ctx, budgets), idx, gens, ctx)
    if closure != idx:
        return False, None
    return True, h


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope, ordered by inclusion, with a join table."""

    gens: tuple
    faces: tuple  # sorted by (cardinality, index tuple)
    ctx: Context = field(default=EXACT, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {f.indices: k for k, f in enumerate(self.faces)})

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, face) -> bool:
        indices = face.indices if isinstance(face, Face) else tuple(sorted(face))
        return indices in self._index

    def index_of(self, face) -> int:
        indices = face.indices if isinstance(face, Face) else tuple(sorted(face))
        return self._index[indices]

    def face_for(self, indices) -> Face:
        return self.faces[self.index_of(indices)]

    @property
    def bottom(self) -> Face:
        return self.faces[0]

    @property
    def top(self) -> Face:
        return self.faces[-1]

    def counts_by_cardinality(self) -> dict:
        out: dict = {}
        for f in self.faces:
            out[len(f)] = out.get(len(f), 0) + 1
        return out


def face_lattice(gens: Sequence[Vector], ctx: Context = EXACT,
                 budgets: Budgets = DEFAULT_BUDGETS) -> FaceLattice:
    """Enumerate every face of conv(gens): the full set closed under
    intersection with facets, plus the empty face.

    Deterministic: faces come out sorted by (cardinality, lex index set).
    Raises BudgetExceededError when the facet search holds more rays than the
    configured cap.
    """
    n = len(gens)
    if not n:
        raise ValueError("empty generator list")
    facets = _facets(gens, ctx, budgets)
    found = {frozenset(range(n))}
    for vertex_set, _ in facets:
        found |= {f & vertex_set for f in found}
    faces = [Face(())]
    for f in found - {frozenset()}:
        faces.append(Face(tuple(sorted(f)), _support(facets, f, gens, ctx)[1]))
    faces.sort(key=Face.sort_key)
    return FaceLattice(tuple(tuple(g) for g in gens), tuple(faces), ctx)


def join(lattice: FaceLattice, f1: Face, f2: Face) -> Face:
    """Minimal face containing both: the meet of all common upper bounds."""
    if f1 not in lattice or f2 not in lattice:
        raise ValueError("faces do not belong to this lattice")
    union = set(f1.indices) | set(f2.indices)
    best = set(lattice.top.indices)
    for f in lattice.faces:
        fset = set(f.indices)
        if union <= fset:
            best &= fset
    return lattice.face_for(tuple(sorted(best)))
