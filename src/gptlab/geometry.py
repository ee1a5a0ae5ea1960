"""Convex-polytope combinatorics: vertices of inequality systems, facets,
faces, the face lattice and joins.

A face is identified with the set of vertex indices on which some covector
attains its maximum; the empty set and the full set are faces by convention.
Every nonempty face is an intersection of facets, and the facets of conv(gens)
are the vertices of the cone {h : h(g, 1) >= 0 for all g} cut by one
normalizing equation.  One active-set routine, :func:`active_set_vertices`,
finds those vertices, and the extremal effects of a state space too; its
choices of tight constraints are capped by ``Budgets.active_sets``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
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
    "active_set_vertices",
    "is_face",
    "face_lattice",
    "join",
]


def active_set_vertices(points: Sequence[Vector], ctx: Context = EXACT, upper=None,
                        equations: Sequence = (), budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """Vertices of {h : 0 <= h(p) (<= upper) for every p in points}, with each
    equation (a, b), meaning h(a) = b, held tight.

    Covectors are taken on a greedy basis of the points' coordinate columns
    and zero elsewhere (the representative ``Matrix.solve`` picks), so the
    set is pointed and each vertex solves r independent tight constraints:
    the equations plus r - len(equations) of the bounds.  Every such choice of
    bounds is tried, and each feasible solution is kept once by ``ctx.key``
    of its values.  Returns (h, values on points) pairs sorted by values.
    """
    p = Matrix.from_rows(points, ctx)
    cols = independent_subset(p.cols(), ctx)
    w = Matrix.from_cols([p.col(j) for j in cols], ctx)  # full column rank r
    zero, r = ctx.zero(), len(cols)
    bounds = [row + (zero,) for row in w.rows]
    if upper is not None:
        bounds += [row + (upper,) for row in w.rows]
    fixed = [tuple(a[j] for j in cols) + (b,) for a, b in equations]
    tries = comb(len(bounds), r - len(fixed))
    if tries > budgets.active_sets:
        raise BudgetExceededError(
            f"vertex enumeration needs {tries} active sets, cap is {budgets.active_sets}")
    found = {}
    for combo in itertools.combinations(bounds, r - len(fixed)):
        red, pivots = Matrix(combo + tuple(fixed), ctx).rref()
        if pivots != tuple(range(r)):
            continue  # the tight constraints do not determine a point
        y = tuple(row[r] for row in red.rows)
        x = w.apply(y)
        if all(ctx.le(zero, xi) and (upper is None or ctx.le(xi, upper)) for xi in x):
            h = [zero] * p.ncols
            for j, yj in zip(cols, y):
                h[j] = yj
            found[tuple(ctx.key(v) for v in x)] = (tuple(h), x)
    return sorted(found.values(), key=lambda pair: pair[1])


def _facets(gens: Sequence[Vector], ctx: Context, budgets: Budgets) -> list:
    """(vertex set, covector) per facet of conv(gens).

    Each point g is lifted to (g, 1); a facet is a vertex h of the lifted
    points' dual cone normalized by h(sum of lifted points) = 1, and its
    vertex set is where h vanishes.  The covector -h on the point
    coordinates attains its maximum over gens exactly there.
    """
    one = ctx.one()
    lifted = [tuple(g) + (one,) for g in gens]
    total = tuple(sum(col, ctx.zero()) for col in zip(*lifted))
    return [(frozenset(i for i, v in enumerate(values) if ctx.is_zero(v)),
             tuple(-x for x in h[:-1]))
            for h, values in active_set_vertices(lifted, ctx, equations=[(total, one)],
                                                 budgets=budgets)]


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


def is_face(gens: Sequence[Vector], subset, ctx: Context = EXACT):
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
    closure, h = _support(_facets(gens, ctx, DEFAULT_BUDGETS), idx, gens, ctx)
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
    Raises BudgetExceededError when the facet search needs more active sets
    than the configured cap.
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
