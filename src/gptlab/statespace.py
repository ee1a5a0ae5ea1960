"""State spaces as exact convex polytopes with a unit effect.

A state space is a finite list of extreme points (the pure states) plus the
covector u with u(v) = 1 on every vertex.  Composites come in two flavours:
the minimal tensor product (convex hull of all pure product states, so
entanglement-free by construction) and the direct sum (a classical label of
which summand was prepared).  Vertex order is always lexicographic so every
construction is reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .arith import EXACT, Context
from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .linalg import Matrix, Vector, dot, independent_subset, kron, vec, veq
from .lp import HullMembership, in_hull


@dataclass(frozen=True)
class StateSpace:
    """Polytope of normalized states: vertices, unit effect, provenance."""

    label: str
    vertices: tuple                     # lex-sorted tuple of coordinate tuples
    u: tuple                            # unit effect covector
    ctx: Context = field(default=EXACT, compare=False)
    factors: Optional[tuple] = field(default=None, compare=False)
    product_index: Optional[tuple] = field(default=None, compare=False)
    reduced_away: tuple = field(default=(), compare=False)

    @property
    def ambient_dim(self) -> int:
        return len(self.u)

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def vertex_index(self, v: Vector) -> int:
        return self.vertices.index(tuple(v))

    def unit_value(self, x: Vector):
        return dot(self.u, x)

    def state(self, coords) -> "State":
        """Validated state: normalized and inside the hull of the vertices."""
        x = vec(coords, self.ctx)
        if len(x) != self.ambient_dim:
            raise ValueError("state dimension mismatch")
        if not self.ctx.eq(self.unit_value(x), self.ctx.one()):
            raise ValueError("state is not normalized (u(x) != 1)")
        member = in_hull(x, self.vertices, self.ctx)
        if not member.member:
            raise ValueError("coordinates lie outside the state space")
        return State(self, x)

    def pure(self, index: int) -> "State":
        return State(self, self.vertices[index])

    def __repr__(self) -> str:
        return f"StateSpace({self.label!r}, {self.nvertices} vertices, dim {self.ambient_dim})"


@dataclass(frozen=True)
class State:
    """A normalized state; construct through StateSpace.state for validation."""

    space: StateSpace
    coords: tuple

    def is_pure(self) -> bool:
        return self.coords in self.space.vertices


@dataclass(frozen=True)
class Effect:
    """Linear functional with values in [0,1] on the state space."""

    space: StateSpace
    covector: tuple
    values: tuple  # value on each vertex, the basis-independent identity

    def __call__(self, state) -> object:
        coords = state.coords if isinstance(state, State) else state
        return dot(self.covector, coords)


def zero_effect(space: StateSpace) -> Effect:
    z = space.ctx.zero()
    return Effect(space, tuple(z for _ in range(space.ambient_dim)),
                  tuple(z for _ in space.vertices))


def unit_effect(space: StateSpace) -> Effect:
    one = space.ctx.one()
    return Effect(space, space.u, tuple(one for _ in space.vertices))


# -- construction ----------------------------------------------------------


def make_space(vertices: Sequence[Sequence], u: Sequence, label: str = "",
               reduce: bool = False, ctx: Context = EXACT) -> StateSpace:
    """Validated state space from raw vertex coordinates.

    Rejects duplicate vertices and non-extremal vertex lists; with
    ``reduce=True`` interior points are removed instead and reported on the
    result's ``reduced_away`` field.
    """
    if not vertices:
        raise ValueError("a state space needs at least one vertex")
    uvec = vec(u, ctx)
    pts = [vec(v, ctx) for v in vertices]
    if any(len(p) != len(uvec) for p in pts):
        raise ValueError("vertex/unit effect dimension mismatch")
    one = ctx.one()
    for p in pts:
        if not ctx.eq(dot(uvec, p), one):
            raise ValueError(f"unit effect is not 1 on vertex {p}")

    removed = []
    seen = {}
    unique = []
    for p in pts:
        k = tuple(ctx.key(x) for x in p)
        if k in seen:
            if not reduce:
                raise ValueError(f"duplicate vertex {p}")
            removed.append(p)
        else:
            seen[k] = p
            unique.append(p)

    pts = unique
    changed = True
    while changed and len(pts) > 1:
        changed = False
        for i, p in enumerate(pts):
            others = pts[:i] + pts[i + 1:]
            if in_hull(p, others, ctx).member:
                if not reduce:
                    raise ValueError(f"vertex {p} is not extremal")
                removed.append(p)
                pts = others
                changed = True
                break

    return _assemble(label, pts, uvec, ctx, reduced_away=tuple(removed))


def _assemble(label: str, pts: Sequence[Vector], uvec: Vector, ctx: Context,
              factors=None, reduced_away=()) -> StateSpace:
    """Internal constructor for vertex lists already known to be extremal."""
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    vertices = tuple(tuple(pts[i]) for i in order)
    product_index = None
    if factors is not None:
        # order[k] is the construction position i*|V_B|+j of sorted vertex k
        nb = factors[1].nvertices
        product_index = tuple((o // nb, o % nb) for o in order)
    return StateSpace(label, vertices, tuple(uvec), ctx, factors, product_index,
                      tuple(tuple(p) for p in reduced_away))


# -- builders --------------------------------------------------------------


def point(ctx: Context = EXACT) -> StateSpace:
    one = ctx.one()
    return _assemble("point", [(one,)], (one,), ctx)


def simplex(n: int, ctx: Context = EXACT) -> StateSpace:
    """The n-simplex: an (n+1)-level classical system."""
    if n < 0:
        raise ValueError("simplex(n) needs n >= 0")
    if n == 0:
        return point(ctx)
    one, zero = ctx.one(), ctx.zero()
    verts = [tuple(one if j == i else zero for j in range(n + 1)) for i in range(n + 1)]
    return _assemble(f"simplex({n})", verts, tuple(one for _ in range(n + 1)), ctx)


def gbit(ctx: Context = EXACT) -> StateSpace:
    """The square state space (single system of box-world)."""
    one, zero = ctx.one(), ctx.zero()
    verts = [(sx * one, sy * one, one) for sx in (-1, 1) for sy in (-1, 1)]
    return _assemble("gbit", verts, (zero, zero, one), ctx)


def cube(n: int, ctx: Context = EXACT) -> StateSpace:
    if n < 1:
        raise ValueError("cube(n) needs n >= 1")
    one, zero = ctx.one(), ctx.zero()
    verts = [tuple(s * one for s in signs) + (one,)
             for signs in itertools.product((-1, 1), repeat=n)]
    u = tuple(zero for _ in range(n)) + (one,)
    return _assemble(f"cube({n})", verts, u, ctx)


def cross(n: int, ctx: Context = EXACT) -> StateSpace:
    """Cross-polytope: 2n vertices +/- e_i, embedded at height 1."""
    if n < 1:
        raise ValueError("cross(n) needs n >= 1")
    one, zero = ctx.one(), ctx.zero()
    verts = []
    for i in range(n):
        for s in (-1, 1):
            v = [zero] * n
            v[i] = s * one
            verts.append(tuple(v) + (one,))
    u = tuple(zero for _ in range(n)) + (one,)
    return _assemble(f"cross({n})", verts, u, ctx)


BUILDERS = {
    "point": point,
    "simplex": simplex,
    "gbit": gbit,
    "cube": cube,
    "cross": cross,
}


# -- composites ------------------------------------------------------------


def direct_sum(a: StateSpace, b: StateSpace, label: str = "") -> StateSpace:
    """Block embedding: a classical label of which summand was prepared."""
    if a.ctx != b.ctx:
        raise ValueError("mixed arithmetic contexts")
    zero = a.ctx.zero()
    da, db = a.ambient_dim, b.ambient_dim
    verts = [v + tuple(zero for _ in range(db)) for v in a.vertices]
    verts += [tuple(zero for _ in range(da)) + v for v in b.vertices]
    u = a.u + b.u
    return _assemble(label or f"({a.label}(+){b.label})", verts, u, a.ctx)


def min_tensor(a: StateSpace, b: StateSpace, label: str = "") -> StateSpace:
    """Minimal tensor product: hull of all pure product states a (x) b."""
    if a.ctx != b.ctx:
        raise ValueError("mixed arithmetic contexts")
    verts = [kron(va, vb) for va in a.vertices for vb in b.vertices]
    u = kron(a.u, b.u)
    return _assemble(label or f"({a.label}(x){b.label})", verts, u, a.ctx, factors=(a, b))


def transformed(space: StateSpace, lin: Matrix, label: str = "") -> StateSpace:
    """Image of a space under an invertible ambient map (u pulls back)."""
    inv = lin.inverse()
    if inv is None:
        raise ValueError("transformation must be invertible")
    verts = [lin.apply(v) for v in space.vertices]
    u = inv.transpose().apply(space.u)  # u' = u o lin^{-1}
    return _assemble(label or f"{space.label}'", verts, u, space.ctx)


# -- marginals and products -------------------------------------------------


def _factor_dims(space: StateSpace) -> tuple:
    if space.factors is None:
        raise ValueError(f"{space.label!r} has no recorded factor structure")
    a, b = space.factors
    return a, b, a.ambient_dim, b.ambient_dim


def marginal(state: State, side: str) -> State:
    """Discard one factor of a composite state (apply the other factor's u)."""
    space = state.space
    a, b, da, db = _factor_dims(space)
    x = state.coords
    if side in ("A", "a", 0):
        out = tuple(sum((b.u[j] * x[i * db + j] for j in range(db)), space.ctx.zero())
                    for i in range(da))
        return State(a, out)
    if side in ("B", "b", 1):
        out = tuple(sum((a.u[i] * x[i * db + j] for i in range(da)), space.ctx.zero())
                    for j in range(db))
        return State(b, out)
    raise ValueError("side must be 'A' or 'B'")


def product_decompose(state: State) -> Optional[tuple]:
    """Split a composite state as (a, b) when it equals a (x) b exactly."""
    space = state.space
    _factor_dims(space)
    ma = marginal(state, "A")
    mb = marginal(state, "B")
    if veq(kron(ma.coords, mb.coords), state.coords, space.ctx):
        return ma, mb
    return None


@dataclass(frozen=True)
class EntanglementVerdict:
    entangled: bool
    membership: HullMembership  # weights when separable, covector when not


def is_entangled(coords: Sequence, a: StateSpace, b: StateSpace) -> EntanglementVerdict:
    """Is the vector outside the hull of pure product states of a and b?"""
    ctx = a.ctx
    x = vec(coords, ctx)
    if len(x) != a.ambient_dim * b.ambient_dim:
        raise ValueError("dimension mismatch with the composite ambient")
    composite_u = kron(a.u, b.u)
    if not ctx.eq(dot(composite_u, x), ctx.one()):
        raise ValueError("vector is not normalized under u_A (x) u_B")
    gens = [kron(va, vb) for va in a.vertices for vb in b.vertices]
    member = in_hull(x, gens, ctx)
    return EntanglementVerdict(entangled=not member.member, membership=member)


def pr_box_state() -> tuple:
    """Coordinates of the canonical nonlocal extremal box in gbit (x) gbit.

    Uniform marginals, three correlators +1 and one -1; lies outside the
    minimal tensor product.
    """
    return vec((1, 1, 0, 1, -1, 0, 0, 0, 1))


# -- extremal effects --------------------------------------------------------


def extremal_effects(space: StateSpace, budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """Vertices of the dual effect polytope {0 <= e(v) <= 1 on all vertices}.

    Effects are restricted to the dual of the states' linear span, so
    degenerate ambient coordinates cannot create spurious extremal effects.
    Always contains the zero effect and u.
    """
    ctx = space.ctx
    n = space.nvertices
    p = Matrix.from_rows(space.vertices, ctx)  # n x d: value vector = p @ h
    col_idx = independent_subset(p.cols(), ctx)
    w_cols = [p.col(j) for j in col_idx]
    r = len(w_cols)
    w = Matrix.from_cols(w_cols, ctx)  # n x r, full column rank

    total = 0
    found = {}
    one, zero = ctx.one(), ctx.zero()
    # Constraint rows over y in R^r: w_i . y >= 0 and w_i . y <= 1.
    for combo in itertools.combinations(range(2 * n), r):
        total += 1
        if total > budgets.effect_combinations:
            raise BudgetExceededError(
                f"extremal effect enumeration exceeded {budgets.effect_combinations} combinations"
            )
        rows = []
        rhs = []
        for c in combo:
            i = c % n
            rows.append(w.rows[i])
            rhs.append(zero if c < n else one)
        sub = Matrix(tuple(rows), ctx)
        if sub.rank() < r:
            continue
        y = sub.solve(tuple(rhs))
        if y is None:
            continue
        x = w.apply(y)
        if all(ctx.le(zero, xi) and ctx.le(xi, one) for xi in x):
            found[tuple(ctx.key(v) for v in x)] = tuple(x)

    effects = []
    for x in sorted(found.values()):
        h = p.solve(x)
        effects.append(Effect(space, tuple(h), tuple(x)))
    return effects


# -- distributivity ----------------------------------------------------------


def distributivity_reshuffle(a: StateSpace, b: StateSpace, c: StateSpace) -> tuple:
    """Coordinate permutation from A (x) (B (+) C) onto (A (x) B) (+) (A (x) C)."""
    da, db, dc = a.ambient_dim, b.ambient_dim, c.ambient_dim
    perm = []
    for i in range(da):
        for k in range(db + dc):
            if k < db:
                perm.append(i * db + k)
            else:
                perm.append(da * db + i * dc + (k - db))
    return tuple(perm)


def check_distributivity(a: StateSpace, b: StateSpace, c: StateSpace) -> bool:
    """Sorted vertex lists of both sides agree under the canonical reshuffle."""
    left = min_tensor(a, direct_sum(b, c))
    right = direct_sum(min_tensor(a, b), min_tensor(a, c))
    perm = distributivity_reshuffle(a, b, c)

    def move(v):
        out = [None] * len(v)
        for old, new in enumerate(perm):
            out[new] = v[old]
        return tuple(out)

    return sorted(move(v) for v in left.vertices) == sorted(right.vertices)


# -- JSON --------------------------------------------------------------------


def space_to_json(space: StateSpace) -> dict:
    ctx = space.ctx
    return {
        "label": space.label,
        "ambient_dim": space.ambient_dim,
        "vertices": [[ctx.fmt(x) for x in v] for v in space.vertices],
        "unit_effect": [ctx.fmt(x) for x in space.u],
    }


def space_from_json(data, ctx: Context = EXACT) -> StateSpace:
    """Load and re-validate a state space from its JSON form."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("a state space must be a JSON object")
    verts, u = data.get("vertices"), data.get("unit_effect")
    if not (isinstance(verts, list) and all(isinstance(v, list) for v in verts)
            and isinstance(u, list)):
        raise ValueError("a state space needs 'vertices' (a list of coordinate lists) "
                         "and 'unit_effect' (a coordinate list)")
    verts = [[ctx.parse(x) for x in v] for v in verts]
    u = [ctx.parse(x) for x in u]
    space = make_space(verts, u, label=data.get("label", ""), ctx=ctx)
    if space.ambient_dim != data["ambient_dim"]:
        raise ValueError("ambient_dim does not match the coordinates")
    return space
