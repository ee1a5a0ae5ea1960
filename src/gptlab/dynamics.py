"""Reversible transformations, symmetry groups and induced lattice maps.

A reversible transformation of a polytope state space is an invertible
linear map that fixes the unit effect and permutes the vertex set; for
polytopes these form a finite group.  The search enumerates candidate vertex
bijections pruned by an affinely invariant Gram form, then keeps exactly the
bijections that extend linearly (dependency preservation), so it is complete
without ever touching all n! permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .geometry import FaceLattice
from .linalg import Matrix, dependency_basis, dot, independent_subset, veq, vsub
from .statespace import StateSpace


class ReversibleMap:
    """Invertible, u-preserving linear map permuting the vertex set.

    Matrices are built lazily from the vertex permutation: group searches
    produce thousands of elements and most consumers only need the perms.
    """

    __slots__ = ("space", "perm", "_geom", "_matrix", "_inverse")

    def __init__(self, space: StateSpace, perm: tuple, matrix: Optional[Matrix] = None,
                 inverse: Optional[Matrix] = None, geom=None):
        self.space = space
        self.perm = tuple(perm)
        self._geom = geom
        self._matrix = matrix
        self._inverse = inverse

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = _map_matrix(self._geom, self._geom, self.perm)
        return self._matrix

    @property
    def inverse(self) -> Matrix:
        if self._inverse is None:
            n = len(self.perm)
            inv_perm = tuple(sorted(range(n), key=lambda i: self.perm[i]))
            if self._geom is not None:
                self._inverse = _map_matrix(self._geom, self._geom, inv_perm)
            else:
                self._inverse = self.matrix.inverse()
        return self._inverse

    def __repr__(self) -> str:
        return f"ReversibleMap({self.space.label!r}, perm={self.perm})"

    def verify(self) -> bool:
        s, ctx = self.space, self.space.ctx
        ident = Matrix.identity(s.ambient_dim, ctx)
        if not (self.matrix @ self.inverse).eq(ident):
            return False
        if not (self.inverse @ self.matrix).eq(ident):
            return False
        if not veq(self.matrix.left_apply(s.u), s.u, ctx):
            return False
        return all(
            veq(self.matrix.apply(s.vertices[i]), s.vertices[self.perm[i]], ctx)
            for i in range(s.nvertices)
        )


@dataclass(frozen=True)
class SymmetryGroup:
    """The full reversible group of a space, materialized element by element."""

    space: StateSpace
    elements: tuple  # ReversibleMap, sorted by vertex permutation

    def __post_init__(self):
        object.__setattr__(self, "_by_perm", {g.perm: g for g in self.elements})

    @cached_property
    def generators(self) -> tuple:
        """Greedy generating set, built on first use."""
        return _greedy_generators(self)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def perms(self) -> list:
        return [g.perm for g in self.elements]

    def element_by_perm(self, perm) -> Optional[ReversibleMap]:
        return self._by_perm.get(tuple(perm))

    @property
    def identity(self) -> ReversibleMap:
        return self._by_perm[tuple(range(self.space.nvertices))]


class _VertexGeometry:
    """Pairwise affine invariants and span data for one vertex list."""

    def __init__(self, space: StateSpace):
        ctx = space.ctx
        verts = space.vertices
        n = len(verts)
        d = space.ambient_dim
        self.space = space
        self.ctx = ctx
        self.n = n

        ref = independent_subset(verts, ctx)
        self.ref = ref
        self.r = len(ref)

        # Complete the reference vertices to an ambient basis with standard
        # basis vectors; used to extend span maps by the identity.
        cols = [verts[i] for i in ref]
        for j in range(d):
            e = tuple(ctx.one() if k == j else ctx.zero() for k in range(d))
            if len(independent_subset(cols + [e], ctx)) > len(cols):
                cols.append(e)
        self.full_basis = Matrix.from_cols(cols, ctx)
        self.full_basis_inv = self.full_basis.inverse()
        self.n_complement = d - self.r

        self.deps = dependency_basis(verts, ctx)

        # Integer-rescaled copies for the hot dependency check (exact mode):
        # a common vertex multiplier and per-row dependency multipliers keep
        # every zero test in plain integer arithmetic.
        self.int_verts = None
        self.int_deps = None
        if ctx.exact and verts:
            from math import lcm

            den = lcm(*(x.denominator for v in verts for x in v)) if verts else 1
            self.int_verts = [tuple(int(x * den) for x in v) for v in verts]
            self.int_deps = []
            for c in self.deps:
                dl = lcm(*(x.denominator for x in c))
                self.int_deps.append(tuple(int(x * dl) for x in c))

        # Gram form G[i][j] = x_i^T S^{-1} x_j over direction coordinates,
        # invariant under every u-preserving linear symmetry.
        zero = ctx.zero()
        if n == 1:
            self.gram = ((zero,),)
        else:
            nf = ctx.num(n)
            bary = tuple(sum(col, zero) / nf for col in zip(*verts))
            diffs = [vsub(v, bary) for v in verts]
            dir_idx = independent_subset(diffs, ctx)
            e_mat = Matrix.from_cols([diffs[i] for i in dir_idx], ctx)
            xs = [e_mat.solve(diff) for diff in diffs]
            m = len(dir_idx)
            s_rows = [[zero] * m for _ in range(m)]
            for x in xs:
                for a in range(m):
                    if ctx.is_zero(x[a]):
                        continue
                    for b in range(m):
                        s_rows[a][b] = s_rows[a][b] + x[a] * x[b]
            s_inv = Matrix.from_rows(s_rows, ctx).inverse()
            ys = [s_inv.apply(x) for x in xs]
            self.gram = tuple(tuple(dot(x, y) for y in ys) for x in xs)

        self.classes = tuple(
            (ctx.key(self.gram[i][i]),
             tuple(sorted(ctx.key(v) for v in self.gram[i])))
            for i in range(n)
        )


def _search_vertex_maps(src: _VertexGeometry, dst: _VertexGeometry,
                        budget: int, find_all: bool) -> list:
    """Vertex bijections src -> dst extending to linear maps on the spans.

    Candidates are pruned by Gram-form consistency; survivors are accepted
    iff they preserve every linear dependency (exact linear extendability).
    """
    ctx = src.ctx
    n = src.n
    if n != dst.n or src.r != dst.r:
        return []
    if sorted(src.classes) != sorted(dst.classes):
        return []

    cand = [tuple(j for j in range(n) if dst.classes[j] == src.classes[i])
            for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cand[i]))

    # Gram values as small integer labels shared by both sides, so the inner
    # loop compares ints; labels follow ctx.key, as the classes above do.
    labels: dict = {}
    src_gram, dst_gram = (
        [[labels.setdefault(ctx.key(x), len(labels)) for x in row] for row in geom.gram]
        for geom in (src, dst)
    )

    sigma = [-1] * n
    used = [False] * n
    found = []
    nodes = 0

    int_mode = src.int_deps is not None and dst.int_verts is not None
    dep_rows = src.int_deps if int_mode else src.deps
    dep_verts = dst.int_verts if int_mode else dst.space.vertices
    dep_supports = [
        [(i, c[i]) for i in range(n) if c[i] != 0] if int_mode
        else [(i, c[i]) for i in range(n) if not ctx.is_zero(c[i])]
        for c in dep_rows
    ]
    dim = dst.space.ambient_dim

    def extends(sig) -> bool:
        for supp in dep_supports:
            total = [0] * dim
            for i, ci in supp:
                v = dep_verts[sig[i]]
                for k in range(dim):
                    total[k] += ci * v[k]
            if int_mode:
                if any(total):
                    return False
            elif not all(ctx.is_zero(x) for x in total):
                return False
        return True

    def backtrack(pos: int) -> bool:
        nonlocal nodes
        if pos == n:
            if extends(sigma):
                found.append(tuple(sigma))
                return not find_all
            return False
        i = order[pos]
        gi = src_gram[i]
        placed = [(sigma[k], gi[k]) for k in order[:pos]]
        for j in cand[i]:
            if used[j]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"symmetry search exceeded {budget} nodes"
                )
            gj = dst_gram[j]
            if any(gj[s] != g for s, g in placed):
                continue
            sigma[i] = j
            used[j] = True
            if backtrack(pos + 1):
                return True
            sigma[i] = -1
            used[j] = False
        return False

    backtrack(0)
    return found


def _map_matrix(src: _VertexGeometry, dst: _VertexGeometry, sigma) -> Matrix:
    """Ambient matrix with v_i -> w_sigma(i), identity-like off the span."""
    ctx = src.ctx
    d_dst = dst.space.ambient_dim
    cols = [dst.space.vertices[sigma[i]] for i in src.ref]
    if src.space is dst.space:
        # identity on the chosen complement of the span
        cols += [src.full_basis.col(src.r + k) for k in range(src.n_complement)]
    else:
        zero = tuple(ctx.zero() for _ in range(d_dst))
        cols += [zero] * src.n_complement
    return Matrix(tuple(zip(*cols)), ctx) @ src.full_basis_inv


def reversible_maps(space: StateSpace, budgets: Budgets = DEFAULT_BUDGETS) -> SymmetryGroup:
    """All reversible transformations of the space, as a materialized group."""
    geom = _VertexGeometry(space)
    perms = sorted(_search_vertex_maps(geom, geom, budgets.group_nodes, find_all=True))
    perm_set = set(perms)
    n = space.nvertices
    for perm in perms:
        if tuple(sorted(range(n), key=lambda i: perm[i])) not in perm_set:
            raise RuntimeError("symmetry search returned a set not closed under inverse")
    return SymmetryGroup(space, tuple(ReversibleMap(space, perm, geom=geom) for perm in perms))


def _greedy_generators(group: SymmetryGroup) -> tuple:
    n = group.space.nvertices
    identity = tuple(range(n))
    known = {identity}
    gens = []
    for g in group.elements:
        if g.perm in known:
            continue
        gens.append(g)
        frontier = list(known | {g.perm})
        closure = set(known | {g.perm})
        while frontier:
            p = frontier.pop()
            for q in [h.perm for h in gens]:
                for comp in (tuple(p[q[i]] for i in range(n)), tuple(q[p[i]] for i in range(n))):
                    if comp not in closure:
                        closure.add(comp)
                        frontier.append(comp)
        known = closure
        if len(known) == group.order:
            break
    return tuple(gens)


def is_reversible_map(space: StateSpace, matrix: Matrix) -> bool:
    """Invertible, fixes u, and permutes the vertex set."""
    ctx = space.ctx
    d = space.ambient_dim
    if matrix.shape != (d, d):
        raise ValueError("matrix must be square on the ambient dimension")
    if not veq(matrix.left_apply(space.u), space.u, ctx):
        return False
    if matrix.inverse() is None:
        return False
    lookup = {tuple(ctx.key(x) for x in v): k for k, v in enumerate(space.vertices)}
    images = []
    for v in space.vertices:
        w = matrix.apply(v)
        k = lookup.get(tuple(ctx.key(x) for x in w))
        if k is None:
            return False
        images.append(k)
    return len(set(images)) == space.nvertices


def vertex_permutation(space: StateSpace, matrix: Matrix) -> tuple:
    """The permutation a reversible matrix induces on the vertex list."""
    ctx = space.ctx
    lookup = {tuple(ctx.key(x) for x in v): k for k, v in enumerate(space.vertices)}
    perm = []
    for v in space.vertices:
        k = lookup.get(tuple(ctx.key(x) for x in matrix.apply(v)))
        if k is None:
            raise ValueError("matrix does not permute the vertex set")
        perm.append(k)
    if len(set(perm)) != space.nvertices:
        raise ValueError("matrix does not permute the vertex set")
    return tuple(perm)


def as_reversible_map(space: StateSpace, matrix: Matrix) -> ReversibleMap:
    """Wrap a raw matrix after checking it is a reversible transformation."""
    if not is_reversible_map(space, matrix):
        raise ValueError("matrix is not a reversible transformation of this space")
    return ReversibleMap(space, vertex_permutation(space, matrix),
                         matrix, matrix.inverse())


def is_transitive(space: StateSpace, group: SymmetryGroup) -> bool:
    """Single orbit of the vertex-permutation action."""
    n = space.nvertices
    seen = {0}
    frontier = [0]
    perms = group.perms
    while frontier:
        i = frontier.pop()
        for p in perms:
            j = p[i]
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == n


def orbits(space: StateSpace, group: SymmetryGroup) -> list:
    remaining = set(range(space.nvertices))
    out = []
    perms = group.perms
    while remaining:
        start = min(remaining)
        seen = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for p in perms:
                if p[i] not in seen:
                    seen.add(p[i])
                    frontier.append(p[i])
        out.append(sorted(seen))
        remaining -= seen
    return out


@dataclass(frozen=True)
class FaceAutomorphism:
    """The face-to-face map a reversible transformation induces."""

    lattice: FaceLattice
    map: ReversibleMap
    face_perm: tuple  # lattice face index -> lattice face index

    def image(self, face):
        return self.lattice.faces[self.face_perm[self.lattice.index_of(face)]]


def induced_face_automorphism(space: StateSpace, rmap: ReversibleMap,
                              lattice: FaceLattice) -> FaceAutomorphism:
    """Push every face through the map; verified bijective per rank level."""
    if rmap.space is not space or not rmap.verify():
        raise ValueError("map is not a reversible transformation of this space")
    perm = rmap.perm
    face_perm = []
    for f in lattice.faces:
        image = tuple(sorted(perm[i] for i in f.indices))
        if image not in lattice:
            raise ValueError(f"image {image} of face {f.indices} is not a face")
        face_perm.append(lattice.index_of(image))
    by_card: dict = {}
    for src_idx, dst_idx in enumerate(face_perm):
        card = len(lattice.faces[src_idx])
        if len(lattice.faces[dst_idx]) != card:
            raise ValueError("face image changed cardinality")
        by_card.setdefault(card, set()).add(dst_idx)
    for card, images in by_card.items():
        total = sum(1 for f in lattice.faces if len(f) == card)
        if len(images) != total:
            raise ValueError("face map is not bijective per rank level")
    return FaceAutomorphism(lattice, rmap, tuple(face_perm))
