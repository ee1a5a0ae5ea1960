"""Direct-sum structure: irreducible components and classical subsystems.

A state space decomposes when its vertex set splits into blocks with
linearly independent spans; the finest such partition (the components of the
vector matroid on the vertices) is read off the nonzero entries of the vertex
projector, the same form the symmetry search matches.  A
nontrivial decomposition is exactly a classical degree of freedom, and for
transitive spaces it upgrades to a full classical subsystem: the space
factors as a simplex tensor one component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .config import DEFAULT_BUDGETS, Budgets
from .dynamics import _map_matrix, _search_vertex_maps, is_transitive
from .linalg import Matrix, dot, veq
from .statespace import Effect, StateSpace, _assemble, min_tensor, sends_vertices, simplex


class NotTransitiveError(ValueError):
    """The classical-subsystem factorization requires a transitive space."""


@dataclass(frozen=True)
class Component:
    """One irreducible summand: vertex block, span basis, extracted space."""

    indices: tuple          # vertex indices of the owning space
    basis: Matrix           # ambient_dim x dim, echelon basis of the span
    space: StateSpace       # the block in its own subspace coordinates

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def coords(self, vertex_index: int) -> tuple:
        """Subspace coordinates of a block vertex: ``space`` lists them in the
        order of ``indices`` (lex order survives ``_extract``'s coordinates)."""
        return self.space.vertices[self.indices.index(vertex_index)]


@dataclass(frozen=True)
class Decomposition:
    space: StateSpace
    components: tuple

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def is_trivial(self) -> bool:
        return self.n == 1

    @cached_property
    def block_of(self) -> dict:
        """Vertex index -> index of the component holding it, built on first use."""
        return {v: k for k, comp in enumerate(self.components) for v in comp.indices}

    def blocks(self) -> list:
        return [list(c.indices) for c in self.components]

    def verify(self) -> bool:
        """Blocks partition the vertices and their spans are independent."""
        covered = sorted(i for c in self.components for i in c.indices)
        if covered != list(range(self.space.nvertices)):
            return False
        verts = self.space.vertices
        total = Matrix.from_rows(verts, self.space.ctx).rank()
        ranks = sum(
            Matrix.from_rows([verts[i] for i in c.indices], self.space.ctx).rank()
            for c in self.components
        )
        return ranks == total


def irreducible_components(space: StateSpace) -> Decomposition:
    """Finest partition of the vertices into blocks with additive span ranks.

    These are the components of the vector matroid on the vertex vectors.
    Span ranks add along a partition exactly when the column space of the
    vertex matrix splits along it, that is, exactly when the vertex projector
    P (``StateSpace.vertex_projector``) is block-diagonal along it.  So the
    finest such partition is the connected components of the graph whose
    edges are the nonzero entries of P.
    """
    ctx = space.ctx
    rows = space.vertex_projector.rows
    n = len(rows)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:
            for j in range(n):
                if not seen[j] and not ctx.is_zero(rows[i][j]):
                    seen[j] = True
                    block.append(j)
        blocks.append(block)
    return _decomposition(space, blocks)


def _decomposition(space: StateSpace, blocks) -> Decomposition:
    """Extract each vertex block and order the components canonically."""
    components = [_extract(space, tuple(sorted(b))) for b in blocks]
    components.sort(key=lambda c: (c.dim, len(c.indices), c.indices))
    return Decomposition(space, tuple(components))


def _extract(space: StateSpace, indices: tuple) -> Component:
    """Pull a vertex block out into its own subspace coordinates."""
    ctx = space.ctx
    rows = [space.vertices[i] for i in indices]
    red, pivots = Matrix.from_rows(rows, ctx).rref()
    basis_rows = [red.rows[k] for k in range(len(pivots))]
    basis = Matrix.from_cols(basis_rows, ctx)  # ambient x dim
    # The basis is the identity on the pivot columns, so v = sum_k c_k b_k
    # has c_k = v[pivots[k]].
    coords = [tuple(v[p] for p in pivots) for v in rows]
    sub_u = basis.transpose().apply(space.u)  # u restricted: u(B c) = (B^T u) . c
    label = f"{space.label}#{','.join(str(i) for i in indices)}"
    sub = _assemble(label, coords, sub_u, ctx)
    return Component(indices, basis, sub)


def has_classical_dof(space: StateSpace) -> bool:
    """Definition of a classical degree of freedom: a nontrivial direct sum."""
    return irreducible_components(space).n >= 2


# -- isomorphism -------------------------------------------------------------


@dataclass(frozen=True)
class Isomorphism:
    """Invertible u-preserving linear map matching two vertex sets."""

    source: StateSpace
    target: StateSpace
    matrix: Matrix
    vertex_map: tuple  # source vertex i -> target vertex vertex_map[i]

    def verify(self) -> bool:
        src, dst, ctx = self.source, self.target, self.source.ctx
        if sorted(self.vertex_map) != list(range(dst.nvertices)):
            return False
        if not sends_vertices(self.matrix, src, dst, self.vertex_map):
            return False
        # u_target o L = u_source; literal when the source span is full,
        # and on the span it already holds because vertices map to vertices.
        pulled = self.matrix.transpose().apply(dst.u)
        if Matrix.from_rows(src.vertices, ctx).rank() == src.ambient_dim:
            return veq(pulled, src.u, ctx)
        return all(
            ctx.eq(dot(pulled, v), ctx.one()) for v in src.vertices
        )


def spaces_isomorphic(s1: StateSpace, s2: StateSpace,
                      budgets: Budgets = DEFAULT_BUDGETS) -> Optional[Isomorphism]:
    """Search for a u-preserving linear bijection of vertex sets."""
    perms = _search_vertex_maps(s1, s2, budgets.group_nodes, find_all=False)
    if not perms:
        return None
    return Isomorphism(s1, s2, _map_matrix(s1, s2, perms[0]), perms[0])


# -- classical subsystem (simplex factorization) -----------------------------


@dataclass(frozen=True)
class ClassicalSubsystem:
    """Verified factorization: space == simplex(N) tensor component."""

    space: StateSpace
    n_levels: int            # N: the simplex index, one less than block count
    component: StateSpace
    iso: Isomorphism         # from simplex(N) (x) component onto the space
    decomposition: Decomposition


def classical_subsystem(space: StateSpace,
                        budgets: Budgets = DEFAULT_BUDGETS) -> Optional[ClassicalSubsystem]:
    """Factor a transitive decomposable space as simplex(N) (x) C.

    Returns None when the space is irreducible; raises NotTransitiveError
    when its reversible group does not act transitively (a precondition
    violation, not a negative answer).  Transitivity is read off the vertex
    orbits (``dynamics.orbits``), so no group is listed; ``budgets.group_nodes``
    caps each orbit search and each component isomorphism search.
    """
    if not is_transitive(space, budgets):
        raise NotTransitiveError(f"{space.label!r} is not transitive")
    decomp = irreducible_components(space)
    if decomp.n == 1:
        return None

    comp0 = decomp.components[0]
    c_space = comp0.space
    maps = []
    for comp in decomp.components:
        if comp.dim != comp0.dim or len(comp.indices) != len(comp0.indices):
            raise RuntimeError("transitive space with non-isomorphic components")
        iso = spaces_isomorphic(c_space, comp.space, budgets)
        if iso is None:
            raise RuntimeError("transitive space with non-isomorphic components")
        maps.append(iso)

    n = decomp.n
    composite = min_tensor(simplex(n - 1, space.ctx), c_space)
    # Simplex vertices are lex-sorted, so simplex vertex a is e_(n-1-a): the
    # composite vertex of cell (a, m) goes to vertex m of component n-1-a.
    sigma = tuple(decomp.components[n - 1 - a].indices[maps[n - 1 - a].vertex_map[m]]
                  for a, m in composite.product_index)
    iso = Isomorphism(composite, space, _map_matrix(composite, space, sigma), sigma)
    if not iso.verify():
        raise RuntimeError("classical-subsystem isomorphism failed verification")
    return ClassicalSubsystem(space, n - 1, c_space, iso, decomp)


# -- component indicator effects ---------------------------------------------


def component_indicator_effects(space: StateSpace) -> list:
    """Effects reading out the classical label: 1 on one block, 0 on the rest.

    They always form a complete measurement (they sum to u).
    """
    ctx = space.ctx
    decomp = irreducible_components(space)
    effects = []
    one, zero = ctx.one(), ctx.zero()
    for comp, proj in zip(decomp.components, _block_projectors(decomp)):
        # e_k = u o P_k with P_k the projector onto block k along the rest.
        covector = proj.transpose().apply(space.u)
        values = tuple(one if i in comp.indices else zero for i in range(space.nvertices))
        effects.append(Effect(space, tuple(covector), values))
    # the vertex matrix sends each covector to its values on the vertices
    if not Matrix(space.vertices, ctx).sends([e.covector for e in effects],
                                             [e.values for e in effects]):
        raise RuntimeError("indicator effect failed verification")
    return effects


def _block_projectors(decomp: Decomposition) -> list:
    """Projector onto each component's span along the other components' spans
    and the completing unit vectors of ``span_frame``, read off that frame as
    a vertex map is: projector k keeps the frame's reference vertices in
    block k and sends every other frame column to zero."""
    space = decomp.space
    ref, basis, inverse = space.span_frame
    zero = (space.ctx.zero(),) * space.ambient_dim
    projectors = []
    for k in range(decomp.n):
        cols = [space.vertices[i] if decomp.block_of[i] == k else zero for i in ref]
        cols += [zero] * (basis.ncols - len(ref))
        projectors.append(Matrix(tuple(zip(*cols)), space.ctx) @ inverse)
    return projectors
