"""Reversible transformations, symmetry groups and induced lattice maps.

A reversible transformation of a polytope state space is an invertible
linear map that fixes the unit effect and permutes the vertex set; for
polytopes these form a finite group.  The search backtracks over vertex
bijections that carry one invariant n x n form, the vertex projector, onto
the target's entry by entry.  A bijection does that exactly when it extends
to a linear map (Bremner, Dutour Sikirić, Pasechnik, Rehn & Schürmann,
"Computing symmetry groups of polyhedra", 2014), so the search is complete
without ever touching all n! permutations and needs no check at its leaves.
It prunes by forward checking (Haralick & Elliott, 1980): placing a vertex
narrows every later vertex's bitmask of targets, and an empty one cuts the
branch before the search descends into it.
It reads each space's cached ``vertex_projector`` and ``vertex_classes``,
serves groups, isomorphisms and, told a composite's factors, interactions;
``_map_matrix`` turns a bijection into a matrix on the source's span frame.
The tables of a search of a space's own symmetries are built once and kept
on the space.  A search can pin one vertex to one target, and ``orbits``
runs such pinned first-hit searches, so ``theorem1`` and ``transitive``
never list a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .geometry import FaceLattice
from .linalg import Matrix, veq
from .statespace import StateSpace, sends_vertices


class ReversibleMap:
    """Invertible, u-preserving linear map permuting the vertex set.

    Matrices are built lazily from the vertex permutation: group searches
    produce thousands of elements and most consumers only need the perms.
    """

    __slots__ = ("space", "perm", "_matrix", "_inverse", "_realizes_perm")

    def __init__(self, space: StateSpace, perm: tuple, matrix: Optional[Matrix] = None,
                 inverse: Optional[Matrix] = None):
        self.space = space
        self.perm = tuple(perm)
        self._matrix = matrix
        self._inverse = inverse
        self._realizes_perm = None

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = _map_matrix(self.space, self.space, self.perm)
        return self._matrix

    @property
    def inverse(self) -> Matrix:
        if self._inverse is None:
            inv_perm = tuple(sorted(range(len(self.perm)), key=self.perm.__getitem__))
            self._inverse = _map_matrix(self.space, self.space, inv_perm)
        return self._inverse

    @property
    def realizes_perm(self) -> bool:
        """Whether the matrix sends vertex k to vertex perm[k] for every k.

        Checked on first use and kept: neither the perm nor the matrix of a
        map changes once it is built.
        """
        if self._realizes_perm is None:
            self._realizes_perm = sends_vertices(self.matrix, self.space, self.space, self.perm)
        return self._realizes_perm

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
        return self.realizes_perm


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


def _search_vertex_maps(src: StateSpace, dst: StateSpace, budget: int, find_all: bool,
                        grid: Optional[tuple] = None, *, pin: Optional[tuple] = None) -> list:
    """Vertex bijections src -> dst extending to linear maps on the spans.

    These are the bijections that carry src's vertex projector P onto dst's
    P': the kernel of P is the space of linear dependencies among the
    vertices, so P'[sigma i][sigma j] = P[i][j] for all i, j exactly when
    sigma maps dependencies onto dependencies.  A vertex goes only to a vertex
    of its class (``vertex_classes``, which holds its diagonal entry), and
    placing i -> j keeps in each later vertex k's bitmask domain only the
    l != j with P'[l][j] = P[k][i], so a full assignment matches all n^2
    entries.  A node is one target tried; a static order (fewest targets first)
    and increasing targets give the order an unpruned search would.  Span
    ranks are compared too, since float-mode classes are quantized keys.

    With ``grid`` = (A, B), src is dst = min_tensor(A, B) and each grid
    slice keeps its factor's projector too: cells (i, j), (i2, j) go to cells
    with A-coordinates i', i2' where P_A[i'][i2'] = P_A[i][i2], each cell with
    itself included, and alike for P_B within one a-slice.  So each slice map
    is a factor symmetry and the bijections found are the LRIs.

    ``pin`` = (i, j) keeps only the bijections sending i to j: it ANDs i's
    start domain with bit j.  The static order still comes from the class
    domains, so an unpinned search runs as it always has.  The tables
    (``_search_tables``) of a search of a space's own symmetries (src is dst,
    no grid) are built once and kept on the space, as ``span_frame`` is.
    """
    if src is dst and grid is None:
        cache = vars(src)
        if "_search_tables" not in cache:
            cache["_search_tables"] = _search_tables(src, src, None)
        tables = cache["_search_tables"]
    else:
        tables = _search_tables(src, dst, grid)
    if tables is None:
        return []
    order, start, after = tables
    n = len(order)
    if pin is not None:
        i, j = pin
        start = list(start)
        start[order.index(i)] &= 1 << j
        if 0 in start:
            return []

    sigma = [-1] * n
    found = []
    nodes = 0

    def backtrack(pos: int, doms: list) -> bool:  # doms: positions pos, pos + 1, ...
        nonlocal nodes
        if pos == n:
            found.append(tuple(sigma))
            return not find_all
        dom = doms[0]
        while dom:
            bit = dom & -dom
            dom ^= bit
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"symmetry search exceeded {budget} nodes")
            j = bit.bit_length() - 1
            rest = [d & m for d, m in zip(doms[1:], after[pos][j])]
            if 0 in rest:
                continue
            sigma[order[pos]] = j
            if backtrack(pos + 1, rest):
                return True
        return False

    backtrack(0, start)
    return found


def _search_tables(src: StateSpace, dst: StateSpace, grid: Optional[tuple]) -> Optional[tuple]:
    """(order, start, after) of ``_search_vertex_maps``, or None when no
    bijection can match: the static vertex order, each position's class
    domain, and per position and target the masks left open later on."""
    ctx = src.ctx
    n = src.nvertices
    if n != dst.nvertices or len(src.span_frame[0]) != len(dst.span_frame[0]):
        return None
    src_classes, dst_classes = src.vertex_classes, dst.vertex_classes

    # Projector entries as small integer labels shared by both sides, so the
    # inner loop compares ints; labels follow ctx.key, as the classes do.
    # Under ``grid`` a cell's coordinates keep their factors' classes, rows go
    # on with the cells' P_A, then P_B entries, and pairs[i] lists the
    # (vertex, row offset) pairs that i is compared on.
    labels: dict = {}
    src_gram, dst_gram = ([[labels.setdefault(ctx.key(x), len(labels)) for x in row]
                           for row in space.vertex_projector.rows] for space in (src, dst))
    pairs = [[(k, 0) for k in range(n)]] * n
    if grid:
        cells = src.product_index
        (cls_a, pa), (cls_b, pb) = ((f.vertex_classes, f.vertex_projector.rows) for f in grid)
        src_classes = dst_classes = tuple((c, cls_a[i], cls_b[j])
                                          for c, (i, j) in zip(src_classes, cells))
        for row, (i, j) in zip(src_gram, cells):
            row += [labels.setdefault(ctx.key(x), len(labels)) for x in
                    [pa[i][i2] for i2, _ in cells] + [pb[j][j2] for _, j2 in cells]]
        dst_gram = src_gram
        pairs = [pairs[0] + [(k, n) for k, c in enumerate(cells) if c[1] == j]
                 + [(k, 2 * n) for k, c in enumerate(cells) if c[0] == i] for i, j in cells]
    if sorted(src_classes) != sorted(dst_classes):
        return None
    domain = [sum(1 << j for j in range(n) if dst_classes[j] == c) for c in src_classes]
    order = sorted(range(n), key=lambda i: domain[i].bit_count())
    rank = sorted(range(n), key=order.__getitem__)
    # after[pos][j]: per later position, the bitmask of targets left open by
    # order[pos] -> j; by_col[c][x]: bitmask of the l with dst_gram[l][c] == x.
    by_col = [{} for _ in dst_gram[0]]
    for l, row in enumerate(dst_gram):
        for col, x in zip(by_col, row):
            col[x] = col.get(x, 0) | 1 << l
    after = []
    for pos, i in enumerate(order):
        after.append({j: [~(1 << j)] * (n - pos - 1) for j in range(n) if domain[i] >> j & 1})
        for k, off in pairs[i]:
            if rank[k] > pos:
                for j, masks in after[pos].items():
                    masks[rank[k] - pos - 1] &= by_col[j + off].get(src_gram[k][i + off], 0)
    return order, [domain[i] for i in order], after


def _map_matrix(src: StateSpace, dst: StateSpace, sigma) -> Matrix:
    """Ambient matrix sending src vertex i to dst vertex sigma[i].

    It is read off src's ``span_frame``: each ref vertex goes to its image,
    and each completing unit vector to itself when src is dst (a reversible
    map is the identity off the span) or to zero otherwise.
    """
    ref, basis, inverse = src.span_frame
    cols = [dst.vertices[sigma[i]] for i in ref]
    rest = range(len(ref), basis.ncols)
    if src is dst:
        cols += [basis.col(k) for k in rest]
    else:
        cols += [(src.ctx.zero(),) * dst.ambient_dim for _ in rest]
    return Matrix(tuple(zip(*cols)), src.ctx) @ inverse


def reversible_maps(space: StateSpace, budgets: Budgets = DEFAULT_BUDGETS) -> SymmetryGroup:
    """All reversible transformations of the space, as a materialized group."""
    perms = sorted(_search_vertex_maps(space, space, budgets.group_nodes, find_all=True))
    perm_set = set(perms)
    n = space.nvertices
    for perm in perms:
        if tuple(sorted(range(n), key=lambda i: perm[i])) not in perm_set:
            raise RuntimeError("symmetry search returned a set not closed under inverse")
    return SymmetryGroup(space, tuple(ReversibleMap(space, perm) for perm in perms))


def _greedy_generators(group: SymmetryGroup) -> tuple:
    """Each element, in sorted order, that the ones before it do not generate.

    A generator g moves element index k to the index of element k composed
    with g; what the generators reach is the closure of the identity's index.
    """
    index = {g.perm: k for k, g in enumerate(group.elements)}
    reached = {index[group.identity.perm]}
    gens, moves = [], []
    for k, g in enumerate(group.elements):
        if len(reached) == group.order:
            break
        if k not in reached:
            gens.append(g)
            moves.append([index[tuple(h.perm[i] for i in g.perm)] for h in group.elements])
            _closure(reached, moves)
    return tuple(gens)


def _vertex_map(matrix: Matrix, points, target: StateSpace) -> Optional[tuple]:
    """Index in ``target.vertices`` of each point's image under the matrix.

    None when some image is not a vertex of the target or two images coincide.
    """
    images = tuple(target.vertex_index(matrix.apply(v)) for v in points)
    return None if None in images or len(set(images)) != len(images) else images


def _as_map(space: StateSpace, matrix: Matrix) -> Optional[ReversibleMap]:
    """The matrix as a reversible map of the space, or None when it is not one:
    it must fix u, permute the vertex set and be invertible."""
    d = space.ambient_dim
    if matrix.shape != (d, d):
        raise ValueError("matrix must be square on the ambient dimension")
    if not veq(matrix.left_apply(space.u), space.u, space.ctx):
        return None
    perm = _vertex_map(matrix, space.vertices, space)
    if perm is None:
        return None
    inverse = matrix.inverse()
    if inverse is None:
        return None
    return ReversibleMap(space, perm, matrix, inverse)


def is_reversible_map(space: StateSpace, matrix: Matrix) -> bool:
    """Invertible, fixes u, and permutes the vertex set."""
    return _as_map(space, matrix) is not None


def vertex_permutation(space: StateSpace, matrix: Matrix) -> tuple:
    """The permutation a reversible matrix induces on the vertex list."""
    perm = _vertex_map(matrix, space.vertices, space)
    if perm is None:
        raise ValueError("matrix does not permute the vertex set")
    return perm


def as_reversible_map(space: StateSpace, matrix: Matrix) -> ReversibleMap:
    """Wrap a raw matrix after checking it is a reversible transformation."""
    rmap = _as_map(space, matrix)
    if rmap is None:
        raise ValueError("matrix is not a reversible transformation of this space")
    return rmap


def is_transitive(space: StateSpace, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Single orbit of the vertex-permutation action."""
    return len(orbits(space, budgets)) == 1


def orbits(space: StateSpace, budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """The vertex orbits of the reversible group, each sorted, by least vertex.

    No group is listed (the orbit algorithm of Seress, "Permutation Group
    Algorithms", 2003, ch. 2).  For the least vertex s not yet in an orbit
    and each later vertex t of s's class not yet reached, one first-hit
    search with s pinned to t either finds a symmetry, kept as a generator,
    or shows that t is not in s's orbit.  The orbit is closed under every
    generator found so far.  ``budgets.group_nodes`` caps each search.
    """
    n = space.nvertices
    classes = space.vertex_classes
    gens: list = []
    remaining = set(range(n))
    out = []
    while remaining:
        s = min(remaining)
        orbit = _closure({s}, gens)
        for t in range(s + 1, n):
            if t in orbit or t not in remaining or classes[t] != classes[s]:
                continue
            hit = _search_vertex_maps(space, space, budgets.group_nodes, False, pin=(s, t))
            if hit:
                gens.append(hit[0])
                orbit = _closure(orbit, gens)
        out.append(sorted(orbit))
        remaining -= orbit
    return out


def _closure(points: set, perms: list) -> set:
    """The smallest superset of the points that every perm maps into itself."""
    frontier = list(points)
    while frontier:
        i = frontier.pop()
        for p in perms:
            if p[i] not in points:
                points.add(p[i])
                frontier.append(p[i])
    return points


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
