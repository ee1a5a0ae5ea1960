"""Locally reversible interactions and the machinery built on top of them.

An interaction T on a minimal tensor product is locally reversible when
T(a (x) b) = X_b(a) (x) Y_a(b) on all pure states, with every X_b and Y_a a
reversible transformation of its factor; it is trivial when both families
are constant.  From a witness one constructs partial broadcasters (fix one
input, undo the local map on the matching output), from broadcasters
non-disturbing measurements, and from a nontrivial measurement a direct-sum
decomposition of the state space.  ``_slots`` alone knows which output slot
of a broadcaster holds the source and which the copy.

Every locally reversible T permutes the pure product states, so it is a
symmetry of the minimal tensor product whose grid slices are symmetries of
the factors.  One run of the symmetry search of ``dynamics``, testing each
slice as it places a cell, finds exactly those.  This exhausts all witnesses
of a composite at desk scale, which turns the triviality theorems into
machine-checkable statements.  Maps given on vertices (``cnot_map``,
component maps) are read off span frames by ``_map_matrix``; one
vertex-image check certifies a block form (``BlockStructure.verify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .decompose import (
    Decomposition,
    _block_projectors,
    _decomposition,
    component_indicator_effects,
    has_classical_dof,
    irreducible_components,
)
from .dynamics import ReversibleMap, _as_map, _map_matrix, _search_vertex_maps
from .linalg import Matrix, dot, kron, veq
from .statespace import Effect, State, StateSpace, min_tensor, sends_vertices


class NormalizationError(ValueError):
    """The candidate map does not preserve the unit effect."""


class StructuralFailureError(ValueError):
    """A broadcaster image is not of the product form s (x) f(s)."""


class NotNondisturbingError(ValueError):
    """A measurement element fails to act as a scalar on some pure state."""


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class LriWitness:
    """Families certifying local reversibility of one interaction."""

    a_space: StateSpace
    b_space: StateSpace
    composite: StateSpace
    matrix: Matrix
    x_family: tuple  # ReversibleMap on A, indexed by B-vertex
    y_family: tuple  # ReversibleMap on B, indexed by A-vertex

    def verify(self) -> bool:
        """Re-check T(a (x) b) = X_b(a) (x) Y_a(b) on every vertex pair.

        Two vertex-image checks: (1) each distinct family member is a map of
        its factor's vertex list and sends vertex k to vertex perm[k]; (2) T
        sends a_i (x) b_j to the composite vertex a_i' (x) b_j' with
        i' = X_j.perm[i] and j' = Y_i.perm[j].  By (1), a_i' = X_j(a_i) and
        b_j' = Y_i(b_j), so (2) is the identity.

        Check (1) reads ``ReversibleMap.realizes_perm``, which each member
        computes once and keeps.  That is sound because a member's perm and
        matrix never change once it is built, so the answer cannot go stale;
        a member that fails keeps failing, in every witness that holds it.
        Check (2) depends on T and runs on every call.
        """
        if len(self.x_family) != self.b_space.nvertices or \
                len(self.y_family) != self.a_space.nvertices:
            return False
        for space, family in ((self.a_space, self.x_family), (self.b_space, self.y_family)):
            for g in set(family):
                if g.space.vertices != space.vertices or not g.realizes_perm:
                    return False
        comp = self.composite
        position = {cell: k for k, cell in enumerate(comp.product_index)}
        perm = [position[self.x_family[j].perm[i], self.y_family[i].perm[j]]
                for i, j in comp.product_index]
        return sends_vertices(self.matrix, comp, comp, perm)

    def is_trivial(self) -> bool:
        return len({x.perm for x in self.x_family}) == 1 and \
            len({y.perm for y in self.y_family}) == 1


def is_trivial_lri(witness: LriWitness) -> bool:
    """Both local families constant: the interaction generates no correlations."""
    return witness.is_trivial()


def lri_decompose(t: Matrix, a: StateSpace, b: StateSpace,
                  groups: tuple) -> Optional[LriWitness]:
    """Read the local families off a candidate interaction, or fail.

    T must be a reversible map of the composite: invertible, and permuting
    the pure product states.  The families are the grid slices of that
    permutation, and each must be an element of its factor's reversible
    group.  Returns None when T is not reversible or some slice is not a
    local symmetry.  A map that breaks u-preservation raises
    NormalizationError (a malformed input, not a mere witness failure).
    """
    composite = min_tensor(a, b)
    d = composite.ambient_dim
    if t.shape != (d, d):
        raise ValueError("matrix does not act on the composite ambient")
    if not veq(t.left_apply(composite.u), composite.u, a.ctx):
        raise NormalizationError("u o T != u on the composite")
    g = _as_map(composite, t)
    witness = None if g is None else _witness(a, b, composite, g, groups)
    if witness is None or not witness.verify():
        return None
    return witness


def _witness(a: StateSpace, b: StateSpace, composite: StateSpace, g: ReversibleMap,
             groups: tuple) -> Optional[LriWitness]:
    """The witness whose families are the grid slices of g, or None.

    X_b is the slice with b fixed and Y_a the slice with a fixed; each must
    be an element of its factor group.  The witness is not yet verified.
    """
    group_a, group_b = groups
    x_perms = [[0] * a.nvertices for _ in range(b.nvertices)]
    y_perms = [[0] * b.nvertices for _ in range(a.nvertices)]
    index = composite.product_index
    for (i, j), k in zip(index, g.perm):
        x_perms[j][i], y_perms[i][j] = index[k]
    xs = tuple(group_a.element_by_perm(p) for p in x_perms)
    ys = tuple(group_b.element_by_perm(p) for p in y_perms)
    if None in xs or None in ys:
        return None
    return LriWitness(a, b, composite, g.matrix, xs, ys)


# -- exhaustive enumeration ---------------------------------------------------


@dataclass(frozen=True)
class LriEnumeration:
    """All locally reversible interactions of one composite (none when incomplete)."""

    pairs: tuple        # (Matrix, LriWitness) in canonical order
    complete: bool
    explored: int

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def enumerate_lris(a: StateSpace, b: StateSpace, groups: tuple,
                   budgets: Budgets = DEFAULT_BUDGETS) -> LriEnumeration:
    """Exhaust every reversible T with T(a (x) b) = X_b(a) (x) Y_a(b).

    Such a T is exactly a composite symmetry whose grid slices lie in the
    factor groups (fix b: X_b in G_A; fix a: Y_a in G_B): what one symmetry
    search of the composite finds when it tests the slices as it places each
    cell (``_search_vertex_maps`` with ``grid``).  ``explored`` counts the
    bijections found, each read into a witness over ``groups`` and
    re-verified; a search over ``budgets.group_nodes`` leaves the enumeration
    incomplete and empty.
    """
    composite = min_tensor(a, b)
    try:
        perms = _search_vertex_maps(composite, composite, budgets.group_nodes, True, (a, b))
    except BudgetExceededError:
        return LriEnumeration((), False, 0)
    found = []
    for perm in perms:
        witness = _witness(a, b, composite, ReversibleMap(composite, perm), groups)
        if witness is None or not witness.verify():
            raise RuntimeError("enumerated witness failed re-verification")
        found.append((witness.matrix, witness))
    found.sort(key=lambda pair: pair[0].rows)
    return LriEnumeration(tuple(found), True, len(perms))


# -- named interaction builders ----------------------------------------------


def product_map(x: Matrix, y: Matrix) -> Matrix:
    return x.kron(y)


def swap_map(a: StateSpace, b: StateSpace) -> Matrix:
    """Factor swap as an endomap of the composite ambient (equal dims only)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("swap needs factors of equal ambient dimension")
    ctx = a.ctx
    da, db = a.ambient_dim, b.ambient_dim
    one, zero = ctx.one(), ctx.zero()
    rows = []
    for j in range(db):
        for i in range(da):
            row = [zero] * (da * db)
            row[i * db + j] = one
            rows.append(row)
    return Matrix.from_rows(rows, ctx)


def cnot_map(d1: StateSpace) -> Matrix:
    """The classical controlled-not on bit (x) bit: (x, y) -> (x, x xor y).

    Bit value = vertex index of the two-vertex factor.  A vertex map of the
    composite (``_map_matrix``): the identity off the product vertices' span.
    """
    if d1.nvertices != 2:
        raise ValueError("cnot is defined on a two-vertex classical factor")
    c = min_tensor(d1, d1)
    position = {cell: k for k, cell in enumerate(c.product_index)}
    return _map_matrix(c, c, [position[x, x ^ y] for x, y in c.product_index])


def controlled_map(classical: StateSpace, system: StateSpace,
                   maps: Sequence[Matrix]) -> Matrix:
    """Apply maps[k] to the system conditioned on summand k of the control.

    The control space must decompose into exactly len(maps) components.
    """
    ctx = classical.ctx
    decomp = irreducible_components(classical)
    if decomp.n != len(maps):
        raise ValueError(
            f"control space has {decomp.n} classical values, got {len(maps)} maps"
        )
    d = system.ambient_dim
    for k, m in enumerate(maps):
        if m.shape != (d, d):
            raise ValueError(f"map {k} is {m.nrows}x{m.ncols}, but the system "
                             f"{system.label!r} needs {d}x{d}")
    n = classical.ambient_dim * d
    total = Matrix.zeros(n, n, ctx)
    for proj, m in zip(_block_projectors(decomp), maps):
        total = total + proj.kron(m)
    return total


# -- partial broadcasters ------------------------------------------------------


@dataclass(frozen=True)
class PartialBroadcaster:
    """Map B with (id (x) u) o B = id: copies which-subspace information."""

    source: StateSpace          # the preserved system
    other: StateSpace           # the system receiving the copy
    composite: StateSpace
    matrix: Matrix              # composite ambient x source ambient
    fixed_side: str             # which factor held the fixed input: "B" or "A"
    fixed_index: int
    witness_element: ReversibleMap  # the local map undone in the construction

    def verify(self) -> bool:
        """Exact matrix identity (id (x) u_other) o B = id on the source."""
        ident = Matrix.identity(self.source.ambient_dim, self.source.ctx)
        return self._read(self.other.u).eq(ident)

    def _read(self, covector) -> Matrix:
        """(id (x) c) o B with the covector c on the copy slot: a map on the source."""
        ctx = self.source.ctx
        ident = Matrix.identity(self.source.ambient_dim, ctx)
        row = Matrix((tuple(covector),), ctx)
        return Matrix.kron(*_slots(self.fixed_side, ident, row)) @ self.matrix


def _slots(fixed_side: str, s, o) -> tuple:
    """(s, o) in composite slot order: the source s takes the free input's slot,
    first when the second input is fixed (side "B"), second when the first is
    ("A").  Callers kron the pair, vectors and matrices alike; on a witness's
    (A, B) pairs it returns (source, other)."""
    if fixed_side not in ("A", "B"):
        raise ValueError(f"fixed side must be 'A' or 'B', got {fixed_side!r}")
    return (s, o) if fixed_side == "B" else (o, s)


def _roles(witness: LriWitness, fixed_side: str, index: int) -> tuple:
    """(source, other, source map undone, copy family indexed by source vertex)
    of the broadcaster fixing pure state ``index`` of the other system."""
    source, other = _slots(fixed_side, witness.a_space, witness.b_space)
    own, copy = _slots(fixed_side, witness.x_family, witness.y_family)
    if not isinstance(index, int) or not 0 <= index < min(other.nvertices, len(own)):
        raise ValueError(f"fixed input {index!r} is not a pure state of the "
                         f"{fixed_side} factor {other.label!r}")
    return source, other, own[index], copy


def partial_broadcaster(witness: LriWitness, b_index: int) -> PartialBroadcaster:
    """Fix pure state b on the second input and undo X_b on the first output.

    On pure states: a -> a (x) Y_a(b).
    """
    return _broadcaster(witness, "B", b_index)


def partial_broadcaster_mirrored(witness: LriWitness, a_index: int) -> PartialBroadcaster:
    """Fix pure state a on the first input and undo Y_a on the second output.

    On pure states: b -> X_b(a) (x) b, with the preserved system second.
    """
    return _broadcaster(witness, "A", a_index)


def _broadcaster(witness: LriWitness, fixed_side: str, index: int) -> PartialBroadcaster:
    """Embed the source next to the fixed pure state, apply T, undo the
    source's local map; each step is a kron in ``_slots`` order."""
    source, other, element, copy = _roles(witness, fixed_side, index)
    ctx = source.ctx
    fixed = Matrix(tuple((x,) for x in other.vertices[index]), ctx)
    embed = Matrix.kron(*_slots(fixed_side, Matrix.identity(source.ambient_dim, ctx), fixed))
    undo = Matrix.kron(*_slots(fixed_side, element.inverse,
                               Matrix.identity(other.ambient_dim, ctx)))
    bmap = undo @ witness.matrix @ embed
    pb = PartialBroadcaster(source, other, witness.composite, bmap, fixed_side, index, element)
    expected = [kron(*_slots(fixed_side, s, other.vertices[g.perm[index]]))
                for s, g in zip(source.vertices, copy)]
    if not bmap.sends(source.vertices, expected):
        raise ValueError(f"witness invalid for fixed input {index}")
    if not pb.verify():
        raise ValueError(f"broadcast equation fails for fixed input {index}")
    return pb


# -- the copied-information function f ----------------------------------------


@dataclass(frozen=True)
class FMap:
    """Per-pure-state table of what the broadcaster writes into the copy slot."""

    source: StateSpace
    target: StateSpace
    table: tuple       # image coordinates per source vertex
    all_pure: bool

    def is_constant(self) -> bool:
        return len(set(self.table)) == 1

    def image(self, vertex_index: int) -> State:
        return State(self.target, self.table[vertex_index])


def broadcast_f_map(pb: PartialBroadcaster) -> FMap:
    """Read f off the broadcaster: B(s) = s (x) f(s) on pure s.

    Raises StructuralFailureError when some image is not of that product
    form.  Whether every f(s) is pure is recorded, not enforced: trivial
    broadcasters write an arbitrary fixed normalized state.
    """
    src, other, ctx = pb.source, pb.other, pb.source.ctx
    # (u (x) id) or (id (x) u): discard the source slot, keep the copy
    discard_src = Matrix.kron(*_slots(pb.fixed_side, Matrix((tuple(src.u),), ctx),
                                      Matrix.identity(other.ambient_dim, ctx)))
    table = []
    for s in src.vertices:
        image = pb.matrix.apply(s)
        f = discard_src.apply(image)
        if not veq(kron(*_slots(pb.fixed_side, s, f)), image, ctx):
            raise StructuralFailureError(
                "broadcaster image is not of the form s (x) f(s) on a pure state"
            )
        table.append(f)
    all_pure = all(other.vertex_index(f) is not None for f in table)
    return FMap(src, other, tuple(table), all_pure)


# -- non-disturbing measurements -----------------------------------------------


@dataclass(frozen=True)
class MeasurementFamily:
    """Family {M_e = (id (x) e) o B} with sum M_e = id on the source."""

    space: StateSpace
    members: tuple              # (Effect on the copy system, Matrix on space)
    broadcaster: PartialBroadcaster
    f_map: FMap

    def verify(self) -> bool:
        ctx, d, verts = self.space.ctx, self.space.ambient_dim, self.space.vertices
        total = sum((m for _, m in self.members), Matrix.zeros(d, d, ctx))
        if not total.eq(Matrix.identity(d, ctx)):
            return False
        return all(m.sends(verts, [tuple(dot(effect.covector, f) * x for x in s)
                                   for s, f in zip(verts, self.f_map.table)])
                   for effect, m in self.members)


def nondisturbing_measurement(pb: PartialBroadcaster,
                              effects: Optional[Sequence[Effect]] = None) -> MeasurementFamily:
    """Compose the broadcaster with a complete measurement on the copy.

    Default effect supply: the component indicator effects of the copy
    system (always a complete measurement realizing the classical readout).
    Each element acts on pure s as e(f(s)) . s, so nothing is disturbed.
    """
    src, other, ctx = pb.source, pb.other, pb.source.ctx
    if effects is None:
        effects = component_indicator_effects(other)
    one = ctx.one()
    sums = [sum((e.values[k] for e in effects), ctx.zero()) for k in range(other.nvertices)]
    if not all(ctx.eq(s, one) for s in sums):
        raise ValueError("incomplete effect list: effects must sum to u on the copy system")
    f_map = broadcast_f_map(pb)
    members = [(e, pb._read(e.covector)) for e in effects]
    family = MeasurementFamily(src, tuple(members), pb, f_map)
    if not family.verify():
        raise RuntimeError("measurement family failed its defining identities")
    return family


def extract_decomposition(family: MeasurementFamily) -> Optional[Decomposition]:
    """Group pure states by their measurement statistics; split the space.

    Pure states with distinct outcome vectors lie in complementary summands;
    a constant family certifies nothing (None).  Non-proportional action on
    a pure state means the family was not non-disturbing at all.
    """
    space, ctx = family.space, family.space.ctx
    signatures = []
    for i, s in enumerate(space.vertices):
        sig = []
        for _, m in family.members:
            w = m.apply(s)
            k = next(t for t, x in enumerate(s) if not ctx.is_zero(x))
            lam = w[k] / s[k]
            if not veq(w, tuple(lam * x for x in s), ctx):
                raise NotNondisturbingError(
                    f"measurement element does not act as a scalar on vertex {i}"
                )
            sig.append(ctx.key(lam))
        signatures.append(tuple(sig))

    groups: dict = {}
    for i, sig in enumerate(signatures):
        groups.setdefault(sig, []).append(i)
    if len(groups) == 1:
        return None

    decomp = _decomposition(space, groups.values())
    if not decomp.verify():
        raise RuntimeError("measurement signature groups have entangled spans")
    return decomp


# -- theorem verifiers ----------------------------------------------------------


@dataclass(frozen=True)
class Theorem2Report:
    """Outcome of exhausting the interactions of a non-classical composite."""

    verdict: str  # "pass" | "fail" | "inapplicable" | "budget_exceeded"
    total: int = 0
    trivial: int = 0
    counterexample: Optional[LriWitness] = None
    detail: str = ""


def verify_theorem2(a: StateSpace, b: StateSpace, groups: tuple,
                    budgets: Budgets = DEFAULT_BUDGETS) -> Theorem2Report:
    """Every interaction between indecomposable factors must be trivial."""
    for factor in (a, b):
        if has_classical_dof(factor):
            return Theorem2Report("inapplicable",
                                  detail=f"{factor.label} carries a classical degree of freedom")
    enum = enumerate_lris(a, b, groups, budgets)
    if not enum.complete:
        return Theorem2Report("budget_exceeded",
                              detail="the composite symmetry search exceeded its node budget")
    trivial = sum(1 for _, w in enum.pairs if w.is_trivial())
    if trivial == len(enum.pairs):
        return Theorem2Report("pass", total=len(enum.pairs), trivial=trivial)
    counter = next(w for _, w in enum.pairs if not w.is_trivial())
    return Theorem2Report("fail", total=len(enum.pairs), trivial=trivial,
                          counterexample=counter)


@dataclass(frozen=True)
class BlockStructure:
    """How a reversible interaction acts on the classical block grid.

    ``verify`` is the certificate: T agrees with the blockwise product maps
    on every pure product state, hence on their whole span.
    """

    composite: StateSpace
    a_space: StateSpace
    b_space: StateSpace
    decomp_a: Decomposition
    decomp_b: Decomposition
    matrix: Matrix
    # per source block (i, j): (image block (i', j'), X matrix, Y matrix),
    # where X, Y act in component coordinates.
    blocks: dict

    @property
    def block_permutation(self) -> dict:
        return {src: dst for src, (dst, _, _) in self.blocks.items()}

    def verify(self) -> bool:
        """T sends each product vertex a_i (x) b_j to X(a_i) (x) Y(b_j), where
        X, Y are the maps of the block holding (i, j): one ``Matrix.sends``."""
        da, db = self.decomp_a, self.decomp_b
        images = []
        for i, j in self.composite.product_index:
            (ai, bj), x_mat, y_mat = self.blocks[da.block_of[i], db.block_of[j]]
            images.append(kron(_block_image(da, i, ai, x_mat), _block_image(db, j, bj, y_mat)))
        return self.matrix.sends(self.composite.vertices, images)


def _block_image(decomp: Decomposition, vertex: int, dst: int, mat: Matrix) -> tuple:
    """A vertex's image under a component map, in ambient coordinates."""
    comp = decomp.components[decomp.block_of[vertex]]
    return decomp.components[dst].basis.apply(mat.apply(comp.coords(vertex)))


def conditional_structure(t: Matrix, a: StateSpace, b: StateSpace) -> Optional[BlockStructure]:
    """Resolve a reversible interaction into blockwise local product maps.

    Decomposes both factors into irreducible components; the interaction
    must send each block A_i (x) B_j onto a single block as X (x) Y with X, Y
    local reversible maps, possibly permuting the block grid.  Returns None
    when any block image splits or fails to factor, or when the result fails
    ``BlockStructure.verify``.
    """
    composite = min_tensor(a, b)
    g = _as_map(composite, t)
    if g is None:
        raise ValueError("matrix is not a reversible transformation of the composite")
    decomp_a = irreducible_components(a)
    decomp_b = irreducible_components(b)
    block_a, block_b = decomp_a.block_of, decomp_b.block_of

    # a reversible map permutes the composite's vertices, the pure products;
    # images maps each grid cell (i, j) to the cell of its image, in grid order
    index = composite.product_index
    images = dict(sorted(zip(index, (index[k] for k in g.perm))))

    blocks: dict = {}
    pairs_by_block: dict = {}
    for (i, j), (ii, jj) in images.items():
        src = (block_a[i], block_b[j])
        dst = (block_a[ii], block_b[jj])
        if pairs_by_block.setdefault(src, dst) != dst:
            return None  # block image is not a single block

    for src, dst in pairs_by_block.items():
        x_vertex_map = {}
        y_vertex_map = {}
        for i in decomp_a.components[src[0]].indices:
            for j in decomp_b.components[src[1]].indices:
                ii, jj = images[(i, j)]
                if x_vertex_map.setdefault(i, ii) != ii:
                    return None  # first output depends on the second input
                if y_vertex_map.setdefault(j, jj) != jj:
                    return None
        x_mat = _component_map(decomp_a, src[0], dst[0], x_vertex_map)
        y_mat = _component_map(decomp_b, src[1], dst[1], y_vertex_map)
        if x_mat is None or y_mat is None:
            return None
        blocks[src] = (dst, x_mat, y_mat)

    dsts = list(pairs_by_block.values())
    if len(set(dsts)) != len(dsts):
        raise RuntimeError("reversible map produced a non-bijective block permutation")
    structure = BlockStructure(composite, a, b, decomp_a, decomp_b, t, blocks)
    return structure if structure.verify() else None


def _component_map(decomp: Decomposition, src_idx: int, dst_idx: int,
                   vertex_map: dict) -> Optional[Matrix]:
    """Linear map between component coordinate spaces realizing a vertex map
    (owning-space vertex index -> owning-space vertex index), or None."""
    src = decomp.components[src_idx]
    dst = decomp.components[dst_idx]
    if src.dim != dst.dim:
        return None
    sigma = [dst.indices.index(vertex_map[i]) for i in src.indices]
    mat = _map_matrix(src.space, dst.space, sigma)
    return mat if sends_vertices(mat, src.space, dst.space, sigma) else None
