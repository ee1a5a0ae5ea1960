"""Locally reversible interactions and the machinery built on top of them.

An interaction T on a minimal tensor product is locally reversible when
T(a (x) b) = X_b(a) (x) Y_a(b) on all pure states, with every X_b and Y_a a
reversible transformation of its factor; it is trivial when both families
are constant.  From a witness one constructs partial broadcasters (fix one
input, undo the local map on the matching output), from broadcasters
non-disturbing measurements, and from a nontrivial measurement a direct-sum
decomposition of the state space.

Every locally reversible T permutes the pure product states, so it lies in
the reversible group of the minimal tensor product.  The enumerator computes
that group with the vertex-permutation symmetry search of ``dynamics`` and
keeps the elements whose grid slices lie in the factor groups.  This exhausts
all witnesses of a composite at desk scale, which turns the triviality
theorems into machine-checkable statements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .decompose import (
    Decomposition,
    _extract,
    component_indicator_effects,
    has_classical_dof,
    irreducible_components,
)
from .dynamics import ReversibleMap, is_reversible_map, reversible_maps
from .linalg import Matrix, dot, independent_subset, kron, veq
from .statespace import Effect, State, StateSpace, min_tensor


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
        """Re-check T(a (x) b) = X_b(a) (x) Y_a(b) on every vertex pair."""
        ctx = self.a_space.ctx
        for i, va in enumerate(self.a_space.vertices):
            for j, vb in enumerate(self.b_space.vertices):
                left = self.matrix.apply(kron(va, vb))
                right = kron(self.x_family[j].matrix.apply(va),
                             self.y_family[i].matrix.apply(vb))
                if not veq(left, right, ctx):
                    return False
        return True

    def is_trivial(self) -> bool:
        return len({x.perm for x in self.x_family}) == 1 and \
            len({y.perm for y in self.y_family}) == 1


def is_trivial_lri(witness: LriWitness) -> bool:
    """Both local families constant: the interaction generates no correlations."""
    return witness.is_trivial()


def lri_decompose(t: Matrix, a: StateSpace, b: StateSpace,
                  groups: tuple, composite: Optional[StateSpace] = None) -> Optional[LriWitness]:
    """Read the local families off a candidate interaction, or fail.

    Every vertex-pair image must itself be a product of vertices, the induced
    vertex maps must be permutations, and each must belong to the factor's
    reversible group.  A map that breaks u-preservation raises
    NormalizationError (a malformed input, not a mere witness failure).
    """
    group_a, group_b = groups
    ctx = a.ctx
    if composite is None:
        composite = min_tensor(a, b)
    d = composite.ambient_dim
    if t.shape != (d, d):
        raise ValueError("matrix does not act on the composite ambient")
    if not veq(t.left_apply(composite.u), composite.u, ctx):
        raise NormalizationError("u o T != u on the composite")

    lookup = {tuple(ctx.key(x) for x in v): k for k, v in enumerate(composite.vertices)}
    na, nb = a.nvertices, b.nvertices
    x_perms = [[None] * na for _ in range(nb)]
    y_perms = [[None] * nb for _ in range(na)]
    for i, va in enumerate(a.vertices):
        for j, vb in enumerate(b.vertices):
            image = t.apply(kron(va, vb))
            k = lookup.get(tuple(ctx.key(x) for x in image))
            if k is None:
                return None  # image is not a pure product state
            ii, jj = composite.product_index[k]
            x_perms[j][i] = ii
            y_perms[i][j] = jj

    x_family = []
    for j in range(nb):
        perm = tuple(x_perms[j])
        if len(set(perm)) != na:
            return None
        element = group_a.element_by_perm(perm)
        if element is None:
            return None
        x_family.append(element)
    y_family = []
    for i in range(na):
        perm = tuple(y_perms[i])
        if len(set(perm)) != nb:
            return None
        element = group_b.element_by_perm(perm)
        if element is None:
            return None
        y_family.append(element)

    witness = LriWitness(a, b, composite, t, tuple(x_family), tuple(y_family))
    if not witness.verify():
        return None
    return witness


# -- exhaustive enumeration ---------------------------------------------------


@dataclass(frozen=True)
class LriEnumeration:
    """All locally reversible interactions of one composite (or a flagged prefix)."""

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

    Such a T permutes the pure product states, so it is an element of the
    composite's reversible group; conversely a composite symmetry is an LRI
    exactly when every grid slice of its vertex permutation lies in a factor
    group (fix b: a permutation in G_A; fix a: one in G_B).  The enumerator
    filters the composite group by that test, so its completeness is the
    symmetry search's.  ``explored`` counts the composite symmetries filtered,
    capped by ``budgets.lri_assignments``; a composite search that exceeds
    ``budgets.group_nodes`` leaves the enumeration incomplete with nothing
    explored.  Survivors are re-verified as witnesses.
    """
    group_a, group_b = groups
    composite = min_tensor(a, b)
    try:
        symmetries = reversible_maps(composite, budgets).elements
    except BudgetExceededError:
        return LriEnumeration((), False, 0)
    na, nb = a.nvertices, b.nvertices
    at = {pair: k for k, pair in enumerate(composite.product_index)}
    cell = [[at[(i, j)] for j in range(nb)] for i in range(na)]  # a_i (x) b_j

    found = []
    explored = 0
    complete = True
    for g in symmetries:
        explored += 1
        if explored > budgets.lri_assignments:
            complete = False
            break
        image = [[composite.product_index[g.perm[k]] for k in row] for row in cell]
        xs = tuple(group_a.element_by_perm([image[i][j][0] for i in range(na)])
                   for j in range(nb))
        ys = tuple(group_b.element_by_perm([pair[1] for pair in row]) for row in image)
        if None in xs or None in ys:
            continue
        witness = LriWitness(a, b, composite, g.matrix, xs, ys)
        if not witness.verify():
            raise RuntimeError("enumerated witness failed re-verification")
        found.append((g.matrix, witness))

    found.sort(key=lambda pair: pair[0].rows)
    return LriEnumeration(tuple(found), complete, explored)


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

    Bit value = vertex index of the two-vertex simplex factor.
    """
    if d1.nvertices != 2:
        raise ValueError("cnot is defined on a two-vertex classical factor")
    ctx = d1.ctx
    composite = min_tensor(d1, d1)
    cols_src = []
    cols_dst = []
    for x in range(2):
        for y in range(2):
            cols_src.append(kron(d1.vertices[x], d1.vertices[y]))
            cols_dst.append(kron(d1.vertices[x], d1.vertices[x ^ y]))
    src = Matrix.from_cols(cols_src, ctx)
    inv = src.inverse()
    if inv is None:
        raise ValueError("factor vertices do not span; cannot build cnot")
    return Matrix.from_cols(cols_dst, ctx) @ inv


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
    d = classical.ambient_dim
    cols = []
    owners = []
    for k, comp in enumerate(decomp.components):
        for m in range(comp.dim):
            cols.append(comp.basis.col(m))
            owners.append(k)
    for j in range(d):
        e = tuple(ctx.one() if t == j else ctx.zero() for t in range(d))
        if len(independent_subset(cols + [e], ctx)) > len(cols):
            cols.append(e)
            owners.append(None)
    full = Matrix.from_cols(cols, ctx)
    inv = full.inverse()
    db = system.ambient_dim
    total = Matrix.zeros(d * db, d * db, ctx)
    for k in range(decomp.n):
        sel = tuple(ctx.one() if owners[t] == k else ctx.zero() for t in range(d))
        proj_rows = [tuple(sel[t] * inv.rows[t][j] for j in range(d)) for t in range(d)]
        proj = full @ Matrix(tuple(proj_rows), ctx)
        total = total + proj.kron(maps[k])
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
        ctx = self.source.ctx
        ds = self.source.ambient_dim
        discard = _discard_matrix(self.source, self.other, self.fixed_side, ctx)
        return (discard @ self.matrix).eq(Matrix.identity(ds, ctx))


def _discard_matrix(source: StateSpace, other: StateSpace, fixed_side: str, ctx) -> Matrix:
    """(id (x) u) or (u (x) id) depending on which slot holds the copy."""
    ident = Matrix.identity(source.ambient_dim, ctx)
    u_row = Matrix((tuple(other.u),), ctx)
    if fixed_side == "B":          # layout source (x) other
        return ident.kron(u_row)
    return u_row.kron(ident)       # layout other (x) source


def partial_broadcaster(witness: LriWitness, b_index: int) -> PartialBroadcaster:
    """Fix pure state b on the second input and undo X_b on the first output.

    On pure states: a -> a (x) Y_a(b).
    """
    a, b = witness.a_space, witness.b_space
    ctx = a.ctx
    if not 0 <= b_index < b.nvertices:
        raise ValueError("fixed input must be a pure state of the second factor")
    x_b = witness.x_family[b_index]
    embed = Matrix.from_cols(
        [kron(_unit(a.ambient_dim, i, ctx), b.vertices[b_index]) for i in range(a.ambient_dim)],
        ctx,
    )
    ident_b = Matrix.identity(b.ambient_dim, ctx)
    bmap = x_b.inverse.kron(ident_b) @ witness.matrix @ embed
    pb = PartialBroadcaster(a, b, witness.composite, bmap, "B", b_index, x_b)
    for i, va in enumerate(a.vertices):
        expected = kron(va, witness.y_family[i].matrix.apply(b.vertices[b_index]))
        if not veq(bmap.apply(va), expected, ctx):
            raise ValueError(f"witness invalid for fixed input {b_index}")
    if not pb.verify():
        raise ValueError(f"broadcast equation fails for fixed input {b_index}")
    return pb


def partial_broadcaster_mirrored(witness: LriWitness, a_index: int) -> PartialBroadcaster:
    """Fix pure state a on the first input and undo Y_a on the second output.

    On pure states: b -> X_b(a) (x) b, with the preserved system second.
    """
    a, b = witness.a_space, witness.b_space
    ctx = a.ctx
    if not 0 <= a_index < a.nvertices:
        raise ValueError("fixed input must be a pure state of the first factor")
    y_a = witness.y_family[a_index]
    embed = Matrix.from_cols(
        [kron(a.vertices[a_index], _unit(b.ambient_dim, j, ctx)) for j in range(b.ambient_dim)],
        ctx,
    )
    ident_a = Matrix.identity(a.ambient_dim, ctx)
    bmap = ident_a.kron(y_a.inverse) @ witness.matrix @ embed
    pb = PartialBroadcaster(b, a, witness.composite, bmap, "A", a_index, y_a)
    for j, vb in enumerate(b.vertices):
        expected = kron(witness.x_family[j].matrix.apply(a.vertices[a_index]), vb)
        if not veq(bmap.apply(vb), expected, ctx):
            raise ValueError(f"witness invalid for fixed input {a_index}")
    if not pb.verify():
        raise ValueError(f"broadcast equation fails for fixed input {a_index}")
    return pb


def _unit(n: int, k: int, ctx) -> tuple:
    return tuple(ctx.one() if t == k else ctx.zero() for t in range(n))


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
    ds, do = src.ambient_dim, other.ambient_dim
    table = []
    all_pure = True
    for s in src.vertices:
        image = pb.matrix.apply(s)
        if pb.fixed_side == "B":   # layout s (x) f(s)
            f = tuple(sum((src.u[i] * image[i * do + j] for i in range(ds)), ctx.zero())
                      for j in range(do))
            recon = kron(s, f)
        else:                       # layout f(s) (x) s
            f = tuple(sum((src.u[i] * image[j * ds + i] for i in range(ds)), ctx.zero())
                      for j in range(do))
            recon = kron(f, s)
        if not veq(recon, image, ctx):
            raise StructuralFailureError(
                "broadcaster image is not of the form s (x) f(s) on a pure state"
            )
        table.append(f)
        if f not in other.vertices:
            all_pure = False
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
        ctx = self.space.ctx
        total = Matrix.zeros(self.space.ambient_dim, self.space.ambient_dim, ctx)
        for _, m in self.members:
            total = total + m
        if not total.eq(Matrix.identity(self.space.ambient_dim, ctx)):
            return False
        for effect, m in self.members:
            for i, s in enumerate(self.space.vertices):
                lam = dot(effect.covector, self.f_map.table[i])
                if not veq(m.apply(s), tuple(lam * x for x in s), ctx):
                    return False
        return True


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
    ident = Matrix.identity(src.ambient_dim, ctx)
    members = []
    for e in effects:
        e_row = Matrix((tuple(e.covector),), ctx)
        if pb.fixed_side == "B":
            pick = ident.kron(e_row)
        else:
            pick = e_row.kron(ident)
        members.append((e, pick @ pb.matrix))
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

    blocks = [tuple(sorted(v)) for v in groups.values()]
    total = Matrix.from_rows(space.vertices, ctx).rank()
    ranks = sum(Matrix.from_rows([space.vertices[i] for i in b], ctx).rank() for b in blocks)
    if ranks != total:
        raise RuntimeError("measurement signature groups have entangled spans")
    components = [_extract(space, b) for b in blocks]
    components.sort(key=lambda c: (c.dim, len(c.indices), c.indices))
    return Decomposition(space, tuple(components))


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
    if has_classical_dof(a) or has_classical_dof(b):
        which = a.label if has_classical_dof(a) else b.label
        return Theorem2Report("inapplicable",
                              detail=f"{which} carries a classical degree of freedom")
    enum = enumerate_lris(a, b, groups, budgets)
    if not enum.complete:
        detail = (f"stopped after {enum.explored} composite symmetries" if enum.explored
                  else "the composite symmetry search exceeded its node budget")
        return Theorem2Report("budget_exceeded", total=len(enum.pairs), detail=detail)
    trivial = sum(1 for _, w in enum.pairs if w.is_trivial())
    if trivial == len(enum.pairs):
        return Theorem2Report("pass", total=len(enum.pairs), trivial=trivial)
    counter = next(w for _, w in enum.pairs if not w.is_trivial())
    return Theorem2Report("fail", total=len(enum.pairs), trivial=trivial,
                          counterexample=counter)


@dataclass(frozen=True)
class BlockStructure:
    """How a reversible interaction acts on the classical block grid."""

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

    def reassemble(self) -> Matrix:
        """Rebuild the interaction from the per-block product maps."""
        ctx = self.composite.ctx
        a, b = self.a_space, self.b_space
        grid = [(i, j) for i in range(a.nvertices) for j in range(b.nvertices)]
        cols_src = []
        cols_dst = []
        block_a = {v: k for k, comp in enumerate(self.decomp_a.components) for v in comp.indices}
        block_b = {v: k for k, comp in enumerate(self.decomp_b.components) for v in comp.indices}
        for (i, j) in grid:
            src_block = (block_a[i], block_b[j])
            (ai, bj), x_mat, y_mat = self.blocks[src_block]
            comp_a_src = self.decomp_a.components[src_block[0]]
            comp_b_src = self.decomp_b.components[src_block[1]]
            comp_a_dst = self.decomp_a.components[ai]
            comp_b_dst = self.decomp_b.components[bj]
            ca = comp_a_src.basis.solve(a.vertices[i])
            cb = comp_b_src.basis.solve(b.vertices[j])
            va = comp_a_dst.basis.apply(x_mat.apply(ca))
            vb = comp_b_dst.basis.apply(y_mat.apply(cb))
            cols_src.append(kron(a.vertices[i], b.vertices[j]))
            cols_dst.append(kron(va, vb))
        pos = independent_subset(cols_src, ctx)
        d = self.composite.ambient_dim
        chosen_src = [cols_src[k] for k in pos]
        chosen_dst = [cols_dst[k] for k in pos]
        for t in range(d):
            e = tuple(ctx.one() if k == t else ctx.zero() for k in range(d))
            if len(independent_subset(chosen_src + [e], ctx)) > len(chosen_src):
                chosen_src.append(e)
                chosen_dst.append(self.matrix.apply(e))
        rebuilt = Matrix.from_cols(chosen_dst, ctx) @ Matrix.from_cols(chosen_src, ctx).inverse()
        return rebuilt


def conditional_structure(t: Matrix, a: StateSpace, b: StateSpace, groups: tuple,
                          budgets: Budgets = DEFAULT_BUDGETS) -> Optional[BlockStructure]:
    """Resolve a reversible interaction into blockwise local product maps.

    Decomposes both factors into irreducible components; the interaction
    must send each block A_i (x) B_j onto a single block as X (x) Y with X, Y
    local reversible maps, possibly permuting the block grid.  Returns None
    when any block image splits or fails to factor.
    """
    ctx = a.ctx
    composite = min_tensor(a, b)
    if not is_reversible_map(composite, t):
        raise ValueError("matrix is not a reversible transformation of the composite")
    decomp_a = irreducible_components(a)
    decomp_b = irreducible_components(b)
    block_a = {v: k for k, comp in enumerate(decomp_a.components) for v in comp.indices}
    block_b = {v: k for k, comp in enumerate(decomp_b.components) for v in comp.indices}

    lookup = {tuple(ctx.key(x) for x in v): k for k, v in enumerate(composite.vertices)}
    na, nb = a.nvertices, b.nvertices
    images = {}
    for i in range(na):
        for j in range(nb):
            image = t.apply(kron(a.vertices[i], b.vertices[j]))
            k = lookup.get(tuple(ctx.key(x) for x in image))
            if k is None:
                return None  # reversible but does not preserve pure products
            images[(i, j)] = composite.product_index[k]

    blocks: dict = {}
    pairs_by_block: dict = {}
    for (i, j), (ii, jj) in images.items():
        src = (block_a[i], block_b[j])
        dst = (block_a[ii], block_b[jj])
        if src in pairs_by_block and pairs_by_block[src] != dst:
            return None  # block image is not a single block
        pairs_by_block[src] = dst

    for src, dst in pairs_by_block.items():
        comp_ai = decomp_a.components[src[0]]
        comp_bj = decomp_b.components[src[1]]
        x_vertex_map = {}
        y_vertex_map = {}
        for i in comp_ai.indices:
            for j in comp_bj.indices:
                ii, jj = images[(i, j)]
                if x_vertex_map.setdefault(i, ii) != ii:
                    return None  # first output depends on the second input
                if y_vertex_map.setdefault(j, jj) != jj:
                    return None
        x_mat = _component_map(decomp_a, src[0], dst[0], x_vertex_map, ctx)
        y_mat = _component_map(decomp_b, src[1], dst[1], y_vertex_map, ctx)
        if x_mat is None or y_mat is None:
            return None
        blocks[src] = (dst, x_mat, y_mat)

    dsts = list(pairs_by_block.values())
    if len(set(dsts)) != len(dsts):
        raise RuntimeError("reversible map produced a non-bijective block permutation")
    structure = BlockStructure(composite, a, b, decomp_a, decomp_b, t, blocks)
    if not structure.reassemble().eq(t):
        return None
    return structure


def _component_map(decomp: Decomposition, src_idx: int, dst_idx: int,
                   vertex_map: dict, ctx) -> Optional[Matrix]:
    """Linear map between component coordinate spaces realizing a vertex map."""
    src = decomp.components[src_idx]
    dst = decomp.components[dst_idx]
    if src.dim != dst.dim:
        return None
    local_src = {g: k for k, g in enumerate(src.indices)}
    local_dst = {g: k for k, g in enumerate(dst.indices)}
    cols_src = []
    cols_dst = []
    for g_src, g_dst in vertex_map.items():
        cols_src.append(src.space.vertices[local_src[g_src]])
        cols_dst.append(dst.space.vertices[local_dst[g_dst]])
    pos = independent_subset(cols_src, ctx)
    if len(pos) != src.dim:
        return None
    base = Matrix.from_cols([cols_src[k] for k in pos], ctx)
    image = Matrix.from_cols([cols_dst[k] for k in pos], ctx)
    mat = image @ base.inverse()
    for s, d in zip(cols_src, cols_dst):
        if not veq(mat.apply(s), d, ctx):
            return None
    return mat
