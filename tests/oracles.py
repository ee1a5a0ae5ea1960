"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's LP/search code paths: hull membership
is re-derived by Fourier-Motzkin elimination, faces by an integer grid of
supporting functionals, symmetry groups by unpruned permutation search,
orbits by closing each vertex under every element of a listed group, and
decompositions by exhaustive set-partition search.  They only run at tiny
sizes.  ``fraction_phase1`` is the phase-1 simplex as it ran on a Fraction
tableau, before ``lp`` pivoted in integers; it pins the certificates, pivot
for pivot.  ``block_projectors`` and ``reassemble`` are the direct-sum
projectors and the conditional-structure check as they ran before both
read the span frame and vertex images: each completes its own basis and
inverts it.  ``greedy_generators`` is the generating set as it was built by
closing vertex perms under composition on both sides.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from gptlab.arith import EXACT, Context
from gptlab.linalg import Matrix, Vector, dot
from gptlab.lp import LpResult


def fm_in_hull(p, gens):
    """Hull membership via Fourier-Motzkin elimination (tiny sizes only).

    Encodes {lam >= 0, sum lam = 1, G lam = p} as inequalities and
    eliminates every variable; feasibility survives iff no constant row is
    violated.
    """
    n = len(gens)
    d = len(p)
    # Rows are (coeffs over lam, rhs) meaning coeffs . lam <= rhs.
    rows = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(-1)
        rows.append((e, Fraction(0)))  # -lam_i <= 0
    ones = [Fraction(1)] * n
    rows.append((list(ones), Fraction(1)))
    rows.append(([-x for x in ones], Fraction(-1)))
    for k in range(d):
        coeffs = [Fraction(g[k]) for g in gens]
        rows.append((list(coeffs), Fraction(p[k])))
        rows.append(([-c for c in coeffs], Fraction(-p[k])))

    for var in range(n):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs))
            elif c < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new_rows = rest
        for cp, rp in pos:
            for cn, rn in neg:
                scale_p = Fraction(1) / cp[var]
                scale_n = Fraction(-1) / cn[var]
                coeffs = [a * scale_p + b * scale_n for a, b in zip(cp, cn)]
                rhs = rp * scale_p + rn * scale_n
                new_rows.append((coeffs, rhs))
        rows = new_rows
    return all(rhs >= 0 for _, rhs in rows)


def grid_supported_subsets(gens, bound=2):
    """All argmax index sets over an integer grid of covectors.

    For the tiny integer polytopes in this suite every face has a supporting
    functional with entries in [-bound, bound], so the result is the full
    face family (minus the empty face).
    """
    d = len(gens[0])
    # one positive common scale keeps every argmax set and makes the points integral
    den = math.lcm(*(Fraction(x).denominator for g in gens for x in g))
    points = [tuple(int(Fraction(x) * den) for x in g) for g in gens]
    subsets = set()
    for h in itertools.product(range(-bound, bound + 1), repeat=d):
        values = [sum(a * b for a, b in zip(h, p)) for p in points]
        top = max(values)
        subsets.add(tuple(i for i, v in enumerate(values) if v == top))
    return subsets


def hand_rank(rows):
    """Plain fraction Gauss elimination, written independently of Matrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def leibniz_det(rows):
    """Determinant as the Leibniz sum over permutations, written independently
    of Matrix: sum of sign(sigma) * prod_i rows[i][sigma(i)]."""
    n = len(rows)
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= Fraction(rows[i][sigma[i]])
        total += term
    return total


def all_set_partitions(items):
    """Every partition of a list, as lists of lists (exponential; n <= 8)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def finest_valid_partition(vertices):
    """Finest vertex partition whose block spans are independent.

    Validity: sum of block span ranks equals the rank of the full span.
    Returns the unique refinement-minimal valid partition (asserts
    uniqueness, which holds for matroid components).
    """
    n = len(vertices)
    total = Matrix.from_rows(vertices).rank()
    subset_rank = {}
    for mask in range(1, 2 ** n):
        rows = [vertices[i] for i in range(n) if mask >> i & 1]
        subset_rank[mask] = Matrix.from_rows(rows).rank()

    def mask_of(block):
        m = 0
        for i in block:
            m |= 1 << i
        return m

    valid = []
    for part in all_set_partitions(range(n)):
        if sum(subset_rank[mask_of(b)] for b in part) == total:
            valid.append([sorted(b) for b in part])

    def refines(p, q):
        return all(any(set(b) <= set(c) for c in q) for b in p)

    minimal = [p for p in valid if not any(refines(q, p) and q != p for q in valid)]
    assert len(minimal) == 1, f"non-unique finest partition: {minimal}"
    return sorted([sorted(b) for b in minimal[0]])


def dependency_basis(vectors):
    """Canonical basis of the linear dependencies among the vectors: the
    coefficient vectors c with sum_i c[i] * vectors[i] = 0, one per non-pivot
    column of the RREF of the matrix whose columns are the vectors."""
    if not vectors:
        return []
    red, pivots = Matrix.from_cols(vectors).rref()
    basis = []
    for j in range(len(vectors)):
        if j in pivots:
            continue
        c = [Fraction(0)] * len(vectors)
        c[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            c[pc] = -red.rows[r][j]
        basis.append(tuple(c))
    return basis


def unpruned_symmetries(vertices, u):
    """All vertex permutations that extend to u-preserving linear maps.

    Brute force over n! permutations; a permutation is accepted iff every
    linear dependency among the vertices is preserved (which is exactly
    linear extendability, and u-preservation is automatic because vertices
    map to vertices).
    """
    n = len(vertices)
    deps = dependency_basis(vertices)
    perms = []
    for sigma in itertools.permutations(range(n)):
        ok = True
        for c in deps:
            image = [Fraction(0)] * len(vertices[0])
            for i in range(n):
                if c[i]:
                    image = [a + c[i] * b for a, b in zip(image, vertices[sigma[i]])]
            if any(x != 0 for x in image):
                ok = False
                break
        if ok:
            perms.append(sigma)
    return perms


def orbits(space, group):
    """Vertex orbits of a listed group: each sorted, ordered by least vertex."""
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


def random_u_preserving_map(space, rng):
    """Random invertible rational map fixing the unit effect of a space."""
    from gptlab.linalg import dot

    d = space.ambient_dim
    u = space.u
    uu = dot(u, u)
    while True:
        raw = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        # project columns against u so that u o (I + N) = u
        for j in range(d):
            col = [raw[i][j] for i in range(d)]
            f = dot(u, col) / uu
            for i in range(d):
                raw[i][j] = col[i] - f * u[i]
        lin = Matrix.identity(d) + Matrix.from_rows(raw)
        if lin.inverse() is not None:
            return lin


def unimodular_u_preserving_map(space, rng, steps=3):
    """Random det-1 integer map fixing the unit effect of a space.

    A product of transvections I + c a b^T with u.a = 0 (u is fixed) and
    b.a = 0 (determinant 1), so the map and its inverse are integral.
    """
    d = space.ambient_dim
    u = space.u
    lin = Matrix.identity(d)
    support = [k for k in range(d) if u[k] != 0]
    for _ in range(steps if d > 1 else 0):
        k = rng.choice(support)
        i = rng.choice([t for t in range(d) if t != k])
        a = [Fraction(0)] * d
        a[i] += u[k]
        a[k] -= u[i]
        r = [Fraction(rng.randint(-1, 1)) for _ in range(d)]
        b = [dot(a, a) * rj - dot(a, r) * aj for rj, aj in zip(r, a)]
        c = rng.choice((-1, 1))
        step = Matrix.from_rows([[int(p == q) + c * a[p] * b[q] for q in range(d)]
                                 for p in range(d)])
        lin = step @ lin
    return lin


def random_polytope(rng, max_vertices=8, max_ambient=6):
    """Seeded random state space: integer-ish points at height 1, u = e_last."""
    from gptlab.statespace import make_space

    while True:
        d = rng.randint(2, max_ambient)
        npts = rng.randint(2, max_vertices)
        pts = []
        for _ in range(npts):
            coords = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                      for _ in range(d - 1)]
            pts.append(tuple(coords) + (Fraction(1),))
        u = tuple(Fraction(0) for _ in range(d - 1)) + (Fraction(1),)
        space = make_space(pts, u, "random", reduce=True)
        if space.nvertices >= 2:
            return space


def brute_force_lris(a_space, b_space, group_a, group_b):
    """Unpruned reversible-interaction enumeration over all family pairs.

    Tries every assignment of a local map per opposite pure state, keeps the
    assignments whose pointwise action on product vertices extends to an
    invertible linear map.  Returns the set of matrices (as row tuples).
    """
    from gptlab.linalg import independent_subset, kron

    na, nb = a_space.nvertices, b_space.nvertices
    products = [kron(a_space.vertices[i], b_space.vertices[j])
                for i in range(na) for j in range(nb)]
    basis_pos = independent_subset(products)
    basis = Matrix.from_cols([products[k] for k in basis_pos])
    basis_inv = basis.inverse()
    results = set()
    perms_a = [g.perm for g in group_a.elements]
    perms_b = [g.perm for g in group_b.elements]
    for xs in itertools.product(perms_a, repeat=nb):
        for ys in itertools.product(perms_b, repeat=na):
            images = {}
            for i in range(na):
                for j in range(nb):
                    images[i * nb + j] = kron(a_space.vertices[xs[j][i]],
                                              b_space.vertices[ys[i][j]])
            img = Matrix.from_cols([images[k] for k in basis_pos])
            t = img @ basis_inv
            if any(t.apply(products[k]) != images[k] for k in range(na * nb)):
                continue
            if len({images[k] for k in range(na * nb)}) != na * nb:
                continue
            if t.inverse() is None:
                continue
            results.add(t.rows)
    return results


def kron_lri_identity(witness):
    """T(a (x) b) == X_b(a) (x) Y_a(b) on every vertex pair, both sides rebuilt
    from Kronecker products and family-matrix images (the direct reading)."""
    from gptlab.linalg import kron

    for i, va in enumerate(witness.a_space.vertices):
        for j, vb in enumerate(witness.b_space.vertices):
            left = witness.matrix.apply(kron(va, vb))
            right = kron(witness.x_family[j].matrix.apply(va),
                         witness.y_family[i].matrix.apply(vb))
            if left != right:
                return False
    return True


def product_sends(m, src, dst):
    """M sends src[k] to dst[k] for every k, read as one product compared
    entrywise: (M @ [src]) eq [dst], with the vectors as columns."""
    return (m @ Matrix(tuple(zip(*src)), m.ctx)).eq(Matrix(tuple(zip(*dst)), m.ctx))


def fraction_phase1(a_rows: Sequence[Vector], b: Vector, nvars: int,
                    ctx: Context = EXACT) -> LpResult:
    """Phase-1 simplex on a dense tableau of context scalars, kept as the
    reference for ``lp.solve_equality_feasibility``: the same Bland pivots,
    every entry divided out at each pivot (Fractions in exact mode)."""
    m = len(a_rows)
    if m != len(b):
        raise ValueError("row/rhs mismatch")
    one, zero = ctx.one(), ctx.zero()
    a_rows = [tuple(ctx.num(x) for x in row) for row in a_rows]
    b = tuple(ctx.num(x) for x in b)

    # Normalize to nonnegative right-hand sides, remembering the row flips.
    flip = [ctx.sign(bi) < 0 for bi in b]
    rows = []
    rhs = []
    for i in range(m):
        coeff = list(a_rows[i])
        bi = b[i]
        if flip[i]:
            coeff = [-x for x in coeff]
            bi = -bi
        rows.append(coeff + [one if j == i else zero for j in range(m)] + [bi])
        rhs.append(bi)

    total = nvars + m  # structural + artificial columns
    basis = [nvars + i for i in range(m)]

    # Objective row for min(sum of artificials): reduced costs under the
    # all-artificial basis are c_j - sum of column entries.
    obj = [zero] * (total + 1)
    for j in range(total + 1):
        s = zero
        for r in rows:
            s = s + r[j]
        cj = one if nvars <= j < total else zero
        obj[j] = cj - s

    while True:
        enter = None
        for j in range(total):
            if ctx.lt(obj[j], zero):
                enter = j  # Bland: smallest index
                break
        if enter is None:
            break
        leave = None
        best = None
        for r in range(m):
            arj = rows[r][enter]
            if ctx.lt(zero, arj):
                ratio = rows[r][total] / arj
                if best is None or ctx.lt(ratio, best) or (
                    ctx.eq(ratio, best) and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; malformed tableau")
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for r in range(m):
            if r != leave and not ctx.is_zero(rows[r][enter]):
                f = rows[r][enter]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[leave])]
        if not ctx.is_zero(obj[enter]):
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, rows[leave])]
        basis[leave] = enter

    value = zero
    for r in range(m):
        if basis[r] >= nvars:
            value = value + rows[r][total]

    if ctx.is_zero(value):
        x = [zero] * nvars
        for r in range(m):
            if basis[r] < nvars:
                x[basis[r]] = rows[r][total]
        return LpResult(feasible=True, x=tuple(x))

    # Farkas: y' = c_B B^{-1}; the artificial block of the tableau is B^{-1}.
    yprime = []
    for i in range(m):
        s = zero
        for r in range(m):
            if basis[r] >= nvars:
                s = s + rows[r][nvars + i]
        yprime.append(s)
    y = tuple(-yi if fl else yi for yi, fl in zip(yprime, flip))
    return LpResult(feasible=False, farkas=y)


def block_projectors(decomp):
    """Projector onto each component's span along the other components' spans
    and a complement of their sum (which every projector annihilates)."""
    from gptlab.linalg import complete_basis

    ctx = decomp.space.ctx
    d = decomp.space.ambient_dim
    cols = [col for comp in decomp.components for col in comp.basis.cols()]
    owners = [k for k, comp in enumerate(decomp.components) for _ in range(comp.dim)]
    owners += [None] * (d - len(owners))  # the completing unit vectors
    full = Matrix.from_cols(complete_basis(cols, d, ctx), ctx)
    inv = full.inverse()
    zero_row = tuple(ctx.zero() for _ in range(d))
    projectors = []
    for k in range(decomp.n):
        rows = tuple(inv.rows[t] if owners[t] == k else zero_row for t in range(d))
        projectors.append(full @ Matrix(rows, ctx))
    return projectors


def reassemble(structure):
    """Rebuild the interaction from the per-block product maps of a
    ``BlockStructure``; it equals T exactly when T agrees with them on a
    basis of the product vertices."""
    from gptlab.interactions import _block_image
    from gptlab.linalg import complete_basis, independent_subset, kron

    ctx = structure.composite.ctx
    a, b, da, db = structure.a_space, structure.b_space, structure.decomp_a, structure.decomp_b
    cols_src = []
    cols_dst = []
    for i in range(a.nvertices):
        for j in range(b.nvertices):
            (ai, bj), x_mat, y_mat = structure.blocks[da.block_of[i], db.block_of[j]]
            cols_src.append(kron(a.vertices[i], b.vertices[j]))
            cols_dst.append(kron(_block_image(da, i, ai, x_mat),
                                 _block_image(db, j, bj, y_mat)))
    pos = independent_subset(cols_src, ctx)
    basis = complete_basis([cols_src[k] for k in pos], structure.composite.ambient_dim, ctx)
    # off the span of the product vertices the interaction is copied as is
    chosen_dst = [cols_dst[k] for k in pos] + [structure.matrix.apply(e) for e in basis[len(pos):]]
    return Matrix.from_cols(chosen_dst, ctx) @ Matrix.from_cols(basis, ctx).inverse()


def greedy_generators(group):
    """Each element, in sorted order, that the ones before it do not generate."""
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
