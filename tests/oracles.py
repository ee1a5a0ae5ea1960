"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's LP/search code paths: hull membership
is re-derived by Fourier-Motzkin elimination, faces by an integer grid of
supporting functionals, symmetry groups by unpruned permutation search, and
decompositions by exhaustive set-partition search.  They only run at tiny
sizes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gptlab.linalg import Matrix, dot


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
    subsets = set()
    for h in itertools.product(range(-bound, bound + 1), repeat=d):
        values = [dot(h, g) for g in gens]
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


def unpruned_symmetries(vertices, u):
    """All vertex permutations that extend to u-preserving linear maps.

    Brute force over n! permutations; a permutation is accepted iff every
    linear dependency among the vertices is preserved (which is exactly
    linear extendability, and u-preservation is automatic because vertices
    map to vertices).
    """
    from gptlab.linalg import dependency_basis

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
