import itertools
import random
from fractions import Fraction

import pytest

from gptlab import statespace as ss
from gptlab.arith import float_context
from gptlab.linalg import Matrix, complete_basis, dot, independent_subset, kron, span_projector
from oracles import dependency_basis, hand_rank, leibniz_det, product_sends, unpruned_symmetries


def test_rank_identity():
    assert Matrix.identity(3).rank() == 3


def test_rank_proportional_rows():
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_rank_gbit_vertex_columns():
    # Columns are the four square vertices (+-1, +-1, 1); hand row-reduction
    # leaves three independent rows.
    cols = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    m = Matrix.from_cols(cols)
    assert m.rank() == 3
    assert hand_rank(m.rows) == 3


def test_rank_independent_of_elimination_order():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        m = Matrix.from_rows(rows)
        base = m.rank()
        order = list(range(nc))
        rng.shuffle(order)
        assert Matrix.from_cols([m.col(j) for j in order]).rank() == base
        assert hand_rank(rows) == base


def test_det_matches_leibniz_expansion():
    # inverse() is None exactly when the Leibniz determinant vanishes
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.3:  # a repeated row makes some of them singular
            rows[-1] = list(rows[0])
        m = Matrix.from_rows(rows)
        inv = m.inverse()
        assert (inv is None) == (leibniz_det(rows) == 0)
        if inv is not None:
            assert (m @ inv).eq(Matrix.identity(n))


def test_float_mode_elimination_agrees_at_small_scale():
    """Rank, rref, independent_subset and inverse see the same matrix: entries
    of 1e-5 are nonzero at eps 1e-9, even though their product is not."""
    ctx = float_context(1e-9)
    m = Matrix.from_rows([[1e-5, 0], [0, 1e-5]], ctx)
    assert m.rank() == 2 == len(m.rref()[1]) == len(independent_subset(m.rows, ctx))
    assert m.inverse() is not None


def test_dependency_basis_square_vertices():
    verts = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    deps = dependency_basis(verts)
    assert len(deps) == 1
    c = deps[0]
    total = [sum(c[i] * verts[i][k] for i in range(4)) for k in range(3)]
    assert all(x == 0 for x in total)


@pytest.mark.parametrize("space", [ss.gbit(), ss.cube(3), ss.simplex(2),
                                   ss.direct_sum(ss.gbit(), ss.point())],
                         ids=["gbit", "cube3", "simplex2", "gbit+point"])
def test_span_projector_is_orthogonal_projector(space):
    p = span_projector(space.vertices)
    assert p.transpose().eq(p)
    assert (p @ p).eq(p)
    assert sum(p.rows[i][i] for i in range(p.nrows)) == Matrix.from_rows(space.vertices).rank()
    for c in dependency_basis(space.vertices):
        assert all(x == 0 for x in p.apply(c))


def test_span_projector_fixed_exactly_by_square_symmetries():
    verts = ss.gbit().vertices
    p = span_projector(verts).rows
    symmetries = set(unpruned_symmetries(verts, ss.gbit().u))
    assert len(symmetries) == 8
    for sigma in itertools.permutations(range(4)):
        fixes = all(p[sigma[i]][sigma[j]] == p[i][j] for i in range(4) for j in range(4))
        assert fixes == (sigma in symmetries)


def test_span_projector_block_diagonal_on_direct_sum():
    space = ss.direct_sum(ss.gbit(), ss.point())
    p = span_projector(space.vertices).rows
    (apex,) = [i for i, v in enumerate(space.vertices) if v[-1] == 1]  # the point
    square = [i for i in range(space.nvertices) if i != apex]
    assert p[apex][apex] == 1
    assert all(p[apex][i] == p[i][apex] == 0 for i in square)
    assert all(p[i][j] != 0 for i in square for j in square)


def test_independent_subset_prefix_greedy():
    vs = [(1, 0), (2, 0), (0, 1), (1, 1)]
    assert independent_subset(vs) == [0, 2]


def test_kron_layout():
    assert kron((1, 2), (3, 4)) == (3, 4, 6, 8)
    a = Matrix.from_rows([[0, 1], [1, 0]])
    b = Matrix.identity(2)
    k = a.kron(b)
    va, vb = (Fraction(5), Fraction(7)), (Fraction(2), Fraction(3))
    assert k.apply(kron(va, vb)) == kron(a.apply(va), vb)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_exact_products_match_fraction_dot():
    # the integer kernel against the term-by-term Fraction dot, on entries
    # that are non-integer, negative, zero (whole zero rows) and plain ints
    rng = random.Random(5)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(60):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a_rows = [[entry() for _ in range(n)] for _ in range(m)]
        a_rows[rng.randrange(m)] = [0] * n
        a = Matrix(tuple(tuple(r) for r in a_rows))
        b = Matrix(tuple(tuple(entry() for _ in range(k)) for _ in range(n)))
        v = tuple(entry() for _ in range(n))
        w = tuple(entry() for _ in range(m))
        assert a.apply(v) == tuple(dot(r, v) for r in a.rows)
        assert a.left_apply(w) == tuple(dot(w, a.col(j)) for j in range(n))
        assert (a @ b).rows == tuple(tuple(dot(r, b.col(j)) for j in range(k))
                                     for r in a.rows)
        assert all(isinstance(x, Fraction) for x in a.apply(v))


def test_sends_matches_product_oracle():
    # the integer cross-multiplied check against M @ [src] eq [dst], on mixed
    # and negative denominators, whole zero rows, and targets one entry off
    rng = random.Random(13)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(80):
        m, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 6)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        rows[rng.randrange(m)] = [0] * n
        a = Matrix(tuple(tuple(r) for r in rows))
        src = [tuple(entry() for _ in range(n)) for _ in range(k)]
        dst = [a.apply(v) for v in src]
        off = [list(w) for w in dst]
        off[rng.randrange(k)][rng.randrange(m)] += Fraction(1, rng.randint(1, 7))
        off = [tuple(w) for w in off]
        other = [tuple(entry() for _ in range(m)) for _ in range(k)]
        for target in (dst, off, other):
            assert a.sends(src, target) is product_sends(a, src, target)
        assert a.sends(src, dst) and not a.sends(src, off)
        # mismatched lengths and target dimensions are False, source dimensions raise
        for target in (dst[:-1], dst + [dst[0]], [w + (0,) for w in dst]):
            assert not a.sends(src, target) and not product_sends(a, src, target)
        wide = [v + (1,) for v in src]
        with pytest.raises(ValueError):
            product_sends(a, wide, dst)
        with pytest.raises(ValueError):
            a.sends(wide, dst)
        assert a.sends([], []) and not a.sends([], dst)


def test_float_sends_matches_product_oracle():
    ctx = float_context(1e-9)
    rng = random.Random(17)
    for _ in range(40):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix(tuple(tuple(rng.uniform(-2, 2) for _ in range(n)) for _ in range(m)), ctx)
        src = [tuple(rng.uniform(-2, 2) for _ in range(n)) for _ in range(k)]
        dst = [a.apply(v) for v in src]
        for shift in (0.0, 1e-12, 1e-6):
            target = [tuple(x + shift for x in w) for w in dst]
            assert a.sends(src, target) is product_sends(a, src, target)
            assert a.sends(src, target) is (shift < ctx.eps)


def _complete_by_rank_loop(cols, d):
    """Reference: append e_j whenever it raises the rank of what is kept."""
    cols = list(cols)
    for j in range(d):
        e = tuple(Fraction(int(k == j)) for k in range(d))
        if len(independent_subset(cols + [e])) > len(cols):
            cols.append(e)
    return cols


@pytest.mark.parametrize("cols, d", [
    ([], 3),
    ([(Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(1), Fraction(1)),
      (Fraction(1), Fraction(0), Fraction(3))], 3),
    (list(ss.min_tensor(ss.simplex(1), ss.make_space([[1, 0, 0], [0, 1, 0]], [1, 1, 0])).vertices), 6),
], ids=["empty", "full-rank", "non-spanning-vertices"])
def test_complete_basis_matches_rank_loop(cols, d):
    got = complete_basis(cols, d)
    assert got == _complete_by_rank_loop(cols, d)
    assert got[:len(cols)] == cols
    assert Matrix.from_cols(got).rank() == d
