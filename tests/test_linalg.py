import random
from fractions import Fraction

import pytest

from gptlab.linalg import (
    Matrix,
    dependency_basis,
    dot,
    independent_subset,
    kron,
    span_rank,
)
from oracles import hand_rank


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
        assert m.rank(col_order=order) == base
        assert hand_rank(rows) == base


def test_solve_and_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(rows)
        inv = m.inverse()
        if inv is None:
            assert m.det() == 0
            continue
        assert (m @ inv).eq(Matrix.identity(n))
        b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        x = m.solve(b)
        assert m.apply(x) == b


def test_solve_inconsistent_returns_none():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    assert m.solve((Fraction(0), Fraction(1))) is None


def test_nullspace_is_kernel():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = m.nullspace()
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_dependency_basis_square_vertices():
    verts = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    deps = dependency_basis(verts)
    assert len(deps) == 1
    c = deps[0]
    total = [sum(c[i] * verts[i][k] for i in range(4)) for k in range(3)]
    assert all(x == 0 for x in total)


def test_independent_subset_prefix_greedy():
    vs = [(1, 0), (2, 0), (0, 1), (1, 1)]
    assert independent_subset(vs) == [0, 2]
    assert span_rank(vs) == 2


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
