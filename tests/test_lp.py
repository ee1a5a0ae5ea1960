import random
from fractions import Fraction

import pytest

from gptlab.geometry import is_face
from gptlab.lp import in_hull
from oracles import fm_in_hull


def test_barycenter_of_triangle():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    p = (Fraction(1, 3),) * 3
    res = in_hull(p, gens)
    assert res.member
    assert res.weights == (Fraction(1, 3),) * 3
    assert res.verify(p, gens)


def test_point_outside_segment():
    gens = [(0, 0), (1, 0)]
    p = (Fraction(2), Fraction(0))
    res = in_hull(p, gens)
    assert not res.member
    h = res.separating
    assert max(sum(a * b for a, b in zip(h, g)) for g in gens) < sum(a * b for a, b in zip(h, p))
    assert res.verify(p, gens)


def test_gbit_center_inside():
    gens = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    res = in_hull((Fraction(0), Fraction(0), Fraction(1)), gens)
    assert res.member
    assert res.verify((Fraction(0), Fraction(0), Fraction(1)), gens)


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        in_hull((Fraction(1),), [])


def test_in_hull_agrees_with_fourier_motzkin():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 3)
        n = rng.randint(1, 4)
        gens = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(n)]
        p = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
        res = in_hull(p, gens)
        assert res.member == fm_in_hull(p, gens)
        assert res.verify(p, gens)


def test_supporting_covector_square_edge_and_diagonal():
    # The supporting covector of a face is the certificate is_face returns.
    gens = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    ok, edge = is_face(gens, frozenset({2, 3}))
    assert ok and edge is not None
    values = [sum(a * b for a, b in zip(edge, g)) for g in gens]
    top = max(values)
    assert {i for i, v in enumerate(values) if v == top} == {2, 3}
    assert is_face(gens, frozenset({0, 3})) == (False, None)  # opposite corners


def test_certificates_reverify_on_larger_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        d = rng.randint(2, 5)
        n = rng.randint(2, 8)
        gens = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(d))
                for _ in range(n)]
        p = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d))
        res = in_hull(p, gens)
        assert res.verify(p, gens)
        if res.member:
            assert sum(res.weights) == 1
            assert all(w >= 0 for w in res.weights)
