import random
from fractions import Fraction

import pytest

from gptlab.geometry import is_face
from gptlab.linalg import kron
from gptlab.lp import HullMembership, in_hull, solve_equality_feasibility
from gptlab.statespace import gbit, is_entangled, min_tensor, pr_box_state, transformed
from oracles import fm_in_hull, fraction_phase1, unimodular_u_preserving_map


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


def _hull_system(p, gens):
    """The system in_hull solves: the generators as columns, then a row of ones."""
    rows = [tuple(g[k] for g in gens) for k in range(len(p))]
    return rows + [(1,) * len(gens)], tuple(p) + (1,), len(gens)


def _random_system(rng):
    """A seeded system with a denominator of its own in each column; some
    have a zero column, a duplicated column, or b = A x for a sparse x >= 0
    (feasible, with degenerate pivots); the rest have free b of either sign."""
    m, n = rng.randint(1, 6), rng.randint(1, 9)
    dens = [rng.choice((1, 2, 3, 5, 7)) for _ in range(n)]
    a = [[Fraction(rng.randint(-4, 4), d * rng.choice((1, 2))) for d in dens] for _ in range(m)]
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in a:
            row[j] = Fraction(0)
    if n > 1 and rng.random() < 0.3:
        j, k = rng.sample(range(n), 2)
        for row in a:
            row[k] = row[j]
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) if rng.random() < 0.4 else 0
             for _ in range(n)]
        b = [sum(aj * xj for aj, xj in zip(row, x)) for row in a]
    else:
        b = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(m)]
    return a, b, n


def test_integer_pivots_match_fraction_tableau_on_seeded_systems():
    rng = random.Random(31)
    seen = {"feasible": 0, "infeasible": 0, "negative rhs": 0, "degenerate": 0}
    for _ in range(240):
        a, b, n = _random_system(rng)
        res = solve_equality_feasibility(a, b, n)
        assert res == fraction_phase1(a, b, n)
        seen["feasible" if res.feasible else "infeasible"] += 1
        seen["negative rhs"] += any(bi < 0 for bi in b)
        # a basic solution with fewer positive entries than rows is degenerate
        seen["degenerate"] += res.feasible and sum(xj > 0 for xj in res.x) < len(a)
        if res.feasible:
            assert all(xj >= 0 for xj in res.x)
            assert all(sum(aj * xj for aj, xj in zip(row, res.x)) == bi
                       for row, bi in zip(a, b))
        else:
            y = res.farkas
            assert sum(yi * bi for yi, bi in zip(y, b)) > 0
            assert all(sum(yi * row[j] for yi, row in zip(y, a)) <= 0 for j in range(n))
    assert min(seen.values()) >= 20, seen


def test_integer_pivots_match_fraction_tableau_on_scrambled_gbit_gbit():
    gg = min_tensor(gbit(), gbit())
    inside = outside = 0
    for seed in range(1, 5):
        rng = random.Random(seed)
        for k in range(10):
            space = transformed(gg, unimodular_u_preserving_map(gg, rng))
            gens, n, d = space.vertices, space.nvertices, space.ambient_dim
            if k % 2:
                weights = [Fraction(rng.randint(0, 6)) for _ in range(n)]
                weights[rng.randrange(n)] += 1
                p = tuple(sum(w * g[i] for w, g in zip(weights, gens)) / sum(weights)
                          for i in range(d))
            else:
                # v + t (v - barycentre) leaves the polytope through the vertex v
                v = gens[rng.randrange(n)]
                t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                p = tuple(v[i] + t * (v[i] - sum(g[i] for g in gens) / n) for i in range(d))
            system = _hull_system(p, gens)
            assert solve_equality_feasibility(*system) == fraction_phase1(*system)
            res = in_hull(p, gens)
            assert res.member == bool(k % 2) and res.verify(p, gens)
            inside += res.member
            outside += not res.member
    assert inside == outside == 20


def test_pr_box_certificate_matches_fraction_tableau():
    g = gbit()
    verdict = is_entangled(pr_box_state(), g, g)
    gens = [kron(va, vb) for va in g.vertices for vb in g.vertices]
    want = fraction_phase1(*_hull_system(pr_box_state(), gens))
    assert verdict.entangled and not want.feasible
    assert verdict.membership.separating == want.farkas[:len(pr_box_state())]
    assert verdict.membership.verify(pr_box_state(), gens)


def test_row_lengths_must_match_nvars():
    with pytest.raises(ValueError):
        solve_equality_feasibility([(1, 2, 3)], (1,), 2)  # would spill into the artificials
    with pytest.raises(ValueError):
        solve_equality_feasibility([(1,)], (1,), 2)


def test_verify_rejects_point_and_generator_dimension_mismatch():
    half = Fraction(1, 2)
    assert not HullMembership(True, weights=(half, half)).verify((half,), [(0, 5), (1, 7)])
    assert not HullMembership(True, weights=(half, half)).verify((half, 6), [(0, 5), (1,)])
    assert not HullMembership(False, separating=(1, 0)).verify((2, 0), [(0, 0), (1,)])


def test_verify_rejects_weights_of_the_wrong_length():
    res = in_hull((Fraction(1, 2), Fraction(0)), [(0, 0), (1, 0)])
    assert res.member and res.verify((Fraction(1, 2), Fraction(0)), [(0, 0), (1, 0)])
    short = HullMembership(True, weights=res.weights[:1])
    assert not short.verify((Fraction(1, 2), Fraction(0)), [(0, 0), (1, 0)])


def test_verify_rejects_covector_of_the_wrong_length():
    p, gens = (Fraction(2), Fraction(0)), [(0, 0), (1, 0)]
    res = in_hull(p, gens)
    assert not res.member and res.verify(p, gens)
    assert not HullMembership(False, separating=res.separating + (0,)).verify(p, gens)
    assert not HullMembership(False, separating=res.separating[:1]).verify(p, gens)
