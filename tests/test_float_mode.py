"""Float mode exists for spaces with no rational symmetric embedding.

The regular pentagon is the canonical example: its symmetry group (order 10)
is invisible to exact rational arithmetic because the vertex coordinates are
irrational.  Acceptance tests never use this mode.
"""

import math
import random

import pytest

from gptlab.arith import Context, float_context
from gptlab.dynamics import is_transitive, orbits, reversible_maps
from gptlab.interactions import (broadcast_f_map, cnot_map, enumerate_lris, lri_decompose,
                                 partial_broadcaster, verify_theorem2)
from gptlab.geometry import face_lattice, is_face
from gptlab.lp import in_hull
from gptlab.linalg import Matrix
from gptlab.statespace import State, extremal_effects, gbit, make_space, transformed
from oracles import orbits as listed_orbits
from oracles import unimodular_u_preserving_map


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_float_context_needs_finite_positive_eps(eps):
    with pytest.raises(ValueError, match="finite positive epsilon"):
        Context("float", eps)


@pytest.fixture(scope="module")
def pentagon():
    ctx = float_context(1e-9)
    verts = []
    for k in range(5):
        angle = 2.0 * math.pi * k / 5.0
        verts.append((math.cos(angle), math.sin(angle), 1.0))
    return make_space(verts, (0.0, 0.0, 1.0), "pentagon", ctx=ctx)


def test_pentagon_validates(pentagon):
    assert pentagon.nvertices == 5
    assert not pentagon.ctx.exact


def test_pentagon_center_in_hull(pentagon):
    res = in_hull((0.0, 0.0, 1.0), pentagon.vertices, pentagon.ctx)
    assert res.member


def test_pentagon_hull_certificates_stay_float(pentagon):
    # Float mode keeps its own pivot loop: weights and covectors are floats.
    ctx, gens = pentagon.ctx, pentagon.vertices
    inside = (0.25, -0.125, 1.0)
    res = in_hull(inside, gens, ctx)
    assert res.member and all(type(w) is float for w in res.weights)
    assert res.verify(inside, gens, ctx)
    outside = (1.5, 0.25, 1.0)
    res = in_hull(outside, gens, ctx)
    assert not res.member and all(type(h) is float for h in res.separating)
    assert res.verify(outside, gens, ctx)


def test_pentagon_edge_is_face(pentagon):
    # vertices 0 and 1 are adjacent on the circle
    order = sorted(range(5), key=lambda i: math.atan2(pentagon.vertices[i][1],
                                                      pentagon.vertices[i][0]))
    ok, _ = is_face(pentagon.vertices, {order[0], order[1]}, pentagon.ctx)
    assert ok
    ok, _ = is_face(pentagon.vertices, {order[0], order[2]}, pentagon.ctx)
    assert not ok


def test_pentagon_face_lattice(pentagon):
    lattice = face_lattice(pentagon.vertices, pentagon.ctx)
    assert len(lattice) == 12  # empty + 5 vertices + 5 edges + full


def test_pentagon_extremal_effects(pentagon):
    # 12 effects: zero, u, and five rotations each of two shapes, with values
    # 0, 1, 1/phi and 1/phi^2 (as the tight-constraint enumeration gave them)
    a, b = (math.sqrt(5) - 1) / 2, (3 - math.sqrt(5)) / 2
    expected = [
        (0, 0, 0, 0, 0), (0, 0, a, a, 1), (0, a, 0, 1, a), (0, b, b, 1, 1),
        (b, 1, 0, 1, b), (b, 0, 1, b, 1), (a, 0, 1, 0, a), (a, 1, 0, a, 0),
        (1, 1, b, b, 0), (1, b, 1, 0, b), (1, a, a, 0, 0), (1, 1, 1, 1, 1),
    ]
    effects = extremal_effects(pentagon)

    def rounded(values):
        return tuple(round(v, 9) + 0.0 for v in values)

    assert sorted(rounded(e.values) for e in effects) == sorted(map(rounded, expected))
    for e in effects:
        assert all(abs(e(v) - x) <= 1e-9 for v, x in zip(pentagon.vertices, e.values))


def test_pentagon_dihedral_group(pentagon):
    group = reversible_maps(pentagon)
    assert group.order == 10
    assert is_transitive(pentagon)


def test_pentagon_orbits_match_the_listed_group(pentagon):
    assert orbits(pentagon) == listed_orbits(pentagon, reversible_maps(pentagon))
    for seed in (1, 2, 3):
        # an integer map fixing u = (0, 0, 1), the pentagon's unit effect too
        lin = unimodular_u_preserving_map(gbit(), random.Random(seed))
        moved = transformed(pentagon, Matrix.from_rows(lin.rows, pentagon.ctx))
        assert orbits(moved) == listed_orbits(moved, reversible_maps(moved)) == [[0, 1, 2, 3, 4]]


def test_exact_mode_misses_the_rotations(pentagon):
    # a rational approximation of the pentagon has only the mirror symmetry
    from fractions import Fraction

    approx = [tuple(Fraction(x).limit_denominator(1000) for x in v)
              for v in pentagon.vertices]
    space = make_space(approx, (0, 0, 1), "approx-pentagon")
    group = reversible_maps(space)
    assert group.order < 10


def test_pentagon_times_bit_interactions(pentagon):
    bit = make_space([(1.0, 0.0), (0.0, 1.0)], (1.0, 1.0), "bit", ctx=pentagon.ctx)
    groups = (reversible_maps(pentagon), reversible_maps(bit))
    enum = enumerate_lris(pentagon, bit, groups)
    assert enum.complete
    assert len(enum) == 200
    assert sum(1 for _, w in enum if w.is_trivial()) == 20
    assert all(w.verify() for _, w in enum)
    rows = [t.rows for t, _ in enum]
    assert rows == sorted(rows)


def test_pentagon_pair_theorem2(pentagon):
    group = reversible_maps(pentagon)
    report = verify_theorem2(pentagon, pentagon, (group, group))
    assert (report.verdict, report.total, report.trivial) == ("pass", 100, 100)


def test_copied_states_are_pure_up_to_epsilon():
    """The cnot copier of a float bit writes its vertices up to rounding
    (about 3e-16 here); purity must compare under eps, not bit for bit."""
    bit = make_space([(0.1, 0.9), (0.7, 0.3)], (1.0, 1.0), "float bit", ctx=float_context(1e-9))
    group = reversible_maps(bit)
    witness = lri_decompose(cnot_map(bit), bit, bit, (group, group))
    for b_index in range(2):
        f = broadcast_f_map(partial_broadcaster(witness, b_index))
        assert f.all_pure
        assert all(f.image(k).is_pure() for k in range(2))


def test_vertex_lookup_across_a_rounding_boundary():
    # 1.5e-9 / eps rounds up to key 2, a value 2e-18 below it rounds down to 1:
    # the keys differ although the values agree within eps
    ctx = float_context(1e-9)
    bit = make_space([(1.5e-9, 1 - 1.5e-9), (1 - 1.5e-9, 1.5e-9)], (1.0, 1.0), ctx=ctx)
    near = (1.5e-9 - 2e-18, 1 - 1.5e-9)
    assert ctx.key(near[0]) != ctx.key(bit.vertices[0][0])
    assert bit.vertex_index(near) == 0
    assert State(bit, near).is_pure()
    assert bit.vertex_index((0.5, 0.5)) is None
