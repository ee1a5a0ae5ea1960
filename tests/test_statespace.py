import itertools
import json
import random
from fractions import Fraction

import pytest

from gptlab import statespace as ss
from gptlab.config import BudgetExceededError, Budgets
from gptlab.linalg import Matrix, dot, kron
from oracles import unimodular_u_preserving_map


def test_make_space_valid_d1():
    s = ss.make_space([(1, 0), (0, 1)], (1, 1), "d1")
    assert s.nvertices == 2
    assert s.ambient_dim == 2


def test_make_space_rejects_interior_point():
    with pytest.raises(ValueError, match="not extremal"):
        ss.make_space([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))], (1, 1))


def test_make_space_interior_points_in_input_order():
    # the centre and an edge midpoint of a square
    square = [(-1, -1, 1), (-1, 1, 1), (0, 0, 1), (1, -1, 1), (1, 1, 1), (1, 0, 1)]
    with pytest.raises(ValueError, match=r"vertex \(Fraction\(0, 1\), Fraction\(0, 1\)"):
        ss.make_space(square, (0, 0, 1))
    s = ss.make_space(square, (0, 0, 1), reduce=True)
    assert s.vertices == ss.gbit().vertices
    assert s.reduced_away == ((0, 0, 1), (1, 0, 1))


def test_make_space_reduce_reports_interior():
    s = ss.make_space([(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))], (1, 1),
                      reduce=True)
    assert s.nvertices == 2
    assert s.reduced_away == ((Fraction(1, 2), Fraction(1, 2)),)


def test_make_space_rejects_bad_unit_and_duplicates():
    with pytest.raises(ValueError, match="unit effect"):
        ss.make_space([(1, 0), (0, 2)], (1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        ss.make_space([(1, 0), (1, 0)], (1, 1))


def test_gbit_builder_is_valid():
    g = ss.gbit()
    assert g.nvertices == 4
    assert Matrix.from_rows(g.vertices).rank() == 3
    # builder output survives the fully validating constructor
    again = ss.make_space(g.vertices, g.u, "g2")
    assert again.vertices == g.vertices


def test_simplex_and_point():
    assert ss.point().nvertices == 1
    s2 = ss.simplex(2)
    assert s2.nvertices == 3
    assert s2.ambient_dim == 3
    assert ss.simplex(0).vertices == ss.point().vertices


def test_cube_and_cross():
    c = ss.cube(3)
    assert c.nvertices == 8 and c.ambient_dim == 4
    x = ss.cross(3)
    assert x.nvertices == 6 and x.ambient_dim == 4


def test_direct_sum_of_points_is_a_bit():
    p = ss.point()
    two = ss.direct_sum(p, p)
    assert two.vertices == ss.simplex(1).vertices
    three = ss.direct_sum(ss.simplex(1), p)
    assert three.vertices == ss.simplex(2).vertices


def test_direct_sum_gbit_gbit_counts():
    g = ss.gbit()
    s = ss.direct_sum(g, g)
    assert s.nvertices == 8
    assert s.ambient_dim == 6


def test_min_tensor_point_identity():
    g = ss.gbit()
    s = ss.min_tensor(ss.point(), g)
    assert s.vertices == g.vertices


@pytest.mark.parametrize("name", ["gbit", "cube3", "padded_square", "scrambled gbit(x)simplex1"])
def test_span_frame_completes_a_greedy_vertex_basis(name, padded_square):
    product = ss.min_tensor(ss.gbit(), ss.simplex(1))
    s = {"gbit": ss.gbit(), "cube3": ss.cube(3), "padded_square": padded_square,
         "scrambled gbit(x)simplex1": ss.transformed(
             product, unimodular_u_preserving_map(product, random.Random(3)))}[name]
    ref, basis, inverse = s.span_frame
    d = s.ambient_dim
    assert (basis @ inverse).eq(Matrix.identity(d))
    assert len(ref) == Matrix.from_rows(s.vertices).rank()
    assert basis.cols()[:len(ref)] == [s.vertices[i] for i in ref]
    for col in basis.cols()[len(ref):]:  # padded_square's vertices leave one out
        assert sorted(col) == [0] * (d - 1) + [1]
    assert s.span_frame is s.span_frame


def test_min_tensor_d1_d1_is_a_tetrahedron():
    s = ss.min_tensor(ss.simplex(1), ss.simplex(1))
    assert s.nvertices == 4
    assert Matrix.from_rows(s.vertices).rank() == 4  # four affinely independent vertices


def test_min_tensor_gbit_gbit_counts():
    s = ss.min_tensor(ss.gbit(), ss.gbit())
    assert s.nvertices == 16
    assert s.ambient_dim == 9


def test_min_tensor_extremality():
    # every product of vertices is extreme in the composite
    for a, b in [(ss.simplex(1), ss.gbit()), (ss.gbit(), ss.gbit())]:
        s = ss.min_tensor(a, b)
        revalidated = ss.make_space(s.vertices, s.u)
        assert revalidated.vertices == s.vertices


def test_product_index_bookkeeping():
    a, b = ss.simplex(1), ss.gbit()
    s = ss.min_tensor(a, b)
    for k, v in enumerate(s.vertices):
        i, j = s.product_index[k]
        assert v == kron(a.vertices[i], b.vertices[j])


def test_marginal_of_product_state():
    a, b = ss.simplex(1), ss.gbit()
    s = ss.min_tensor(a, b)
    st = s.state(kron(a.vertices[0], b.vertices[2]))
    assert ss.marginal(st, "A").coords == a.vertices[0]
    assert ss.marginal(st, "B").coords == b.vertices[2]


def test_marginal_linearity():
    a = ss.simplex(1)
    s = ss.min_tensor(a, a)
    half = Fraction(1, 2)
    mix = tuple(half * (x + y) for x, y in zip(kron(a.vertices[0], a.vertices[0]),
                                               kron(a.vertices[1], a.vertices[1])))
    st = s.state(mix)
    expected = tuple(half * (x + y) for x, y in zip(a.vertices[0], a.vertices[1]))
    assert ss.marginal(st, "A").coords == expected


def test_marginal_requires_factor_structure():
    g = ss.gbit()
    st = g.state(g.vertices[0])
    with pytest.raises(ValueError, match="factor structure"):
        ss.marginal(st, "A")


def test_product_decompose_pure_and_correlated():
    a = ss.simplex(1)
    s = ss.min_tensor(a, a)
    pure = s.state(kron(a.vertices[0], a.vertices[1]))
    pa, pb = ss.product_decompose(pure)
    assert pa.coords == a.vertices[0] and pb.coords == a.vertices[1]

    half = Fraction(1, 2)
    corr = tuple(half * (x + y) for x, y in zip(kron(a.vertices[0], a.vertices[0]),
                                                kron(a.vertices[1], a.vertices[1])))
    assert ss.product_decompose(s.state(corr)) is None


def test_product_decompose_every_vertex():
    s = ss.min_tensor(ss.gbit(), ss.simplex(1))
    for k in range(s.nvertices):
        st = s.pure(k)
        pair = ss.product_decompose(st)
        assert pair is not None
        assert kron(pair[0].coords, pair[1].coords) == st.coords


def test_no_entangled_states_inside_min_tensor():
    a = b = ss.gbit()
    s = ss.min_tensor(a, b)
    for v in s.vertices:
        assert not ss.is_entangled(v, a, b).entangled
    center = tuple(sum(col) / 16 for col in zip(*s.vertices))
    assert not ss.is_entangled(center, a, b).entangled


def test_pr_box_is_entangled_with_certificate():
    a = b = ss.gbit()
    verdict = ss.is_entangled(ss.pr_box_state(), a, b)
    assert verdict.entangled
    h = verdict.membership.separating
    gens = [kron(va, vb) for va in a.vertices for vb in b.vertices]
    assert max(dot(h, g) for g in gens) < dot(h, ss.pr_box_state())


def test_product_states_never_entangled():
    a, b = ss.gbit(), ss.simplex(2)
    for va, vb in itertools.product(a.vertices, b.vertices):
        assert not ss.is_entangled(kron(va, vb), a, b).entangled


def test_extremal_effects_point_and_d1():
    p = ss.point()
    effs = ss.extremal_effects(p)
    assert [e.values for e in effs] == [(0,), (1,)]

    d1 = ss.simplex(1)
    effs = ss.extremal_effects(d1)
    assert sorted(e.values for e in effs) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_extremal_effects_gbit_frozen():
    # Hand derivation: values e(v) = ax*x + ay*y + c on the four corners.
    # Zero, unit, and the four half-turn effects (+-x +- 1)/2, (+-y + 1)/2.
    g = ss.gbit()
    effs = ss.extremal_effects(g)
    got = sorted(e.values for e in effs)
    assert got == [
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
        (1, 1, 1, 1),
    ]


def test_extremal_effects_budget_guard():
    # gbit: the double description of its effect cone holds at most 7 rays
    with pytest.raises(BudgetExceededError, match="holds 7 rays, cap is 6"):
        ss.extremal_effects(ss.gbit(), Budgets(dd_rays=6))
    assert len(ss.extremal_effects(ss.gbit(), Budgets(dd_rays=7))) == 6


def test_extremal_effects_in_range_with_witness():
    for space in (ss.simplex(2), ss.gbit(), ss.cross(2), ss.cube(3), ss.cross(3),
                  ss.min_tensor(ss.gbit(), ss.simplex(1))):
        effs = ss.extremal_effects(space)
        one, zero = Fraction(1), Fraction(0)
        r = Matrix.from_rows(space.vertices).rank()
        for e in effs:
            assert all(zero <= v <= one for v in e.values)
            assert e.values == tuple(dot(e.covector, v) for v in space.vertices)
            if e.values not in (tuple([zero] * space.nvertices),
                                tuple([one] * space.nvertices)):
                assert any(v in (zero, one) for v in e.values)
            # vertex certificate: the bounds tight at e pin it down
            tight = [v for v, x in zip(space.vertices, e.values) if x in (zero, one)]
            assert Matrix.from_rows(tight).rank() == r


def test_extremal_effects_gbit_simplex1_frozen():
    # the 36 value vectors, frozen from the tight-constraint enumeration that
    # preceded the double description routine
    effs = ss.extremal_effects(ss.min_tensor(ss.gbit(), ss.simplex(1)))
    assert ["".join(str(v) for v in e.values) for e in effs] == [
        "00000000", "00000011", "00001100", "00001111", "00010100", "00010111",
        "00101000", "00101011", "00110000", "00110011", "00111100", "00111111",
        "01000001", "01001101", "01010101", "01101001", "01110001", "01111101",
        "10000010", "10001110", "10010110", "10101010", "10110010", "10111110",
        "11000000", "11000011", "11001100", "11001111", "11010100", "11010111",
        "11101000", "11101011", "11110000", "11110011", "11111100", "11111111"]


def test_distributivity_over_builder_triples():
    pool = {
        "point": ss.point(),
        "d1": ss.simplex(1),
        "d2": ss.simplex(2),
        "gbit": ss.gbit(),
    }
    for a, b, c in itertools.product(pool.values(), repeat=3):
        assert ss.check_distributivity(a, b, c)


def test_json_roundtrip_bit_exact():
    spaces = [ss.gbit(), ss.simplex(2), ss.min_tensor(ss.simplex(1), ss.gbit())]
    for s in spaces:
        blob = json.dumps(ss.space_to_json(s))
        back = ss.space_from_json(blob)
        assert back.vertices == s.vertices
        assert back.u == s.u
        assert back.label == s.label
        assert json.dumps(ss.space_to_json(back)) == blob


def test_json_rational_strings():
    s = ss.make_space([(Fraction(1, 3), Fraction(2, 3)), (1, 0)], (1, 1), "r")
    data = ss.space_to_json(s)
    assert data["vertices"][0] == ["1/3", "2/3"]


def test_transformed_space_preserves_validity():
    g = ss.gbit()
    lin = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    moved = ss.transformed(g, lin)
    assert moved.nvertices == 4
    for v in moved.vertices:
        assert dot(moved.u, v) == 1
    # extremality survives a linear isomorphism
    revalidated = ss.make_space(moved.vertices, moved.u)
    assert revalidated.vertices == moved.vertices


def test_state_validation():
    g = ss.gbit()
    with pytest.raises(ValueError, match="normalized"):
        g.state((0, 0, 2))
    with pytest.raises(ValueError, match="outside"):
        g.state((2, 2, 1))
    st = g.state((0, 0, 1))
    assert not st.is_pure()
    assert g.pure(0).is_pure()


def test_extremal_effects_ignore_degenerate_ambient():
    # same segment, embedded with a dead third coordinate: the annihilator
    # quotient keeps the effect count at four
    s = ss.make_space([(1, 0, 0), (0, 1, 0)], (1, 1, 0), "flat")
    effs = ss.extremal_effects(s)
    assert sorted(e.values for e in effs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    unit = [e for e in effs if e.values == (1, 1)][0]
    assert all(dot(unit.covector, v) == 1 for v in s.vertices)


def test_is_entangled_input_validation():
    g = ss.gbit()
    with pytest.raises(ValueError, match="dimension"):
        ss.is_entangled((1, 0), g, g)
    with pytest.raises(ValueError, match="normalized"):
        ss.is_entangled(tuple([0] * 8 + [2]), g, g)
