import itertools

import pytest

from gptlab.config import Budgets, BudgetExceededError
from gptlab.geometry import extreme_rays, face_lattice, is_face, join
from gptlab.linalg import dot
from gptlab.statespace import cross, cube, direct_sum, gbit, min_tensor, point, simplex
from oracles import grid_supported_subsets

SEGMENT = [(1, 0), (0, 1)]
TRIANGLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
SQUARE = [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]


def test_single_vertices_are_faces():
    for gens in (SEGMENT, TRIANGLE, SQUARE):
        for i in range(len(gens)):
            ok, h = is_face(gens, {i})
            assert ok
            values = [dot(h, g) for g in gens]
            assert values.index(max(values)) == i


def test_square_edge_versus_diagonal():
    ok, _ = is_face(SQUARE, {0, 1})  # shared x = -1: an edge
    assert ok
    ok, _ = is_face(SQUARE, {0, 3})  # opposite corners
    assert not ok


def test_full_set_is_face_with_zero_covector():
    assert is_face(SEGMENT, {0, 1}) == (True, (0, 0))


@pytest.mark.parametrize("gens,expected", [(SEGMENT, 4), (TRIANGLE, 8), (SQUARE, 10)])
def test_face_counts(gens, expected):
    assert len(face_lattice(gens)) == expected


def test_face_lattice_matches_grid_oracle():
    for gens in (SEGMENT, TRIANGLE, SQUARE, cube(3).vertices, cross(3).vertices,
                 cross(4).vertices, simplex(3).vertices, min_tensor(gbit(), simplex(1)).vertices,
                 direct_sum(gbit(), point()).vertices):
        lattice = face_lattice(gens)
        got = {f.indices for f in lattice.faces} - {()}
        assert got == grid_supported_subsets(gens)
        for f in lattice.faces[1:]:  # each covector is maximal exactly on its face
            values = [dot(f.covector, g) for g in gens]
            assert {i for i, v in enumerate(values) if v == max(values)} == set(f.indices)


def test_face_lattice_cross_check_exhaustive():
    # Every returned subset passes is_face; nothing outside the lattice does.
    for gens in (TRIANGLE, SQUARE):
        lattice = face_lattice(gens)
        inside = {f.indices for f in lattice.faces}
        for size in range(len(gens) + 1):
            for combo in itertools.combinations(range(len(gens)), size):
                ok, _ = is_face(gens, combo)
                assert ok == (tuple(combo) in inside)


def test_face_certificates_support_exactly():
    lattice = face_lattice(SQUARE)
    for f in lattice.faces:
        if not f.indices or len(f.indices) == len(SQUARE):
            continue
        values = [dot(f.covector, g) for g in SQUARE]
        top = max(values)
        assert {i for i, v in enumerate(values) if v == top} == set(f.indices)


def test_join_identities_and_examples():
    lattice = face_lattice(SQUARE)
    bottom = lattice.bottom
    v0 = lattice.face_for((0,))
    v1 = lattice.face_for((1,))
    v3 = lattice.face_for((3,))
    assert join(lattice, v0, bottom) == v0
    assert join(lattice, v0, v1).indices == (0, 1)      # adjacent: the edge
    assert join(lattice, v0, v3).indices == (0, 1, 2, 3)  # opposite: everything


def test_join_axioms_exhaustive():
    for gens in (TRIANGLE, SQUARE):
        lattice = face_lattice(gens)
        faces = lattice.faces
        for f1, f2 in itertools.product(faces, repeat=2):
            j = join(lattice, f1, f2)
            assert join(lattice, f2, f1) == j          # commutative
            assert join(lattice, f1, f1) == f1         # idempotent
            assert f1 <= j and f2 <= j                 # upper bound
        for f1, f2, f3 in itertools.combinations(faces, 3):
            left = join(lattice, join(lattice, f1, f2), f3)
            right = join(lattice, f1, join(lattice, f2, f3))
            assert left == right                       # associative


def test_join_monotone_under_inclusion():
    lattice = face_lattice(SQUARE)
    for f1, f2, g in itertools.product(lattice.faces, repeat=3):
        if f1 <= f2:
            assert join(lattice, f1, g) <= join(lattice, f2, g)


def test_lattice_bounds():
    lattice = face_lattice(TRIANGLE)
    assert lattice.bottom.indices == ()
    assert lattice.top.indices == (0, 1, 2)


def test_face_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        face_lattice(SQUARE, budgets=Budgets(dd_rays=2))
    with pytest.raises(BudgetExceededError, match="cap is 2"):
        is_face(SQUARE, {0, 1}, budgets=Budgets(dd_rays=2))
    assert is_face(SQUARE, {0, 1}, budgets=Budgets(dd_rays=4))[0]


def test_face_ordering_deterministic():
    lattice = face_lattice(SQUARE)
    keys = [f.sort_key() for f in lattice.faces]
    assert keys == sorted(keys)


def test_empty_subset_is_face_by_convention():
    ok, cert = is_face(SQUARE, set())
    assert ok and cert is None


def test_cube3_face_count():
    lattice = face_lattice(cube(3).vertices)
    # empty + 8 vertices + 12 edges + 6 facets + full
    assert lattice.counts_by_cardinality() == {0: 1, 1: 8, 2: 12, 4: 6, 8: 1}
    assert len(lattice) == 28


def test_cube4_face_count():
    lattice = face_lattice(cube(4).vertices)
    assert lattice.counts_by_cardinality() == {0: 1, 1: 16, 2: 32, 4: 24, 8: 8, 16: 1}


def test_cube3_exhaustive_is_face_cross_check():
    # nothing outside the enumerated lattice passes is_face (8 vertices)
    gens = cube(3).vertices
    lattice = face_lattice(gens)
    inside = {f.indices for f in lattice.faces}
    for size in range(len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), size):
            ok, _ = is_face(gens, combo)
            assert ok == (tuple(combo) in inside)


# The 24 facets of gbit (x) gbit as vertex-index sets, frozen from the
# tight-constraint enumeration that preceded the double description routine.
GBIT_GBIT_FACETS = [
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13), (0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 14, 15),
    (0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13), (0, 1, 2, 3, 4, 6, 8, 10),
    (0, 1, 2, 3, 5, 7, 9, 11), (0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 14, 15),
    (0, 1, 2, 4, 5, 6, 8, 10, 11, 12, 14, 15), (0, 1, 2, 5, 6, 7, 8, 9, 11, 12, 14, 15),
    (0, 1, 3, 4, 5, 7, 9, 10, 11, 13, 14, 15), (0, 1, 3, 4, 6, 7, 8, 9, 10, 13, 14, 15),
    (0, 1, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15), (0, 1, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15),
    (0, 2, 3, 4, 5, 7, 9, 10, 11, 12, 13, 14), (0, 2, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14),
    (0, 2, 4, 5, 6, 7, 12, 14), (0, 2, 8, 9, 10, 11, 12, 14),
    (1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 15), (1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 13, 15),
    (1, 3, 4, 5, 6, 7, 13, 15), (1, 3, 8, 9, 10, 11, 13, 15),
    (2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15), (2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (4, 6, 8, 10, 12, 13, 14, 15), (5, 7, 9, 11, 12, 13, 14, 15),
]


def _facets_of(lattice):
    """The proper faces that no other proper face contains."""
    proper = [set(f.indices) for f in lattice.faces[1:-1]]
    return sorted(tuple(sorted(f)) for f in proper if not any(f < g for g in proper))


def test_gbit_gbit_facets_and_face_count():
    g = gbit()
    gg = min_tensor(g, g)
    lattice = face_lattice(gg.vertices)
    assert len(lattice) == 2722
    assert lattice.counts_by_cardinality() == {
        0: 1, 1: 16, 2: 104, 3: 352, 4: 656, 5: 704, 6: 480, 7: 208, 8: 120, 9: 32,
        10: 32, 12: 16, 16: 1}
    facets = _facets_of(lattice)
    assert facets == GBIT_GBIT_FACETS
    # h_A (x) h_B of two gbit facet covectors vanishes where either factor does
    g_facets = _facets_of(face_lattice(g.vertices))
    products = {tuple(k for k, (i, j) in enumerate(gg.product_index) if i in fa or j in fb)
                for fa in g_facets for fb in g_facets}
    assert len(products) == 16 and products <= set(facets)
    assert [len(f) for f in facets if f not in products] == [8] * 8


def test_extreme_rays_of_simple_cones():
    # the orthant, and a square cone over four rows
    assert sorted(extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert sorted(extreme_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)])) == [
        (-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    with pytest.raises(ValueError, match="not pointed"):
        extreme_rays([(1, 0, 0), (0, 1, 0)])
