import itertools
import math

import pytest

from gptlab import statespace as ss
from gptlab.config import Budgets, BudgetExceededError
from gptlab.dynamics import (
    as_reversible_map,
    induced_face_automorphism,
    is_reversible_map,
    is_transitive,
    orbits,
    reversible_maps,
    vertex_permutation,
)
from gptlab.geometry import face_lattice, join
from gptlab.linalg import Matrix
from oracles import unpruned_symmetries


def test_point_group_is_trivial():
    g = reversible_maps(ss.point())
    assert g.order == 1
    assert g.identity.perm == (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplex_group_orders(n):
    g = reversible_maps(ss.simplex(n))
    assert g.order == math.factorial(n + 1)


def test_gbit_group_is_dihedral_of_order_8():
    g = reversible_maps(ss.gbit())
    assert g.order == 8


def test_cube3_group_order_48():
    g = reversible_maps(ss.cube(3))
    assert g.order == 48


def test_groups_match_unpruned_brute_force():
    # exhaustive n! check for every builder space with at most 6 vertices
    spaces = [ss.point(), ss.simplex(1), ss.simplex(2), ss.gbit(), ss.cross(2),
              ss.simplex(3), ss.cross(3), ss.direct_sum(ss.simplex(1), ss.simplex(1))]
    for space in spaces:
        assert space.nvertices <= 6
        got = sorted(g.perm for g in reversible_maps(space).elements)
        assert got == sorted(unpruned_symmetries(space.vertices, space.u))


def test_group_axioms_exhaustive():
    for space in (ss.simplex(2), ss.gbit()):
        g = reversible_maps(space)
        perms = set(g.perms)
        ident = tuple(range(space.nvertices))
        assert ident in perms
        for a in g.elements:
            inv_perm = tuple(sorted(range(len(a.perm)), key=lambda i: a.perm[i]))
            assert inv_perm in perms
            assert a.verify()
            for b in g.elements:
                composed = g.element_by_perm(tuple(a.perm[b.perm[i]] for i in range(len(a.perm))))
                assert composed is not None
                assert composed.matrix.eq(a.matrix @ b.matrix)


def test_generators_generate():
    g = reversible_maps(ss.gbit())
    n = 4
    closure = {tuple(range(n))}
    frontier = list(closure)
    gen_perms = [x.perm for x in g.generators]
    while frontier:
        p = frontier.pop()
        for q in gen_perms:
            comp = tuple(q[p[i]] for i in range(n))
            if comp not in closure:
                closure.add(comp)
                frontier.append(comp)
    assert len(closure) == g.order
    assert len(gen_perms) < g.order


def test_group_elements_canonically_sorted_and_unique():
    g = reversible_maps(ss.gbit())
    perms = g.perms
    assert perms == sorted(perms)
    assert len(set(perms)) == len(perms)


def test_is_reversible_map_examples(d1, square):
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert is_reversible_map(d1, swap)
    proj = Matrix.from_rows([[1, 1], [0, 0]])
    assert not is_reversible_map(d1, proj)
    quarter = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert is_reversible_map(square, quarter)
    assert not is_reversible_map(square, Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_vertex_permutation_of_quarter_turn(square):
    quarter = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    perm = vertex_permutation(square, quarter)
    assert sorted(perm) == [0, 1, 2, 3]
    rm = as_reversible_map(square, quarter)
    # a quarter turn cycles the four corners
    seen = {0}
    i = perm[0]
    while i != 0:
        seen.add(i)
        i = perm[i]
    assert len(seen) == 4
    assert rm.verify()


def test_transitivity_examples():
    for n in (1, 2, 3):
        space = ss.simplex(n)
        assert is_transitive(space, reversible_maps(space))
    g = ss.gbit()
    assert is_transitive(g, reversible_maps(g))


def test_house_polytope_not_transitive():
    # square plus an apex: the apex is fixed by every symmetry
    house = ss.make_space(
        [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1), (0, 2, 1)],
        (0, 0, 1),
        "house",
    )
    group = reversible_maps(house)
    assert not is_transitive(house, group)
    # only the x-mirror survives: apex fixed, top and bottom edges swap within
    orbs = orbits(house, group)
    assert sorted(len(o) for o in orbs) == [1, 2, 2]
    apex = house.vertices.index((0, 2, 1))
    assert [apex] in orbs


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        reversible_maps(ss.cube(3), budgets=Budgets(group_nodes=10))


def test_identity_induces_identity_face_automorphism(square):
    group = reversible_maps(square)
    lattice = face_lattice(square.vertices)
    auto = induced_face_automorphism(square, group.identity, lattice)
    assert auto.face_perm == tuple(range(len(lattice)))


def test_quarter_turn_cycles_vertices_and_edges(square):
    group = reversible_maps(square)
    quarter = as_reversible_map(
        square, Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    )
    lattice = face_lattice(square.vertices)
    auto = induced_face_automorphism(square, quarter, lattice)
    for card in (1, 2):
        idxs = [k for k, f in enumerate(lattice.faces) if len(f) == card]
        # one 4-cycle on vertices and one on edges
        start = idxs[0]
        cycle = {start}
        k = auto.face_perm[start]
        while k != start:
            cycle.add(k)
            k = auto.face_perm[k]
        assert len(cycle) == 4


def test_face_count_vector_preserved(square):
    group = reversible_maps(square)
    lattice = face_lattice(square.vertices)
    for g in group.elements:
        auto = induced_face_automorphism(square, g, lattice)
        for src, dst in enumerate(auto.face_perm):
            assert len(lattice.faces[src]) == len(lattice.faces[dst])


def test_join_preservation_exhaustive(square):
    # images of joins equal joins of images, for every element and vertex pair
    group = reversible_maps(square)
    lattice = face_lattice(square.vertices)
    for g in group.elements:
        auto = induced_face_automorphism(square, g, lattice)
        for i, j in itertools.combinations(range(square.nvertices), 2):
            f1 = lattice.face_for((i,))
            f2 = lattice.face_for((j,))
            joined = join(lattice, f1, f2)
            image_of_join = auto.image(joined)
            join_of_images = join(lattice, auto.image(f1), auto.image(f2))
            assert image_of_join == join_of_images


def test_orbit_refines_gram_classes(square):
    # sanity check on the pruning metric: orbits never cross class boundaries
    from gptlab.dynamics import _VertexGeometry

    group = reversible_maps(square)
    geom = _VertexGeometry(square)
    for orb in orbits(square, group):
        keys = {geom.classes[i] for i in orb}
        assert len(keys) == 1


def test_face_automorphism_rejects_foreign_map(square, d1):
    group = reversible_maps(d1)
    lattice = face_lattice(square.vertices)
    with pytest.raises(ValueError):
        induced_face_automorphism(square, group.identity, lattice)
