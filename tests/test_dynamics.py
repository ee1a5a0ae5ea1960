import itertools
import math
import random

import pytest

from gptlab import dynamics as dyn
from gptlab import statespace as ss
from gptlab.config import Budgets, BudgetExceededError
from gptlab.dynamics import (
    ReversibleMap,
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
from gptlab.statespace import direct_sum, min_tensor, transformed
from oracles import greedy_generators, orbits as listed_orbits
from oracles import random_polytope, unimodular_u_preserving_map, unpruned_symmetries


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


def test_groups_match_unpruned_brute_force(padded_square):
    # exhaustive n! check for every builder space with at most 6 vertices,
    # seeded random polytopes, two scrambled builders and a non-spanning space
    spaces = [ss.point(), ss.simplex(1), ss.simplex(2), ss.gbit(), ss.cross(2),
              ss.simplex(3), ss.cross(3), ss.direct_sum(ss.simplex(1), ss.simplex(1))]
    rng = random.Random(31)
    spaces += [random_polytope(rng, max_vertices=6) for _ in range(12)]
    spaces += [transformed(s, unimodular_u_preserving_map(s, rng))
               for s in (ss.cross(3), ss.direct_sum(ss.simplex(1), ss.gbit()))]
    spaces.append(padded_square)
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


def test_elements_verify_on_scrambled_spaces(padded_square):
    # padded_square's vertices do not span, so its maps must fix the rest
    rng = random.Random(8)
    for space, order in ((ss.cube(3), 48), (min_tensor(ss.gbit(), ss.simplex(1)), 128),
                         (padded_square, 8)):
        moved = transformed(space, unimodular_u_preserving_map(space, rng))
        group = reversible_maps(moved)
        assert group.order == order
        assert all(g.verify() for g in group.elements)


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


@pytest.mark.parametrize("space", [
    ss.point(), ss.simplex(1), ss.simplex(3), ss.gbit(), ss.cube(3), ss.cube(4), ss.cross(3),
    direct_sum(ss.gbit(), ss.point()), min_tensor(ss.gbit(), ss.simplex(1)),
], ids=["point", "simplex1", "simplex3", "gbit", "cube3", "cube4", "cross3", "gbit+point",
        "gbit*simplex1"])
def test_generators_match_the_greedy_oracle(space):
    scrambled = transformed(space, unimodular_u_preserving_map(space, random.Random(3)))
    for s in (space, scrambled):
        group = reversible_maps(s)
        assert [g.perm for g in group.generators] == [g.perm for g in greedy_generators(group)]


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


def test_verify_rejects_a_perm_the_matrix_does_not_realize(square):
    group = reversible_maps(square)
    for g, h in itertools.product(group.elements, repeat=2):
        forged = ReversibleMap(square, h.perm, g.matrix, g.inverse)
        assert forged.verify() == (g is h)


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
        assert is_transitive(ss.simplex(n))
    assert is_transitive(ss.gbit())


def _house():
    # square plus an apex: the apex is fixed by every symmetry
    return ss.make_space(
        [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1), (0, 2, 1)],
        (0, 0, 1),
        "house",
    )


def test_house_polytope_not_transitive():
    house = _house()
    assert not is_transitive(house)
    # only the x-mirror survives: apex fixed, top and bottom edges swap within
    orbs = orbits(house)
    assert sorted(len(o) for o in orbs) == [1, 2, 2]
    apex = house.vertices.index((0, 2, 1))
    assert [apex] in orbs


# name -> (space builder, transitive?)
ORBIT_SPACES = {
    "gbit": (ss.gbit, True),
    "cube3": (lambda: ss.cube(3), True),
    "cross3": (lambda: ss.cross(3), True),
    "simplex2*gbit": (lambda: min_tensor(ss.simplex(2), ss.gbit()), True),
    "gbit*gbit": (lambda: min_tensor(ss.gbit(), ss.gbit()), True),
    "gbit+gbit": (lambda: direct_sum(ss.gbit(), ss.gbit()), True),
    "house": (_house, False),
    "gbit+point": (lambda: direct_sum(ss.gbit(), ss.point()), False),
    "simplex1+gbit": (lambda: direct_sum(ss.simplex(1), ss.gbit()), False),
}


@pytest.mark.parametrize("name", ORBIT_SPACES)
def test_orbits_match_the_listed_group(name):
    # pinned first-hit searches give the partition the whole group gives,
    # in the same sorted lists, plain and on three seeded scrambles
    build, transitive = ORBIT_SPACES[name]
    base = build()
    for seed in (None, 1, 2, 3):
        space = base if seed is None else transformed(
            base, unimodular_u_preserving_map(base, random.Random(seed)))
        orbs = orbits(space)
        assert orbs == listed_orbits(space, reversible_maps(space))
        assert (len(orbs) == 1) == transitive == is_transitive(space)


def test_pinned_search_keeps_the_maps_through_the_pin():
    cube = ss.cube(3)
    every = dyn._search_vertex_maps(cube, cube, 10**4, True)
    for j in (0, 5, 7):
        pinned = dyn._search_vertex_maps(cube, cube, 10**4, True, pin=(2, j))
        assert pinned == [p for p in every if p[2] == j]
        first = dyn._search_vertex_maps(cube, cube, 10**4, False, pin=(2, j))
        assert first == pinned[:1]


def test_search_tables_built_once_per_space(monkeypatch):
    builds = []
    build = dyn._search_tables

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(dyn, "_search_tables", counted)
    space = min_tensor(ss.gbit(), ss.gbit())
    first = reversible_maps(space)
    assert len(builds) == 1
    assert reversible_maps(space).perms == first.perms
    assert is_transitive(space)
    assert len(builds) == 1
    # a grid search or a search between two spaces builds its own tables
    dyn._search_vertex_maps(space, space, 10**4, False, (ss.gbit(), ss.gbit()))
    assert len(builds) == 2


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        reversible_maps(ss.cube(3), budgets=Budgets(group_nodes=10))


def test_cube5_group_within_a_node_ceiling():
    # the search lists the 3,840 symmetries of cube(5) in 101,312 nodes
    assert reversible_maps(ss.cube(5), Budgets(group_nodes=110_000)).order == 3840
    cube = ss.cube(5)
    moved = transformed(cube, unimodular_u_preserving_map(cube, random.Random(5)))
    assert reversible_maps(moved).order == 3840


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
    for orb in orbits(square):
        keys = {square.vertex_classes[i] for i in orb}
        assert len(keys) == 1


def test_face_automorphism_rejects_foreign_map(square, d1):
    group = reversible_maps(d1)
    lattice = face_lattice(square.vertices)
    with pytest.raises(ValueError):
        induced_face_automorphism(square, group.identity, lattice)
