import random
from dataclasses import replace

import pytest

from gptlab import statespace as ss
from gptlab.decompose import (
    _block_projectors,
    ClassicalSubsystem,
    NotTransitiveError,
    classical_subsystem,
    component_indicator_effects,
    has_classical_dof,
    irreducible_components,
    spaces_isomorphic,
)
from gptlab.dynamics import reversible_maps
from gptlab.linalg import Matrix, dot
from gptlab.statespace import direct_sum, min_tensor, transformed
from oracles import (
    block_projectors,
    finest_valid_partition,
    random_u_preserving_map,
    unimodular_u_preserving_map,
)


def test_simplex_decomposes_into_points():
    for n in (1, 2, 3):
        decomp = irreducible_components(ss.simplex(n))
        assert decomp.n == n + 1
        assert all(c.space.nvertices == 1 for c in decomp.components)
        assert decomp.verify()


def test_gbit_is_irreducible():
    decomp = irreducible_components(ss.gbit())
    assert decomp.n == 1
    assert decomp.verify()


def test_mixed_direct_sum_components():
    space = direct_sum(ss.simplex(1), ss.gbit())
    decomp = irreducible_components(space)
    assert decomp.n == 3
    sizes = sorted(c.space.nvertices for c in decomp.components)
    assert sizes == [1, 1, 4]
    assert decomp.verify()


def test_component_extraction_roundtrip():
    space = direct_sum(ss.gbit(), ss.simplex(2))
    decomp = irreducible_components(space)
    for comp in decomp.components:
        # embedding the extracted coordinates reproduces the original vertices
        for local, orig_idx in zip(comp.space.vertices, comp.indices):
            assert comp.basis.apply(local) == space.vertices[orig_idx]
        # restricted unit effect is the original u through the embedding
        for local in comp.space.vertices:
            assert dot(comp.space.u, local) == 1


def test_component_coords_embed_to_their_vertices():
    """Component.coords reads each vertex's block coordinates by position; on
    scrambled composites and sums they still embed back onto the vertex."""
    rng = random.Random(11)
    bases = [direct_sum(ss.gbit(), ss.simplex(2)), direct_sum(ss.gbit(), ss.gbit()),
             min_tensor(ss.simplex(2), ss.gbit()), min_tensor(ss.simplex(1), ss.cross(2))]
    for k in range(20):
        base = bases[k % len(bases)]
        space = transformed(base, unimodular_u_preserving_map(base, rng))
        for comp in irreducible_components(space).components:
            for i in comp.indices:
                assert comp.basis.apply(comp.coords(i)) == space.vertices[i]


def test_has_classical_dof_examples():
    assert not has_classical_dof(ss.gbit())
    assert has_classical_dof(ss.simplex(1))
    assert has_classical_dof(direct_sum(ss.gbit(), ss.gbit()))
    assert not has_classical_dof(ss.point())


def test_decomposition_matches_partition_oracle_builders(padded_square):
    spaces = [
        ss.point(), ss.simplex(1), ss.simplex(2), ss.gbit(), ss.cross(2),
        direct_sum(ss.simplex(1), ss.gbit()),
        direct_sum(ss.gbit(), ss.gbit()),
        min_tensor(ss.simplex(1), ss.simplex(1)),
    ]
    rng = random.Random(13)
    spaces += [transformed(s, unimodular_u_preserving_map(s, rng)) for s in spaces[5:]]
    spaces += [padded_square, direct_sum(padded_square, ss.simplex(1))]
    for space in spaces:
        got = sorted(list(c.indices) for c in irreducible_components(space).components)
        assert got == finest_valid_partition(space.vertices)


def test_reassembly_isomorphic_to_original():
    space = direct_sum(ss.simplex(1), ss.gbit())
    decomp = irreducible_components(space)
    rebuilt = decomp.components[0].space
    for comp in decomp.components[1:]:
        rebuilt = direct_sum(rebuilt, comp.space)
    iso = spaces_isomorphic(rebuilt, space)
    assert iso is not None
    assert iso.verify()


def test_spaces_isomorphic_identity_and_dimension_mismatch():
    g = ss.gbit()
    iso = spaces_isomorphic(g, g)
    assert iso is not None and iso.verify()
    assert spaces_isomorphic(g, ss.simplex(3)) is None  # affine dims 2 vs 3


def test_isomorphism_verify_rejects_a_wrong_vertex_map():
    g = ss.gbit()
    moved = transformed(g, unimodular_u_preserving_map(g, random.Random(7)))
    iso = spaces_isomorphic(g, moved)
    assert iso.verify()
    swapped = list(iso.vertex_map)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert not replace(iso, vertex_map=tuple(swapped)).verify()
    assert not replace(iso, vertex_map=(0, 0, 1, 2)).verify()


def test_isomorphism_scramble_roundtrip():
    rng = random.Random(42)
    g = ss.gbit()
    for _ in range(5):
        lin = random_u_preserving_map(g, rng)
        moved = transformed(g, lin)
        iso = spaces_isomorphic(g, moved)
        assert iso is not None
        assert iso.verify()


@pytest.mark.parametrize("seed, make, expected", [
    (1, lambda g: min_tensor(g, g), (0, 1, 7, 15, 3, 2, 8, 13, 4, 12, 11, 9, 5, 14, 6, 10)),
    (2, lambda g: direct_sum(g, g), (0, 2, 1, 4, 5, 7, 3, 6)),
    (3, lambda g: min_tensor(ss.simplex(2), g), (0, 1, 2, 4, 3, 5, 7, 8, 6, 9, 10, 11)),
], ids=["gbit*gbit", "gbit+gbit", "simplex2*gbit"])
def test_first_hit_isomorphism_is_pinned(seed, make, expected):
    """The search's first hit is the vertex map a theorem1 certificate
    prints; it is pinned on seeded scrambles."""
    space = make(ss.gbit())
    moved = transformed(space, unimodular_u_preserving_map(space, random.Random(seed)))
    iso = spaces_isomorphic(space, moved)
    assert iso.vertex_map == expected
    assert iso.verify()


def test_scramble_invariance_of_decomposition():
    rng = random.Random(9)
    space = direct_sum(ss.simplex(1), ss.gbit())
    base = irreducible_components(space)
    base_shape = sorted((c.dim, len(c.indices)) for c in base.components)
    for _ in range(5):
        lin = random_u_preserving_map(space, rng)
        moved = transformed(space, lin)
        decomp = irreducible_components(moved)
        assert sorted((c.dim, len(c.indices)) for c in decomp.components) == base_shape


def test_classical_subsystem_simplex():
    space = ss.simplex(2)
    result = classical_subsystem(space)
    assert isinstance(result, ClassicalSubsystem)
    assert result.n_levels == 2
    assert result.component.nvertices == 1  # the point space
    assert result.iso.verify()


def test_classical_subsystem_gbit_pair():
    space = direct_sum(ss.gbit(), ss.gbit())
    result = classical_subsystem(space)
    assert result is not None
    assert result.n_levels == 1
    assert result.component.nvertices == 4
    assert result.iso.verify()
    # the isomorphism matches vertex sets bit-exactly
    composite = result.iso.source
    for i, v in enumerate(composite.vertices):
        assert result.iso.matrix.apply(v) == space.vertices[result.iso.vertex_map[i]]


def test_classical_subsystem_irreducible_returns_none():
    g = ss.gbit()
    assert classical_subsystem(g) is None


def test_classical_subsystem_requires_transitivity():
    house = ss.make_space(
        [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1), (0, 2, 1)],
        (0, 0, 1), "house")
    with pytest.raises(NotTransitiveError):
        classical_subsystem(house)


def test_transitive_decomposable_components_pairwise_isomorphic():
    # restated testable core of the simplex-factorization theorem
    for space in (ss.simplex(3), direct_sum(ss.gbit(), ss.gbit())):
        group = reversible_maps(space)
        decomp = irreducible_components(space)
        first = decomp.components[0].space
        for comp in decomp.components[1:]:
            assert spaces_isomorphic(first, comp.space) is not None


def test_component_indicator_effects():
    space = direct_sum(ss.simplex(1), ss.gbit())
    effects = component_indicator_effects(space)
    decomp = irreducible_components(space)
    assert len(effects) == decomp.n
    total = [sum(col) for col in zip(*[e.covector for e in effects])]
    assert tuple(total) == space.u
    for k, eff in enumerate(effects):
        for i, v in enumerate(space.vertices):
            expected = 1 if i in decomp.components[k].indices else 0
            assert dot(eff.covector, v) == expected


def test_scramble_preserves_component_isomorphism_types():
    rng = random.Random(77)
    space = direct_sum(ss.simplex(1), ss.gbit())
    base = irreducible_components(space)
    for _ in range(3):
        lin = random_u_preserving_map(space, rng)
        moved = transformed(space, lin)
        decomp = irreducible_components(moved)
        # match components one-to-one by isomorphism
        remaining = list(decomp.components)
        for comp in base.components:
            hit = next((k for k, other in enumerate(remaining)
                        if spaces_isomorphic(comp.space, other.space) is not None), None)
            assert hit is not None
            remaining.pop(hit)
        assert not remaining


@pytest.mark.parametrize("space", [direct_sum(ss.gbit(), ss.point()), ss.simplex(2)],
                         ids=["gbit+point", "simplex2"])
def test_block_projectors_resolve_the_identity(space):
    decomp = irreducible_components(space)
    projectors = _block_projectors(decomp)
    assert len(projectors) == decomp.n >= 2
    d = space.ambient_dim
    zero = Matrix.zeros(d, d)
    total = zero
    for k, p in enumerate(projectors):
        assert (p @ p).eq(p)
        for m, q in enumerate(projectors):
            if m != k:
                assert (p @ q).eq(zero)
        for i in decomp.components[k].indices:
            assert p.apply(space.vertices[i]) == space.vertices[i]
        total = total + p
    assert total.eq(Matrix.identity(d))


def test_block_projectors_match_the_basis_completion_oracle(padded_square):
    """The frame-read projectors equal the old ones, which completed and
    inverted the components' own bases, on plain, scrambled and non-spanning
    spaces alike."""
    pt, d1, g = ss.point(), ss.simplex(1), ss.gbit()
    plain = [ss.simplex(2), direct_sum(g, pt), direct_sum(d1, g), direct_sum(padded_square, d1),
             direct_sum(pt, pt), min_tensor(d1, g), min_tensor(direct_sum(pt, pt), g),
             direct_sum(padded_square, direct_sum(pt, d1))]
    rng = random.Random(14)
    scrambled = [transformed(s, unimodular_u_preserving_map(s, rng)) for s in plain]
    for space in plain + scrambled:
        decomp = irreducible_components(space)
        assert [p.rows for p in _block_projectors(decomp)] == \
            [p.rows for p in block_projectors(decomp)]
