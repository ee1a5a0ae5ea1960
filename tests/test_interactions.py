import itertools
import random
from fractions import Fraction

import pytest

from gptlab import statespace as ss
from gptlab.config import Budgets
from gptlab.decompose import irreducible_components
from gptlab.dynamics import reversible_maps
from gptlab.interactions import (
    NormalizationError,
    broadcast_f_map,
    cnot_map,
    conditional_structure,
    controlled_map,
    enumerate_lris,
    extract_decomposition,
    is_trivial_lri,
    lri_decompose,
    nondisturbing_measurement,
    partial_broadcaster,
    partial_broadcaster_mirrored,
    product_map,
    swap_map,
    verify_theorem2,
)
from gptlab.linalg import Matrix, kron
from oracles import brute_force_lris, unimodular_u_preserving_map


@pytest.fixture(scope="module")
def bit():
    return ss.simplex(1)


@pytest.fixture(scope="module")
def bit_groups(bit):
    g = reversible_maps(bit)
    return (g, g)


@pytest.fixture(scope="module")
def square_space():
    return ss.gbit()


@pytest.fixture(scope="module")
def square_groups(square_space):
    g = reversible_maps(square_space)
    return (g, g)


def test_cnot_witness(bit, bit_groups):
    t = cnot_map(bit)
    w = lri_decompose(t, bit, bit, bit_groups)
    assert w is not None
    assert w.verify()
    # control side untouched: X_b = identity for both b
    ident = tuple(range(2))
    assert all(x.perm == ident for x in w.x_family)
    # target side: identity for control 0, flip for control 1
    assert w.y_family[0].perm == ident
    assert w.y_family[1].perm == (1, 0)
    assert not is_trivial_lri(w)


def test_product_map_witness_constant_families(square_space, square_groups):
    ga = square_groups[0]
    x = ga.elements[3].matrix
    y = ga.elements[5].matrix
    t = product_map(x, y)
    w = lri_decompose(t, square_space, square_space, square_groups)
    assert w is not None
    assert is_trivial_lri(w)
    assert len({e.perm for e in w.x_family}) == 1
    assert len({e.perm for e in w.y_family}) == 1


def test_swap_is_not_an_lri(square_space, square_groups):
    t = swap_map(square_space, square_space)
    assert lri_decompose(t, square_space, square_space, square_groups) is None


def test_normalization_error_is_distinct(bit, bit_groups):
    t = Matrix.identity(4).scale(Fraction(2))
    with pytest.raises(NormalizationError):
        lri_decompose(t, bit, bit, bit_groups)


def test_enumerate_d1_d1_matches_oracle(bit, bit_groups):
    enum = enumerate_lris(bit, bit, bit_groups)
    assert enum.complete
    assert len(enum) == 12
    got = {t.rows for t, _ in enum.pairs}
    assert got == brute_force_lris(bit, bit, *bit_groups)
    # contains cnot and all four product maps
    assert cnot_map(bit).rows in got
    ga = bit_groups[0]
    for x, y in itertools.product(ga.elements, repeat=2):
        assert product_map(x.matrix, y.matrix).rows in got
    trivial = sum(1 for _, w in enum.pairs if w.is_trivial())
    assert trivial == 4


def test_enumerate_d1_gbit_matches_oracle(bit, square_space):
    ga = reversible_maps(bit)
    gb = reversible_maps(square_space)
    enum = enumerate_lris(bit, square_space, (ga, gb))
    assert enum.complete
    got = {t.rows for t, _ in enum.pairs}
    assert got == brute_force_lris(bit, square_space, ga, gb)


def test_enumerate_point_times_anything_is_local(square_space):
    pt = ss.point()
    gp = reversible_maps(pt)
    gb = reversible_maps(square_space)
    enum = enumerate_lris(pt, square_space, (gp, gb))
    assert enum.complete
    assert len(enum) == gb.order
    assert all(w.is_trivial() for _, w in enum.pairs)


def test_enumerate_gbit_gbit_only_product_maps(square_space, square_groups):
    enum = enumerate_lris(square_space, square_space, square_groups)
    assert enum.complete
    assert len(enum) == 64
    expected = set()
    for x in square_groups[0].elements:
        for y in square_groups[1].elements:
            expected.add(product_map(x.matrix, y.matrix).rows)
    assert {t.rows for t, _ in enum.pairs} == expected
    assert all(w.is_trivial() for _, w in enum.pairs)


def test_enumeration_is_deterministic(bit, bit_groups):
    a = enumerate_lris(bit, bit, bit_groups)
    b = enumerate_lris(bit, bit, bit_groups)
    assert [t.rows for t, _ in a.pairs] == [t.rows for t, _ in b.pairs]


def test_enumeration_budget_flagging(bit, bit_groups):
    enum = enumerate_lris(bit, bit, bit_groups, budgets=Budgets(lri_assignments=3))
    assert not enum.complete
    assert enum.explored >= 3


def test_cnot_broadcaster_is_classical_copier(bit, bit_groups):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    for va in bit.vertices:
        assert pb.matrix.apply(va) == kron(va, va)
    assert pb.verify()


def test_trivial_broadcaster_constant_second_output(square_space, square_groups):
    x = square_groups[0].elements[2]
    y = square_groups[1].elements[6]
    w = lri_decompose(product_map(x.matrix, y.matrix), square_space, square_space,
                      square_groups)
    pb = partial_broadcaster(w, 1)
    const = y.matrix.apply(square_space.vertices[1])
    for va in square_space.vertices:
        assert pb.matrix.apply(va) == kron(va, const)
    f = broadcast_f_map(pb)
    assert f.is_constant()
    assert f.all_pure  # the constant is Y(b), still a vertex here


def test_mirrored_broadcaster(bit, bit_groups):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster_mirrored(w, 1)
    # fixing control a=1 copies nothing into slot A (X_b = id), image X_b(a) (x) b
    for j, vb in enumerate(bit.vertices):
        assert pb.matrix.apply(vb) == kron(bit.vertices[1], vb)
    assert pb.verify()


def test_f_map_of_cnot_is_identity_relabeling(bit, bit_groups):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    f = broadcast_f_map(pb)
    assert f.table == bit.vertices
    assert f.all_pure
    assert not f.is_constant()


def test_measurement_family_cnot(bit, bit_groups):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    family = nondisturbing_measurement(pb)
    assert family.verify()
    assert len(family.members) == 2
    # M_e(s) = [s = e's vertex] . s on pure states
    for k, (effect, m) in enumerate(family.members):
        for i, s in enumerate(bit.vertices):
            expected = s if effect.values[i] == 1 else tuple(Fraction(0) for _ in s)
            assert m.apply(s) == expected


def test_measurement_family_trivial_broadcaster(square_space, square_groups):
    x = square_groups[0].elements[0]
    y = square_groups[1].elements[3]
    w = lri_decompose(product_map(x.matrix, y.matrix), square_space, square_space,
                      square_groups)
    pb = partial_broadcaster(w, 0)
    family = nondisturbing_measurement(pb)
    # gbit is irreducible: single indicator effect u, family = {identity}
    assert len(family.members) == 1
    assert family.members[0][1].eq(Matrix.identity(3))


def test_single_unit_effect_gives_identity_family(bit, bit_groups):
    from gptlab.statespace import unit_effect

    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    family = nondisturbing_measurement(pb, [unit_effect(bit)])
    assert len(family.members) == 1
    assert family.members[0][1].eq(Matrix.identity(2))


def test_incomplete_effects_rejected(bit, bit_groups):
    from gptlab.statespace import zero_effect

    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    with pytest.raises(ValueError, match="incomplete"):
        nondisturbing_measurement(pb, [zero_effect(bit)])


def test_extract_decomposition_cnot_splits_the_bit(bit, bit_groups):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster(w, 0)
    family = nondisturbing_measurement(pb)
    decomp = extract_decomposition(family)
    assert decomp is not None
    assert decomp.n == 2
    assert all(c.space.nvertices == 1 for c in decomp.components)
    assert decomp.verify()


def test_extract_decomposition_trivial_family_none(square_space, square_groups):
    x = square_groups[0].elements[1]
    w = lri_decompose(product_map(x.matrix, x.matrix), square_space, square_space,
                      square_groups)
    pb = partial_broadcaster(w, 2)
    family = nondisturbing_measurement(pb)
    assert extract_decomposition(family) is None


def test_extract_decomposition_on_gbit_pair_blocks(bit):
    # A block-label copier: on dsum(gbit, gbit) (x) bit, flip the bit iff the
    # state sits in the second summand.  Its broadcaster writes the block
    # label into the copy slot, and the indicator measurement recovers the
    # two-component decomposition.
    space = ss.direct_sum(ss.gbit(), ss.gbit())
    flip = Matrix.from_rows([[0, 1], [1, 0]])
    t = controlled_map(space, bit, [Matrix.identity(2), flip])
    groups = (reversible_maps(space), reversible_maps(bit))
    w = lri_decompose(t, space, bit, groups)
    assert w is not None and not w.is_trivial()
    pb = partial_broadcaster(w, 0)
    f = broadcast_f_map(pb)
    decomp_expected = irreducible_components(space)
    for i in range(space.nvertices):
        assert f.table[i] == bit.vertices[decomp_expected.block_of_vertex(i)]
    family = nondisturbing_measurement(pb)
    decomp = extract_decomposition(family)
    assert decomp is not None
    assert decomp.n == 2
    assert sorted(len(c.indices) for c in decomp.components) == [4, 4]
    assert decomp.blocks() == decomp_expected.blocks()


def test_verify_theorem2_gbit_pair(square_space, square_groups):
    report = verify_theorem2(square_space, square_space, square_groups)
    assert report.verdict == "pass"
    assert report.total == 64
    assert report.trivial == 64


def test_verify_theorem2_inapplicable_for_classical(bit, bit_groups):
    report = verify_theorem2(bit, bit, bit_groups)
    assert report.verdict == "inapplicable"


def test_verify_theorem2_gbit_point(square_space):
    pt = ss.point()
    report = verify_theorem2(square_space, pt,
                             (reversible_maps(square_space), reversible_maps(pt)))
    assert report.verdict == "pass"
    assert report.total == reversible_maps(square_space).order


def test_theorem2_chain_every_f_map_constant(square_space, square_groups):
    # indecomposable factors: every f extracted from every interaction is constant
    enum = enumerate_lris(square_space, square_space, square_groups)
    for _, w in enum.pairs:
        for b_idx in range(square_space.nvertices):
            f = broadcast_f_map(partial_broadcaster(w, b_idx))
            assert f.is_constant()
        for a_idx in range(square_space.nvertices):
            f = broadcast_f_map(partial_broadcaster_mirrored(w, a_idx))
            assert f.is_constant()


def test_conditional_structure_cnot(bit, bit_groups):
    t = cnot_map(bit)
    structure = conditional_structure(t, bit, bit, bit_groups)
    assert structure is not None
    perm = structure.block_permutation
    # blocks are (control value, target value); cnot sends (i, j) -> (i, i xor j)
    assert perm == {(i, j): (i, i ^ j) for i in range(2) for j in range(2)}
    assert structure.reassemble().eq(t)


def test_conditional_structure_product_map(square_space, square_groups):
    x = square_groups[0].elements[2].matrix
    y = square_groups[1].elements[7].matrix
    t = product_map(x, y)
    structure = conditional_structure(t, square_space, square_space, square_groups)
    assert structure is not None
    assert list(structure.blocks) == [(0, 0)]
    assert structure.block_permutation == {(0, 0): (0, 0)}
    assert structure.reassemble().eq(t)


def test_conditional_structure_controlled_rotation(square_space):
    classical = ss.direct_sum(ss.point(), ss.point())
    quarter = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    ident = Matrix.identity(3)
    t = controlled_map(classical, square_space, [ident, quarter])
    groups = (reversible_maps(classical), reversible_maps(square_space))
    structure = conditional_structure(t, classical, square_space, groups)
    assert structure is not None
    # blocks preserved, per-block Y = rotation^i
    for (i, j), (dst, x_mat, y_mat) in structure.blocks.items():
        assert dst == (i, j)
    assert structure.reassemble().eq(t)


def test_conditional_structure_swap_returns_none(square_space, square_groups):
    t = swap_map(square_space, square_space)
    structure = conditional_structure(t, square_space, square_space, square_groups)
    assert structure is None


def test_conditional_structure_rejects_non_reversible(bit, bit_groups):
    bad = Matrix.zeros(4, 4)
    with pytest.raises(ValueError):
        conditional_structure(bad, bit, bit, bit_groups)


def test_verify_theorem2_budget_exceeded(square_space, square_groups):
    report = verify_theorem2(square_space, square_space, square_groups,
                             budgets=Budgets(lri_assignments=5))
    assert report.verdict == "budget_exceeded"


def test_mirrored_f_map_reads_first_factor(bit, bit_groups):
    # control copied into slot A when fixing the target input of the copier
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    pb = partial_broadcaster_mirrored(w, 0)
    f = broadcast_f_map(pb)
    assert f.source is bit and f.target is bit


def test_enumerate_d2_d1_matches_oracle():
    d2, d1 = ss.simplex(2), ss.simplex(1)
    g2, g1 = reversible_maps(d2), reversible_maps(d1)
    enum = enumerate_lris(d2, d1, (g2, g1))
    assert enum.complete
    assert {t.rows for t, _ in enum.pairs} == brute_force_lris(d2, d1, g2, g1)


def test_enumerate_partial_support_dependency_matches_oracle():
    # one factor is gbit (+) point: the single dependency ties only four of
    # the five vertices, exercising the partial-support row grouping
    mixed = ss.direct_sum(ss.gbit(), ss.point())
    bit = ss.simplex(1)
    gm, gb = reversible_maps(mixed), reversible_maps(bit)
    enum = enumerate_lris(mixed, bit, (gm, gb))
    assert enum.complete
    assert {t.rows for t, _ in enum.pairs} == brute_force_lris(mixed, bit, gm, gb)


def test_enumerate_high_dependency_dimension_fallback():
    # cube(3) has a 4-dimensional dependency space: no row tying is safe,
    # the enumerator falls back to independent domains plus full leaf checks
    c3, pt = ss.cube(3), ss.point()
    gc, gp = reversible_maps(c3), reversible_maps(pt)
    enum = enumerate_lris(c3, pt, (gc, gp))
    assert enum.complete
    assert len(enum) == gc.order
    assert all(w.is_trivial() for _, w in enum.pairs)


def test_trivial_broadcaster_measurement_proportional_to_identity(square_space, square_groups):
    # alternative effect supply: a complementary pair of extremal effects;
    # each element of the family is e(c) . identity for the constant copy c
    from gptlab.statespace import Effect, extremal_effects

    x = square_groups[0].elements[4]
    y = square_groups[1].elements[2]
    w = lri_decompose(product_map(x.matrix, y.matrix), square_space, square_space,
                      square_groups)
    pb = partial_broadcaster(w, 3)
    f = broadcast_f_map(pb)
    assert f.is_constant()
    c = f.table[0]

    effs = extremal_effects(square_space)
    half = [e for e in effs if set(e.values) == {0, 1} and sum(e.values) == 2][0]
    complement = Effect(square_space,
                        tuple(u - h for u, h in zip(square_space.u, half.covector)),
                        tuple(1 - v for v in half.values))
    family = nondisturbing_measurement(pb, [half, complement])
    for effect, m in family.members:
        lam = sum(hc * cc for hc, cc in zip(effect.covector, c))
        assert m.eq(Matrix.identity(3).scale(lam))
    assert extract_decomposition(family) is None


def test_enumerated_witnesses_roundtrip_through_lri_decompose(bit, bit_groups):
    enum = enumerate_lris(bit, bit, bit_groups)
    for t, w in enum.pairs:
        again = lri_decompose(t, bit, bit, bit_groups)
        assert again is not None
        assert [x.perm for x in again.x_family] == [x.perm for x in w.x_family]
        assert [y.perm for y in again.y_family] == [y.perm for y in w.y_family]


@pytest.mark.parametrize("make_pair, total", [
    (lambda: (ss.simplex(1), ss.simplex(1)), 12),
    (lambda: (ss.simplex(1), ss.gbit()), 128),
    (lambda: (ss.simplex(2), ss.simplex(1)), 144),
], ids=["d1-d1", "d1-gbit", "d2-d1"])
def test_enumerate_scrambled_pairs_match_oracle(make_pair, total):
    # a det-1 integer map fixing u changes every coordinate but no answer
    rng = random.Random(17)
    a, b = make_pair()
    a = ss.transformed(a, unimodular_u_preserving_map(a, rng))
    b = ss.transformed(b, unimodular_u_preserving_map(b, rng))
    ga, gb = reversible_maps(a), reversible_maps(b)
    enum = enumerate_lris(a, b, (ga, gb))
    assert enum.complete
    assert len(enum) == total
    assert {t.rows for t, _ in enum.pairs} == brute_force_lris(a, b, ga, gb)


@pytest.mark.parametrize("make_pair, total", [
    (lambda: (ss.gbit(), ss.cross(3)), 384),
    (lambda: (ss.simplex(3), ss.simplex(1)), 2880),
], ids=["gbit-cross3", "d3-d1"])
def test_enumerate_counts_on_larger_composites(make_pair, total):
    a, b = make_pair()
    enum = enumerate_lris(a, b, (reversible_maps(a), reversible_maps(b)))
    assert enum.complete
    assert len(enum) == total
    rows = [t.rows for t, _ in enum.pairs]
    assert rows == sorted(rows)


def test_composite_search_budget_flags_instead_of_raising(square_space, square_groups):
    budgets = Budgets(group_nodes=10)
    enum = enumerate_lris(square_space, square_space, square_groups, budgets)
    assert not enum.complete
    assert len(enum) == 0
    report = verify_theorem2(square_space, square_space, square_groups, budgets)
    assert report.verdict == "budget_exceeded"
