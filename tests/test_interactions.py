import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from gptlab import dynamics
from gptlab import statespace as ss
from gptlab.config import Budgets
from gptlab.decompose import irreducible_components
from gptlab.dynamics import ReversibleMap, reversible_maps
from gptlab.interactions import (
    NormalizationError,
    _witness,
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
from gptlab.report import broadcaster_from_json, mat_to_json, witness_from_json
from gptlab.report import witness_to_json
from oracles import brute_force_lris, kron_lri_identity, reassemble, unimodular_u_preserving_map


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
    enum = enumerate_lris(bit, bit, bit_groups, budgets=Budgets(group_nodes=3))
    assert not enum.complete
    assert len(enum) == 0


@pytest.mark.parametrize("build, lris", [(lambda: (ss.simplex(1), ss.simplex(1)), 12),
                                         (lambda: (ss.gbit(), ss.simplex(1)), 128)],
                         ids=["bit x bit", "gbit x bit"])
def test_witness_verify_agrees_with_kron_oracle(build, lris):
    """Grid-slice witnesses of every composite symmetry verify; swapping one
    family member for another group element, or T for the next composite
    symmetry, is rejected, exactly as the kron reading decides."""
    a, b = build()
    groups = (reversible_maps(a), reversible_maps(b))
    composite = ss.min_tensor(a, b)
    elements = reversible_maps(composite).elements
    witnesses = 0
    for k, g in enumerate(elements):
        w = _witness(a, b, composite, g, groups)
        if w is None:
            continue
        witnesses += 1
        assert w.verify() and kron_lri_identity(w)
        forged = [replace(w, matrix=elements[(k + 1) % len(elements)].matrix)]
        for name, group in (("x_family", groups[0]), ("y_family", groups[1])):
            family = getattr(w, name)
            forged += [replace(w, **{name: family[:pos] + (h,) + family[pos + 1:]})
                       for pos in range(len(family)) for h in group.elements
                       if h is not family[pos]]
        for f in forged:
            assert not f.verify() and not kron_lri_identity(f)
    assert witnesses == lris


def test_enumeration_checks_each_factor_element_once(monkeypatch):
    # every witness re-verifies, but each factor element's perm check runs once:
    # the 8 + 2 elements of the factor groups, across all 256 witnesses
    a, b = ss.direct_sum(ss.gbit(), ss.point()), ss.simplex(1)
    groups = (reversible_maps(a), reversible_maps(b))
    checks = Counter()
    real = dynamics.sends_vertices

    def spy(matrix, source, target, perm):
        checks[source.label, tuple(perm)] += 1
        return real(matrix, source, target, perm)

    monkeypatch.setattr(dynamics, "sends_vertices", spy)
    enum = enumerate_lris(a, b, groups)
    assert len(enum) == 256
    assert max(checks.values()) == 1
    assert sum(checks.values()) == 10


def test_cached_member_check_still_rejects_a_forged_member():
    a, b = ss.gbit(), ss.simplex(1)
    groups = (reversible_maps(a), reversible_maps(b))
    valid = groups[0].elements[1]
    assert valid.verify()  # the valid element's check runs (and is kept) first
    other = next(g for g in groups[0].elements if g.perm != valid.perm)
    forged = ReversibleMap(a, valid.perm, other.matrix, other.inverse)
    assert not forged.verify()
    holding = 0
    for _, w in enumerate_lris(a, b, groups):
        for pos, x in enumerate(w.x_family):
            if x is valid:
                holding += 1
                assert not replace(w, x_family=w.x_family[:pos] + (forged,) + w.x_family[pos + 1:]).verify()
        assert w.verify()
    assert holding > 0
    assert valid.verify() and not forged.verify()


def test_witness_json_with_an_edited_perm_fails_verify(bit, bit_groups):
    data = json.loads(json.dumps(witness_to_json(lri_decompose(cnot_map(bit), bit, bit, bit_groups))))
    assert witness_from_json(bit, bit, bit_groups, data).verify()
    x_perms = data["x_perms"]
    # one perm reversed, one entry too few, one entry too many
    for edited in ([x_perms[0][::-1]] + x_perms[1:], x_perms[:-1], x_perms + x_perms[:1]):
        assert not witness_from_json(bit, bit, bit_groups, dict(data, x_perms=edited)).verify()
    short = witness_from_json(bit, bit, bit_groups, dict(data, x_perms=x_perms[:-1]))
    with pytest.raises(ValueError):  # no family member for the fixed input
        broadcaster_from_json(short, {"matrix": data["matrix"], "fixed_side": "B", "fixed_index": 1})


@pytest.mark.parametrize("side, index", [("C", 0), ("B", 2), ("A", -1), ("B", "0")],
                         ids=["side-C", "index-2", "index-minus-1", "index-string"])
def test_broadcaster_json_rejects_a_malformed_side_or_index(bit, bit_groups, side, index):
    w = lri_decompose(cnot_map(bit), bit, bit, bit_groups)
    data = {"matrix": mat_to_json(partial_broadcaster(w, 0).matrix),
            "fixed_side": "B", "fixed_index": 0}
    assert broadcaster_from_json(w, data).verify()
    with pytest.raises(ValueError):
        broadcaster_from_json(w, dict(data, fixed_side=side, fixed_index=index))


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
        assert f.table[i] == bit.vertices[decomp_expected.block_of[i]]
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


def test_conditional_structure_cnot(bit):
    t = cnot_map(bit)
    structure = conditional_structure(t, bit, bit)
    assert structure is not None
    perm = structure.block_permutation
    # blocks are (control value, target value); cnot sends (i, j) -> (i, i xor j)
    assert perm == {(i, j): (i, i ^ j) for i in range(2) for j in range(2)}
    assert structure.verify()


def test_conditional_structure_product_map(square_space, square_groups):
    x = square_groups[0].elements[2].matrix
    y = square_groups[1].elements[7].matrix
    t = product_map(x, y)
    structure = conditional_structure(t, square_space, square_space)
    assert structure is not None
    assert list(structure.blocks) == [(0, 0)]
    assert structure.block_permutation == {(0, 0): (0, 0)}
    assert structure.verify()


def test_conditional_structure_controlled_rotation(square_space):
    classical = ss.direct_sum(ss.point(), ss.point())
    quarter = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    ident = Matrix.identity(3)
    t = controlled_map(classical, square_space, [ident, quarter])
    structure = conditional_structure(t, classical, square_space)
    assert structure is not None
    # blocks preserved, per-block Y = rotation^i
    for (i, j), (dst, x_mat, y_mat) in structure.blocks.items():
        assert dst == (i, j)
    assert structure.verify()


def test_cnot_on_a_segment_that_does_not_span(bit):
    # the factor's ambient is 3-dimensional, so the composite's vertices span
    # 4 of its 9 dimensions; the map is the identity on the rest
    seg = ss.make_space([[1, 0, 0], [0, 1, 0]], [1, 1, 0])
    t = cnot_map(seg)
    assert t.shape == (9, 9)
    assert dynamics._as_map(ss.min_tensor(seg, seg), t) is not None  # reversible
    structure = conditional_structure(t, seg, seg)
    assert structure is not None and structure.verify()
    assert structure.block_permutation == {(i, j): (i, i ^ j) for i in range(2) for j in range(2)}
    assert conditional_structure(cnot_map(bit), bit, bit).block_permutation == \
        structure.block_permutation


@pytest.mark.parametrize("a, b", [
    (ss.direct_sum(ss.gbit(), ss.point()), ss.simplex(1)),
    (ss.direct_sum(ss.point(), ss.point()), ss.gbit()),
], ids=["gbit+point,simplex1", "point+point,gbit"])
def test_block_structure_verify_agrees_with_the_reassembly_oracle(a, b):
    """On every composite symmetry with a block form, verify() and the old
    basis reassembly both accept; with one block's local map composed with
    another element of its component's group, both reject."""
    # decompositions are canonical, so component k is the same space each time
    groups = [[reversible_maps(c.space) for c in irreducible_components(s).components]
              for s in (a, b)]
    found = tampered = 0
    for g in reversible_maps(ss.min_tensor(a, b)).elements:
        t = g.matrix
        structure = conditional_structure(t, a, b)
        if structure is None:
            continue
        found += 1
        assert structure.verify() and reassemble(structure).eq(t)
        for src, (dst, x_mat, y_mat) in sorted(structure.blocks.items()):
            gx, gy = groups[0][src[0]], groups[1][src[1]]
            if gx.order > 1:
                swapped = (dst, x_mat @ gx.elements[-1].matrix, y_mat)
            elif gy.order > 1:
                swapped = (dst, x_mat, y_mat @ gy.elements[-1].matrix)
            else:
                continue
            bad = replace(structure, blocks={**structure.blocks, src: swapped})
            assert not bad.verify() and not reassemble(bad).eq(t)
            tampered += 1
            break
    assert found > 0 and tampered == found


def test_conditional_structure_swap_returns_none(square_space):
    t = swap_map(square_space, square_space)
    structure = conditional_structure(t, square_space, square_space)
    assert structure is None


def test_conditional_structure_rejects_non_reversible(bit):
    bad = Matrix.zeros(4, 4)
    with pytest.raises(ValueError):
        conditional_structure(bad, bit, bit)


def test_verify_theorem2_budget_exceeded(square_space, square_groups):
    report = verify_theorem2(square_space, square_space, square_groups,
                             budgets=Budgets(group_nodes=5))
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


def test_slice_checked_search_fits_a_budget_below_the_composite_group():
    # the composite group search of simplex(2) x simplex(1) alone takes 1,956
    # nodes; the interaction search takes 480
    a, b = ss.simplex(2), ss.simplex(1)
    enum = enumerate_lris(a, b, (reversible_maps(a), reversible_maps(b)), Budgets(group_nodes=500))
    assert enum.complete
    assert len(enum) == enum.explored == 144


def test_theorem2_on_squares_within_one_thousand_nodes(square_space, square_groups):
    # the interaction search on gbit x gbit takes 944 nodes
    report = verify_theorem2(square_space, square_space, square_groups,
                             Budgets(group_nodes=1_000))
    assert (report.verdict, report.total, report.trivial) == ("pass", 64, 64)


def test_interaction_search_on_simplex1_plus_gbit_by_gbit_within_a_node_ceiling():
    # the plain pair takes 121,560 nodes
    a, b = ss.direct_sum(ss.simplex(1), ss.gbit()), ss.gbit()
    c = ss.min_tensor(a, b)
    assert len(dynamics._search_vertex_maps(c, c, 125_000, True, (a, b))) == 8192


def test_enumerate_simplex2_squared():
    a = ss.simplex(2)
    group = reversible_maps(a)
    enum = enumerate_lris(a, a, (group, group))
    assert enum.complete
    assert len(enum) == 8784
    assert sum(1 for _, w in enum if w.is_trivial()) == 36


def test_composite_search_budget_flags_instead_of_raising(square_space, square_groups):
    budgets = Budgets(group_nodes=10)
    enum = enumerate_lris(square_space, square_space, square_groups, budgets)
    assert not enum.complete
    assert len(enum) == 0
    report = verify_theorem2(square_space, square_space, square_groups, budgets)
    assert report.verdict == "budget_exceeded"


def _grid_map(a, b, grid):
    """The composite matrix sending a_i (x) b_j to a_i' (x) b_j' for grid[(i, j)] = (i', j')."""
    src = Matrix.from_cols([kron(a.vertices[i], b.vertices[j]) for i, j in grid])
    dst = Matrix.from_cols([kron(a.vertices[i], b.vertices[j]) for i, j in grid.values()])
    return dst @ src.inverse()


def test_singular_grid_map_is_not_an_lri(bit, bit_groups):
    # every grid slice is a permutation, but two products share an image
    t = _grid_map(bit, bit, {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (0, 0)})
    assert t.inverse() is None
    assert lri_decompose(t, bit, bit, bit_groups) is None


def test_map_singular_off_the_vertex_span_is_not_an_lri(bit, bit_groups):
    # the factor's vertices span only two of its three coordinates, and T
    # fixes every pure product while killing the third coordinate
    a = ss.make_space([[1, 0, 0], [0, 1, 0]], [1, 1, 0])
    t = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]).kron(Matrix.identity(2))
    assert lri_decompose(t, a, bit, (reversible_maps(a), bit_groups[0])) is None


@pytest.mark.parametrize("make_pair", [
    lambda: (ss.simplex(1), ss.simplex(1)),
    lambda: (ss.gbit(), ss.simplex(1)),
], ids=["bit-bit", "gbit-bit"])
def test_lri_decompose_agrees_with_enumeration(make_pair):
    a, b = make_pair()
    groups = (reversible_maps(a), reversible_maps(b))
    lris = {t.rows for t, _ in enumerate_lris(a, b, groups)}
    for g in reversible_maps(ss.min_tensor(a, b)).elements:
        witness = lri_decompose(g.matrix, a, b, groups)
        assert (witness is not None) == (g.matrix.rows in lris)
