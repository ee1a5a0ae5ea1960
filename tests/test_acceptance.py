"""Acceptance criteria, one test per criterion, at stated time bounds.

Everything here runs in exact rational arithmetic with zero tolerance on
values; only wall-clock bounds are inequality checks.  Each criterion prints
its own pass line (visible regardless of pytest capture).
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from gptlab import statespace as ss
from gptlab.decompose import classical_subsystem, irreducible_components, spaces_isomorphic
from gptlab.dynamics import induced_face_automorphism, reversible_maps
from gptlab.geometry import face_lattice, join
from gptlab.interactions import (
    cnot_map,
    enumerate_lris,
    extract_decomposition,
    lri_decompose,
    nondisturbing_measurement,
    partial_broadcaster,
    product_map,
    swap_map,
    verify_theorem2,
)
from gptlab.linalg import Matrix, dot, kron
from gptlab.statespace import min_tensor, transformed
from oracles import (
    finest_valid_partition,
    random_polytope,
    random_u_preserving_map,
    unpruned_symmetries,
)


def _report(capsys, name: str, elapsed: float, bound: float):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, bound {bound:.0f}s)",
              flush=True)
    assert elapsed < bound, f"{name} exceeded its time bound: {elapsed:.1f}s"


def test_criterion_1_theorem2_instance_gbit_gbit(capsys):
    start = time.perf_counter()
    g = ss.gbit()
    assert g.ctx.exact
    group = reversible_maps(g)
    assert group.order == 8
    enum = enumerate_lris(g, g, (group, group))
    assert enum.complete
    assert len(enum) == 64
    expected = {product_map(x.matrix, y.matrix).rows
                for x in group.elements for y in group.elements}
    assert {t.rows for t, _ in enum.pairs} == expected
    assert all(w.is_trivial() for _, w in enum.pairs)
    assert all(isinstance(x, Fraction) for t, _ in enum.pairs for r in t.rows for x in r)
    _report(capsys, "1 (all gbit-pair interactions are trivial products)",
            time.perf_counter() - start, 300)


def test_criterion_2_theorem1_roundtrip_scrambled(capsys):
    start = time.perf_counter()
    base = min_tensor(ss.simplex(2), ss.gbit())
    reference = ss.gbit()
    rng = random.Random(20260810)
    for trial in range(10):
        lin = random_u_preserving_map(base, rng)
        scrambled = transformed(base, lin, f"scramble{trial}")
        decomp = irreducible_components(scrambled)
        assert decomp.n == 3
        for comp in decomp.components:
            iso = spaces_isomorphic(reference, comp.space)
            assert iso is not None and iso.verify()
        result = classical_subsystem(scrambled)
        assert result is not None
        assert result.n_levels == 2
        assert result.iso.verify()
        # bit-exact: the iso maps the composite vertex set onto the space's
        composite = result.iso.source
        images = sorted(result.iso.matrix.apply(v) for v in composite.vertices)
        assert images == sorted(scrambled.vertices)
        pulled = result.iso.matrix.transpose().apply(scrambled.u)
        assert pulled == composite.u
    _report(capsys, "2 (simplex factorization survives 10 rational scrambles)",
            time.perf_counter() - start, 60)


def test_criterion_3_broadcast_pipeline_cnot(capsys):
    start = time.perf_counter()
    bit = ss.simplex(1)
    group = reversible_maps(bit)
    t = cnot_map(bit)
    witness = lri_decompose(t, bit, bit, (group, group))
    assert witness is not None
    assert len({y.perm for y in witness.y_family}) == 2  # non-constant Y family
    pb = partial_broadcaster(witness, 0)
    for v in bit.vertices:
        assert pb.matrix.apply(v) == kron(v, v)  # the classical copier
    discard = Matrix.identity(2).kron(Matrix((tuple(bit.u),)))
    assert (discard @ pb.matrix).eq(Matrix.identity(2))  # exact matrix identity
    family = nondisturbing_measurement(pb)
    total = family.members[0][1] + family.members[1][1]
    assert total.eq(Matrix.identity(2))
    decomp = extract_decomposition(family)
    assert decomp is not None
    assert decomp.n == 2
    assert all(c.space.nvertices == 1 for c in decomp.components)
    _report(capsys, "3 (copier pipeline splits the bit into two points)",
            time.perf_counter() - start, 1)


def test_criterion_4_decomposition_oracle_equivalence(capsys):
    start = time.perf_counter()
    spaces = [
        ss.point(), ss.simplex(1), ss.simplex(2), ss.simplex(3),
        ss.gbit(), ss.cube(3), ss.cross(2), ss.cross(3),
        ss.direct_sum(ss.simplex(1), ss.gbit()),
        ss.direct_sum(ss.gbit(), ss.gbit()),
        ss.min_tensor(ss.simplex(1), ss.simplex(1)),
    ]
    rng = random.Random(4242)
    spaces += [random_polytope(rng) for _ in range(20)]
    for space in spaces:
        got = sorted(list(c.indices) for c in irreducible_components(space).components)
        assert got == finest_valid_partition(space.vertices), space.label
    _report(capsys, "4 (decomposition equals brute-force finest partition, 31 spaces)",
            time.perf_counter() - start, 120)


def test_criterion_5_symmetry_group_orders(capsys):
    start = time.perf_counter()
    for n in range(1, 5):
        assert reversible_maps(ss.simplex(n)).order == math.factorial(n + 1)
    assert reversible_maps(ss.gbit()).order == 8
    assert reversible_maps(ss.cube(3)).order == 48
    small = [ss.point(), ss.simplex(1), ss.simplex(2), ss.simplex(3), ss.simplex(4),
             ss.gbit(), ss.cross(2), ss.cross(3),
             ss.direct_sum(ss.simplex(1), ss.simplex(1))]
    for space in small:
        if space.nvertices <= 6:
            got = sorted(g.perm for g in reversible_maps(space).elements)
            assert got == sorted(unpruned_symmetries(space.vertices, space.u)), space.label
    _report(capsys, "5 (group orders and unpruned brute-force agreement)",
            time.perf_counter() - start, 120)


def test_criterion_6_face_lattice_automorphisms(capsys):
    start = time.perf_counter()
    for space in (ss.cube(3), ss.gbit()):
        lattice = face_lattice(space.vertices)
        group = reversible_maps(space)
        vertex_faces = {i: lattice.face_for((i,)) for i in range(space.nvertices)}
        for g in group.elements:
            auto = induced_face_automorphism(space, g, lattice)
            for src, dst in enumerate(auto.face_perm):
                assert len(lattice.faces[src]) == len(lattice.faces[dst])
            for i, j in itertools.combinations(range(space.nvertices), 2):
                joined = join(lattice, vertex_faces[i], vertex_faces[j])
                image_of_join = auto.image(joined)
                join_of_images = join(lattice, auto.image(vertex_faces[i]),
                                      auto.image(vertex_faces[j]))
                assert image_of_join == join_of_images
    _report(capsys, "6 (face images and joins preserved for cube(3) and gbit)",
            time.perf_counter() - start, 60)


def test_criterion_7_distributivity(capsys):
    start = time.perf_counter()
    pool = [ss.point(), ss.simplex(1), ss.simplex(2), ss.gbit()]
    count = 0
    for a, b, c in itertools.product(pool, repeat=3):
        assert ss.check_distributivity(a, b, c)
        count += 1
    assert count == 64
    _report(capsys, "7 (distributivity on all 64 builder triples)",
            time.perf_counter() - start, 30)


def test_criterion_8_negative_controls(capsys):
    start = time.perf_counter()
    g = ss.gbit()
    group = reversible_maps(g)
    assert lri_decompose(swap_map(g, g), g, g, (group, group)) is None

    verdict = ss.is_entangled(ss.pr_box_state(), g, g)
    assert verdict.entangled
    h = verdict.membership.separating
    gens = [kron(va, vb) for va in g.vertices for vb in g.vertices]
    hp = dot(h, ss.pr_box_state())
    assert all(dot(h, w) < hp for w in gens)  # strict separation certificate

    bit = ss.simplex(1)
    bit_group = reversible_maps(bit)
    report = verify_theorem2(bit, bit, (bit_group, bit_group))
    assert report.verdict == "inapplicable"
    _report(capsys, "8 (swap rejected, box entangled, classical pair inapplicable)",
            time.perf_counter() - start, 10)


def test_criterion_9_scenario_cli_demo(capsys):
    start = time.perf_counter()
    from gptlab.cli import demo_path
    from gptlab.report import validate_report
    from gptlab.scenario import parse

    ast = parse(demo_path().read_text())
    assert len(ast.statements) == 13

    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "gptlab", "--json", "run", "--demo"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        validate_report(data)
        for check in data["checks"]:
            check["millis"] = 0.0
        runs.append(json.dumps(data, sort_keys=True))
    assert runs[0] == runs[1]
    _report(capsys, "9 (demo scenario: schema-valid, deterministic, exit 0)",
            time.perf_counter() - start, 120)
