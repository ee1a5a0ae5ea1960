import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from gptlab import interactions as ia
from gptlab import runner as ex
from gptlab import statespace as ss
from gptlab import scenario as sc
from gptlab.checks import CHECKS, MAPS, SPACES
from gptlab.cli import demo_path
from gptlab.linalg import Matrix
from gptlab.report import validate_report
from gptlab.scenario import ParseError, parse, print_ast


def test_parse_single_space_def():
    ast = parse("space A = simplex(2)")
    assert len(ast.statements) == 1
    stmt = ast.statements[0]
    assert isinstance(stmt, sc.SpaceDef)
    assert stmt.name == "A"
    assert stmt.expr == sc.Call("simplex", (2,))
    assert stmt.loc.line == 1


def test_unknown_builder_position():
    with pytest.raises(ParseError) as err:
        parse("space A = blorp(3)")
    assert err.value.line == 1
    assert err.value.col == 11
    assert "blorp" in str(err.value)


@pytest.mark.parametrize("text, expected", [
    ("space G = gbit()\ncheck theorem1 G expect maybe", ("pass", "inapplicable")),
    ("space G = gbit()\ncheck group G expect true", ("a positive integer",)),
    ("space G = gbit()\ncheck group G expect 1/2", ("a positive integer",)),
    ("space G = gbit()\ncheck group G expect 0", ("a positive integer",)),
    ("space G = gbit()\ncheck group G expect -8", ("a positive integer",)),
    ("space G = gbit()\ncheck decompose G expect pass", ("decomposable", "irreducible")),
], ids=["theorem1-maybe", "group-word", "group-fraction", "group-zero", "group-negative",
        "decompose-pass"])
def test_expect_word_checked_against_check_kind(text, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    line = text.splitlines()[1]
    assert (err.value.line, err.value.col) == (2, line.index("expect") + len("expect ") + 1)
    assert err.value.expected == expected + ("budget_exceeded",)


def test_expect_accepts_each_outcome_and_budget_exceeded():
    prefix = "space A = simplex(1)\nspace P = product(A, A)\nmap C = cnot\n"
    operands = {"decompose": "A", "transitive": "A", "group": "A", "theorem1": "A",
                "theorem2": "P", "distributivity": "A A A", "lri": "C on P",
                "theorem3": "C on P", "broadcaster": "C on P", "entangled": "prbox on P"}
    assert set(operands) == set(CHECKS)
    for kind, entry in CHECKS.items():
        for word in (entry.outcomes or ("8",)) + ("budget_exceeded",):
            check = parse(f"{prefix}check {kind} {operands[kind]} expect {word}").checks[0]
            assert check.expect == word


def test_readme_outcome_table_lists_each_check_kind():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| kind | outcomes |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        kinds, outcomes = (cell.strip() for cell in line.strip("|").split("|"))
        rows.update((kind, outcomes) for kind in kinds.split(", "))
    assert rows == {kind: ", ".join(entry.outcomes) or "the group order, a positive integer"
                    for kind, entry in CHECKS.items()}


def test_scenario_grammar_names_each_construction():
    grammar = sc.__doc__.split("space ID =", 1)[1]
    spaces, maps = grammar.split("check", 1)[0].split("map   ID =")
    assert re.findall(r"\b[a-z]+\b", spaces) == [*SPACES, "vertices", "unit"]
    assert re.findall(r"\b[a-z]+\b", maps) == list(MAPS)


_PRELUDE = ("space A = simplex(1)\nspace G = gbit()\nspace X = point()\nspace D = dsum(X, X)\n"
            "map I = identity(G)\nmap R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]\n")
_R = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])

# (head, name): the construction as written, the same object from the
# library, and a call with the wrong number of arguments with its message
CONSTRUCTIONS = {
    ("space", "simplex"): ("simplex(2)", lambda: ss.simplex(2),
                           ("simplex(2, 3)", "simplex takes 1 argument(s), found 2")),
    ("space", "point"): ("point()", ss.point, ("point(1)", "point takes 0 argument(s), found 1")),
    ("space", "gbit"): ("gbit()", ss.gbit, ("gbit(3)", "gbit takes 0 argument(s), found 1")),
    ("space", "cube"): ("cube(3)", lambda: ss.cube(3),
                        ("cube()", "cube takes 1 argument(s), found 0")),
    ("space", "cross"): ("cross(2)", lambda: ss.cross(2),
                         ("cross(1, 2)", "cross takes 1 argument(s), found 2")),
    ("space", "product"): ("product(A, G)", lambda: ss.min_tensor(ss.simplex(1), ss.gbit()),
                           ("product(A)", "product takes 2 argument(s), found 1")),
    ("space", "dsum"): ("dsum(A, G)", lambda: ss.direct_sum(ss.simplex(1), ss.gbit()),
                        ("dsum(A, G, A)", "dsum takes 2 argument(s), found 3")),
    ("map", "identity"): ("identity(G)", lambda: Matrix.identity(3),
                          ("identity()", "identity takes 1 argument(s), found 0")),
    ("map", "swap"): ("swap(G, G)", lambda: ia.swap_map(ss.gbit(), ss.gbit()),
                      ("swap(G)", "swap takes 2 argument(s), found 1")),
    ("map", "cnot"): ("cnot", lambda: ia.cnot_map(ss.simplex(1)), (None, None)),
    ("map", "product"): ("product(R, I)", lambda: ia.product_map(_R, Matrix.identity(3)),
                         ("product(R, I, I)", "product takes 2 argument(s), found 3")),
    ("map", "ctrl"): ("ctrl(D, G, I, R)", lambda: ia.controlled_map(
        ss.direct_sum(ss.point(), ss.point()), ss.gbit(), [Matrix.identity(3), _R]),
        ("ctrl(D, G)", "ctrl takes 3 or more argument(s), found 2")),
}


def _evaluate(ast):
    env = ex._Env(ex.RunConfig())
    for stmt in ast.statements:
        if isinstance(stmt, sc.SpaceDef):
            env.spaces[stmt.name] = ex._eval_space(stmt, env)
        else:
            env.maps[stmt.name] = ex._eval_map(stmt, env)
    return env


@pytest.mark.parametrize("head, name", list(CONSTRUCTIONS), ids=lambda x: x)
def test_each_construction_parses_prints_and_builds(head, name):
    assert set(CONSTRUCTIONS) == {("space", n) for n in SPACES} | {("map", n) for n in MAPS}
    text, direct, (bad_count, message) = CONSTRUCTIONS[head, name]
    source = f"{_PRELUDE}{head} Z = {text}\n"
    ast = parse(source)
    assert print_ast(ast) == source
    assert parse(print_ast(ast)) == ast
    args = tuple(int(a) if a.isdigit() else a for a in re.findall(r"\w+", text)[1:])
    assert ast.statements[-1].expr == sc.Call(name, args)

    env = _evaluate(ast)
    if head == "space":
        made, want = env.spaces["Z"], direct()
        assert (made.label, made.vertices, made.u) == ("Z", want.vertices, want.u)
        assert (made.factors is None) == (want.factors is None)
    else:
        assert env.maps["Z"] == direct()

    line = len(_PRELUDE.splitlines()) + 1
    col = len(f"{head} Z = ") + 1
    if bad_count is not None:
        with pytest.raises(ParseError) as err:
            parse(f"{_PRELUDE}{head} Z = {bad_count}")
        assert str(err.value) == f"{line}:{col}: {message}"
    if args and isinstance(args[-1], str):  # the last name undefined, at its own column
        undefined = re.sub(r"\w+\)$", "U)", text)
        with pytest.raises(ParseError) as err:
            parse(f"{_PRELUDE}{head} Z = {undefined}")
        what = "space" if args[-1] in env.spaces else "map"
        assert str(err.value) == f"{line}:{col + undefined.index('U')}: undefined {what} 'U'"


def test_demo_outcomes_are_in_their_tables():
    report = ex.execute(parse(demo_path().read_text()))
    for rec in report.checks:
        outcome = rec.certificate["outcome"]
        assert outcome in CHECKS[rec.kind].outcomes or (
            rec.kind == "group" and outcome.isdigit()), (rec.kind, outcome)


@pytest.mark.parametrize("text", ["space expect = gbit()", "map expect = cnot"])
def test_expect_is_not_a_name(text):
    with pytest.raises(ParseError, match="'expect' is a keyword") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, text.index("expect") + 1)


def test_duplicate_definition_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("space A = gbit()\nspace A = point()")


def test_undefined_identifier_rejected():
    with pytest.raises(ParseError, match="undefined"):
        parse("space P = product(A, B)")
    with pytest.raises(ParseError, match="undefined"):
        parse("space A = gbit()\ncheck decompose B")


def test_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse("space A = gbit()\ncheck decompose @")
    assert err.value.line == 2
    assert err.value.col == 17


def test_comments_and_blanks_ignored():
    ast = parse("# header\n\nspace A = gbit()  # trailing\n\n")
    assert len(ast.statements) == 1


def test_vertices_literal_with_rationals():
    ast = parse("space H = vertices [[1/2, 1/2], [1, 0]] unit [1, 1]")
    stmt = ast.statements[0]
    assert stmt.expr.rows == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)))
    assert stmt.expr.unit == (Fraction(1), Fraction(1))


def test_demo_parses_to_thirteen_statements():
    ast = parse(demo_path().read_text())
    assert len(ast.statements) == 13
    kinds = [s.kind for s in ast.checks]
    assert kinds == ["theorem1", "theorem2", "lri", "broadcaster", "lri",
                     "theorem2", "entangled"]


ROUNDTRIP_SOURCES = [
    "space A = simplex(2)",
    "space A = gbit()\nspace B = cube(3)\nspace P = product(A, B)",
    "space A = gbit()\nspace S = dsum(A, A)",
    "space H = vertices [[1/2, 1/2], [1, 0]] unit [1, 1]",
    "space A = simplex(1)\nmap M = [[1, 0], [0, 1]]\nmap I = identity(A)",
    "space A = simplex(1)\nspace P = product(A, A)\nmap C = cnot\n"
    "check lri C on P expect nontrivial",
    "space A = gbit()\ncheck group A expect 8",
    "space A = simplex(1)\nspace P = product(A, A)\nmap C = cnot\n"
    "check broadcaster C on P b=1",
    "space G = gbit()\nspace GG = product(G, G)\ncheck entangled prbox on GG expect true",
    "space G = gbit()\nspace GG = product(G, G)\n"
    "check entangled [1, 1, 0, 1, -1, 0, 0, 0, 1] on GG",
    "space A = point()\nspace B = simplex(1)\nspace C = gbit()\n"
    "check distributivity A B C",
    "space X = point()\nspace D = dsum(X, X)\nspace G = gbit()\n"
    "map R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]\nmap I = identity(G)\n"
    "map T = ctrl(D, G, I, R)\nspace P = product(D, G)\ncheck theorem3 T on P",
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_printer_roundtrip(source):
    ast = parse(source)
    printed = print_ast(ast)
    assert parse(printed) == ast
    assert parse(print_ast(parse(printed))) == ast


def test_execute_decompose_gbit():
    report = ex.execute(parse("space G = gbit()\ncheck decompose G"))
    rec = report.checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["count"] == 1
    assert rec.certificate["outcome"] == "irreducible"


def test_execute_theorem2_on_product_space():
    report = ex.execute(parse(
        "space G = gbit()\nspace GG = product(G, G)\ncheck theorem2 GG"))
    rec = report.checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["total"] == 64
    assert rec.certificate["trivial"] == 64


def test_execute_swap_lri_no_witness():
    text = ("space G = gbit()\nspace GG = product(G, G)\nmap SW = swap(G, G)\n"
            "check lri SW on GG")
    rec = ex.execute(parse(text)).checks[0]
    assert rec.verdict == "fail"
    assert rec.certificate["outcome"] == "none"
    # with an expectation the same outcome passes
    rec = ex.execute(parse(text + " expect none")).checks[0]
    assert rec.verdict == "pass"


def test_execute_error_recorded_and_continues():
    text = ("space G = gbit()\nmap I = identity(G)\ncheck lri I on G\n"
            "check decompose G")
    report = ex.execute(parse(text))
    assert report.checks[0].verdict == "error"
    assert "product" in report.checks[0].certificate["error"]
    assert report.checks[1].verdict == "pass"


def test_execute_group_expectation():
    rec = ex.execute(parse("space G = gbit()\ncheck group G expect 8")).checks[0]
    assert rec.verdict == "pass"
    rec = ex.execute(parse("space G = gbit()\ncheck group G expect 12")).checks[0]
    assert rec.verdict == "fail"
    ast = parse("space G = gbit()\ncheck group G expect 08")
    assert ast.checks[0].expect == "8"
    assert ex.execute(ast).checks[0].verdict == "pass"


def test_execute_theorem1_forms():
    rec = ex.execute(parse("space A = simplex(2)\ncheck theorem1 A")).checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["N"] == 2
    rec = ex.execute(parse("space G = gbit()\ncheck theorem1 G")).checks[0]
    assert rec.verdict == "inapplicable"


def test_execute_controlled_map_theorem3():
    text = (
        "space X = point()\nspace D = dsum(X, X)\nspace G = gbit()\n"
        "map R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]\nmap I = identity(G)\n"
        "map T = ctrl(D, G, I, R)\nspace P = product(D, G)\n"
        "check theorem3 T on P"
    )
    rec = ex.execute(parse(text)).checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["outcome"] == "conditional"
    assert len(rec.certificate["blocks"]) == 2


def test_report_schema_and_determinism():
    text = demo_path().read_text()
    r1 = ex.execute(parse(text), scenario_name="demo")
    r2 = ex.execute(parse(text), scenario_name="demo")
    d1, d2 = r1.to_dict(), r2.to_dict()
    validate_report(d1)
    for d in (d1, d2):
        for c in d["checks"]:
            c["millis"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_report_schema_is_valid_and_rejects_a_broken_field():
    import jsonschema

    from gptlab.report import REPORT_SCHEMA

    jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)
    data = ex.execute(parse("space G = gbit()\ncheck transitive G")).to_dict()
    validate_report(data)
    data["checks"][0]["verdict"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(data)


def test_report_json_roundtrip_bit_exact():
    report = ex.execute(parse("space G = gbit()\ncheck group G"))
    blob = report.to_json()
    assert json.loads(blob) == report.to_dict()


def test_certificates_reverify():
    from gptlab import dynamics as dyn
    from gptlab import statespace as ss
    from gptlab.report import broadcaster_from_json, isomorphism_from_json, witness_from_json

    text = ("space D1 = simplex(1)\nspace P4 = product(D1, D1)\nmap C = cnot\n"
            "check broadcaster C on P4 b=0\ncheck theorem1 D1")
    report = ex.execute(parse(text))
    cert = report.checks[0].certificate

    d1 = ss.simplex(1)
    group = dyn.reversible_maps(d1)
    witness = witness_from_json(d1, d1, (group, group), cert["witness"])
    assert witness.verify()
    pb = broadcaster_from_json(witness, {
        "matrix": cert["broadcaster"]["matrix"],
        "fixed_side": cert["broadcaster"]["fixed_side"],
        "fixed_index": cert["broadcaster"]["fixed_index"],
    })
    assert pb.verify()

    t1 = report.checks[1].certificate
    composite = ss.min_tensor(ss.simplex(1), ss.point())
    iso = isomorphism_from_json(composite, d1, {
        "matrix": t1["iso"]["matrix"],
        "vertex_map": t1["iso"]["vertex_map"],
    })
    assert iso.verify()


def test_execute_float_mode():
    from gptlab.runner import RunConfig

    text = ("space D1 = simplex(1)\nspace P4 = product(D1, D1)\nmap C = cnot\n"
            "check lri C on P4 expect nontrivial\ncheck decompose D1")
    report = ex.execute(parse(text), RunConfig(mode="float"))
    assert report.mode == "float"
    assert all(r.verdict == "pass" for r in report.checks)


def test_execute_budget_exceeded_verdict():
    from gptlab.config import Budgets
    from gptlab.runner import RunConfig

    config = RunConfig(budgets=Budgets(group_nodes=3))
    text = "space G = gbit()\nspace GG = product(G, G)\ncheck theorem2 GG"
    rec = ex.execute(parse(text), config).checks[0]
    assert rec.verdict == "budget_exceeded"


def test_theorem1_reads_orbits_not_the_group():
    from gptlab.config import Budgets
    from gptlab.runner import RunConfig

    # listing the group of simplex(2) (x) gbit (order 3,072) takes 23,652 nodes
    config = RunConfig(budgets=Budgets(group_nodes=100))
    text = "space D = simplex(2)\nspace G = gbit()\nspace DG = product(D, G)\ncheck theorem1 DG"
    rec = ex.execute(parse(text), config).checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["N"] == 2


def test_transitive_cube6_under_default_budgets():
    # its group has order 46,080, and listing it exceeds the default 10^6 nodes
    rec = ex.execute(parse("space C = cube(6)\ncheck transitive C")).checks[0]
    assert rec.verdict == "pass"
    assert rec.certificate["orbits"] == [list(range(64))]


def test_direct_sum_with_a_point_is_not_transitive():
    from oracles import orbits as listed_orbits
    from gptlab.dynamics import reversible_maps

    text = ("space G = gbit()\nspace X = point()\nspace GX = dsum(G, X)\n"
            "check transitive GX\ncheck theorem1 GX")
    transitive, theorem1 = ex.execute(parse(text)).checks
    assert transitive.certificate["outcome"] == "false"
    space = ss.direct_sum(ss.gbit(), ss.point())
    assert transitive.certificate["orbits"] == listed_orbits(space, reversible_maps(space))
    assert theorem1.verdict == "inapplicable"
    assert theorem1.certificate["reason"] == "space is not transitive"


def test_execute_singular_lri_outcome_none():
    text = ("space D = simplex(1)\nspace DD = product(D, D)\n"
            "map T = [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]\n"
            "check lri T on DD")
    rec = ex.execute(parse(text)).checks[0]
    assert rec.certificate["outcome"] == "none"


def test_error_records_keep_their_verdict_and_text():
    text = ("space G = gbit()\nspace D1 = simplex(1)\nspace P4 = product(D1, D1)\n"
            "map I = identity(G)\nmap CNOT = cnot\n"
            "check entangled prbox on G\ncheck lri I on G\ncheck theorem3 I on G\n"
            "check broadcaster I on G\ncheck theorem2 G\ncheck broadcaster CNOT on P4 b=7")
    records = ex.execute(parse(text)).checks
    assert [(r.check_id, r.verdict, r.certificate) for r in records] == [
        (f"c{n:02d}-{kind}", "error", {"outcome": "error", "error": message})
        for n, (kind, message) in enumerate([
            ("entangled", "entangled check needs a product space"),
            ("lri", "lri check needs a product space"),
            ("theorem3", "theorem3 check needs a product space"),
            ("broadcaster", "broadcaster check needs a product space"),
            ("theorem2", "'G' is not a product space; pass two factor spaces"),
            ("broadcaster", "fixed input 7 is not a pure state of the B factor 'D1'"),
        ], start=1)]
