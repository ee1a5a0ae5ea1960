"""Command-line interface.

Subcommands: run (scenario files), decompose, group, transitive (state-space
JSON files), lri and verify (factor pairs plus an optional map).  Exit codes:
0 when every check passes or is inapplicable, 1 when any check fails, 2 on
usage, parse, input or I/O errors and on an exceeded search budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import decompose as dec
from . import dynamics as dyn
from . import interactions as ia
from . import scenario as sc
from . import statespace as ss
from .config import BudgetExceededError, DEFAULT_BUDGETS
from .runner import RunConfig, execute
from .report import mat_from_json, mat_to_json, validate_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="Exact convex state spaces and reversible-interaction checks",
    )
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument("--eps", type=float, default=1e-9,
                        help="comparison tolerance in float mode")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGETS.lri_assignments,
                        help="cap on composite symmetries filtered as interaction candidates")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized property suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file", nargs="?", help="scenario (.gpt) path")
    p_run.add_argument("--demo", action="store_true", help="run the bundled demo")

    for name, help_text in (
        ("decompose", "irreducible components of a state space"),
        ("group", "reversible transformation group of a state space"),
        ("transitive", "transitivity of the reversible group action"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("space", help="state-space JSON file")

    p_lri = sub.add_parser("lri", help="local-reversibility witness for a map")
    p_lri.add_argument("space_a", help="first factor JSON file")
    p_lri.add_argument("space_b", help="second factor JSON file")
    p_lri.add_argument("map", help="map JSON file ({'matrix': [[...]]})")

    p_verify = sub.add_parser("verify", help="triviality of all interactions of a pair")
    p_verify.add_argument("space_a")
    p_verify.add_argument("space_b")
    return parser


def demo_path() -> Path:
    return Path(str(resources.files("gptlab").joinpath("data/demo.gpt")))


def _config(args) -> RunConfig:
    budgets = DEFAULT_BUDGETS.with_lri(args.budget)
    return RunConfig(mode=args.mode, eps=args.eps, budgets=budgets, seed=args.seed)


def _load_space(path: str, config: RunConfig) -> ss.StateSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return ss.space_from_json(fh.read(), ctx=config.ctx)


def _load_map(path: str, config: RunConfig):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data.get("matrix") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("a map file must be a JSON object {\"matrix\": [[...], ...]}")
    return mat_from_json(rows, config.ctx)


def _cmd_run(args, config: RunConfig) -> int:
    if args.demo:
        path = demo_path()
    elif args.file:
        path = Path(args.file)
    else:
        print("error: run needs a scenario file or --demo", file=sys.stderr)
        return 2
    if not path.exists():
        print(f"error: file not found: {path}", file=sys.stderr)
        return 2
    text = path.read_text(encoding="utf-8")
    ast = sc.parse(text)
    report = execute(ast, config, scenario_name=path.stem)
    if args.json:
        data = report.to_dict()
        validate_report(data)
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for rec in report.checks:
            print(f"{rec.check_id:24s} {rec.verdict}")
        bad = sum(1 for r in report.checks if r.verdict not in ("pass", "inapplicable"))
        print(f"{len(report.checks)} checks, {bad} failing")
    return 0 if report.all_green else 1


def _cmd_decompose(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    decomp = dec.irreducible_components(space)
    if args.json:
        print(json.dumps({
            "label": space.label,
            "count": decomp.n,
            "blocks": decomp.blocks(),
            "dims": [c.dim for c in decomp.components],
        }, indent=2))
    else:
        word = "irreducible" if decomp.n == 1 else f"{decomp.n} components"
        print(f"{space.label}: {word}")
        for k, comp in enumerate(decomp.components):
            print(f"  component {k}: vertices {list(comp.indices)}, dim {comp.dim}")
    return 0


def _cmd_group(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    group = dyn.reversible_maps(space, config.budgets)
    if args.json:
        print(json.dumps({
            "label": space.label,
            "order": group.order,
            "perms": [list(p) for p in group.perms],
            "matrices": [mat_to_json(g.matrix) for g in group.elements],
        }, indent=2))
    else:
        print(f"{space.label}: group of order {group.order}")
        for g in group.elements:
            print(f"  perm {g.perm}:")
            for row in g.matrix.rows:
                print("    [" + ", ".join(str(x) for x in row) + "]")
    return 0


def _cmd_transitive(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    group = dyn.reversible_maps(space, config.budgets)
    verdict = dyn.is_transitive(space, group)
    if args.json:
        print(json.dumps({"label": space.label, "transitive": verdict,
                          "orbits": dyn.orbits(space, group)}))
    else:
        print(f"{space.label}: {'transitive' if verdict else 'not transitive'}")
    return 0 if verdict else 1


def _cmd_lri(args, config: RunConfig) -> int:
    a = _load_space(args.space_a, config)
    b = _load_space(args.space_b, config)
    matrix = _load_map(args.map, config)
    groups = (dyn.reversible_maps(a, config.budgets), dyn.reversible_maps(b, config.budgets))
    witness = ia.lri_decompose(matrix, a, b, groups)
    if witness is None:
        print("no witness: the map is not a locally reversible interaction")
        return 1
    trivial = witness.is_trivial()
    if args.json:
        print(json.dumps({
            "trivial": trivial,
            "x_perms": [list(x.perm) for x in witness.x_family],
            "y_perms": [list(y.perm) for y in witness.y_family],
        }))
    else:
        kind = "trivial" if trivial else "nontrivial"
        print(f"locally reversible interaction ({kind})")
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    a = _load_space(args.space_a, config)
    b = _load_space(args.space_b, config)
    groups = (dyn.reversible_maps(a, config.budgets), dyn.reversible_maps(b, config.budgets))
    report = ia.verify_theorem2(a, b, groups, config.budgets)
    if args.json:
        print(json.dumps({"verdict": report.verdict, "total": report.total,
                          "trivial": report.trivial, "detail": report.detail}))
    else:
        print(f"{a.label} (x) {b.label}: {report.verdict} "
              f"({report.trivial}/{report.total} trivial)")
    return 0 if report.verdict in ("pass", "inapplicable") else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    config = _config(args)
    handlers = {
        "run": _cmd_run,
        "decompose": _cmd_decompose,
        "group": _cmd_group,
        "transitive": _cmd_transitive,
        "lri": _cmd_lri,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, config)
    except sc.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
