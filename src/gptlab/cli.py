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
from dataclasses import replace
from importlib import resources
from pathlib import Path

from . import scenario as sc
from . import statespace as ss
from .config import BudgetExceededError, DEFAULT_BUDGETS
from .runner import RunConfig, execute, run_kind
from .report import mat_from_json, validate_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptlab",
        description="Exact convex state spaces and reversible-interaction checks",
    )
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument("--eps", type=float, default=1e-9,
                        help="comparison tolerance in float mode")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGETS.group_nodes,
                        help="node cap on each symmetry search")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
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
    budgets = replace(DEFAULT_BUDGETS, group_nodes=args.budget)
    return RunConfig(mode=args.mode, eps=args.eps, budgets=budgets)


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
    if any(r.verdict == "budget_exceeded" for r in report.checks):
        return 2
    return 0 if report.all_green else 1


def _cmd_decompose(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    _, _, cert = run_kind("decompose", config, space)
    if args.json:
        print(json.dumps({"label": space.label, **cert}, indent=2))
    else:
        word = "irreducible" if cert["count"] == 1 else f"{cert['count']} components"
        print(f"{space.label}: {word}")
        for k, (block, dim) in enumerate(zip(cert["blocks"], cert["dims"])):
            print(f"  component {k}: vertices {block}, dim {dim}")
    return 0


def _cmd_group(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    _, _, cert = run_kind("group", config, space)
    if args.json:
        print(json.dumps({"label": space.label, "order": cert["order"], "perms": cert["perms"],
                          "matrices": cert["matrices"]}, indent=2))
    else:
        print(f"{space.label}: group of order {cert['order']}")
        for perm, matrix in zip(cert["perms"], cert["matrices"]):
            print(f"  perm {tuple(perm)}:")
            for row in matrix:
                print("    [" + ", ".join(row) + "]")
    return 0


def _cmd_transitive(args, config: RunConfig) -> int:
    space = _load_space(args.space, config)
    _, _, cert = run_kind("transitive", config, space)
    if args.json:
        print(json.dumps({"label": space.label, **cert}))
    else:
        print(f"{space.label}: {'transitive' if cert['transitive'] else 'not transitive'}")
    return 0 if cert["transitive"] else 1


def _cmd_lri(args, config: RunConfig) -> int:
    a = _load_space(args.space_a, config)
    b = _load_space(args.space_b, config)
    matrix = _load_map(args.map, config)
    outcome, _, cert = run_kind("lri", config, matrix, a, b)
    witness = cert["witness"]
    if witness is None:
        print("no witness: the map is not a locally reversible interaction")
        return 1
    if args.json:
        print(json.dumps({"trivial": outcome == "trivial", "x_perms": witness["x_perms"],
                          "y_perms": witness["y_perms"]}))
    else:
        print(f"locally reversible interaction ({outcome})")
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    a = _load_space(args.space_a, config)
    b = _load_space(args.space_b, config)
    verdict, _, cert = run_kind("theorem2", config, a, b)
    if args.json:
        print(json.dumps({"verdict": verdict, "total": cert["total"],
                          "trivial": cert["trivial"], "detail": cert["detail"]}))
    else:
        print(f"{a.label} (x) {b.label}: {verdict} ({cert['trivial']}/{cert['total']} trivial)")
    if verdict == "budget_exceeded":
        return 2
    return 0 if verdict in ("pass", "inapplicable") else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 1:
            parser.error(f"argument --budget: must be at least 1, got {args.budget}")
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
    except (OSError, ValueError, KeyError, json.JSONDecodeError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
