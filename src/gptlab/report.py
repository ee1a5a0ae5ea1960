"""Check reports: JSON schema, serialization and certificate re-loading.

A report is reproducible modulo timing: re-running a scenario yields an
identical JSON document except for the ``millis`` fields.  Certificates are
rational matrices/tables that the library can re-verify when loaded back.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional

from .arith import Context, EXACT
from .linalg import Matrix
from .statespace import StateSpace

VERDICTS = ("pass", "fail", "inapplicable", "error", "budget_exceeded")

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["scenario", "version", "mode", "checks"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"type": "string"},
        "version": {"type": "string"},
        "mode": {"enum": ["exact", "float"]},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "verdict", "certificate", "millis"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "kind": {"type": "string"},
                    "verdict": {"enum": list(VERDICTS)},
                    "certificate": {"type": ["object", "null"]},
                    "millis": {"type": "number"},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    kind: str
    verdict: str
    certificate: Optional[dict]
    millis: float

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "kind": self.kind,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class Report:
    scenario: str
    version: str
    mode: str
    checks: tuple

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "version": self.version,
            "mode": self.mode,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @property
    def all_green(self) -> bool:
        return all(c.verdict in ("pass", "inapplicable") for c in self.checks)


def validate_report(data: dict) -> None:
    """Schema-validate a report dict; raises jsonschema.ValidationError.

    The error is the one ``jsonschema.validate`` raises (``best_match``), but
    the validator is built once, so ``REPORT_SCHEMA`` is not checked against
    its metaschema on every call (a test checks it once).
    """
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(data))
    if error is not None:
        raise error


@functools.cache
def _report_validator():
    from jsonschema.validators import validator_for

    return validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)


# -- rational JSON helpers -----------------------------------------------------


def vec_to_json(v, ctx: Context = EXACT) -> list:
    return [ctx.fmt(x) for x in v]


def mat_to_json(m: Matrix) -> list:
    return [vec_to_json(row, m.ctx) for row in m.rows]


def vec_from_json(data, ctx: Context = EXACT) -> tuple:
    return tuple(ctx.parse(x) for x in data)


def mat_from_json(data, ctx: Context = EXACT) -> Matrix:
    return Matrix(tuple(vec_from_json(row, ctx) for row in data), ctx)


# -- certificates that can be loaded back ----------------------------------------


def witness_to_json(witness) -> dict:
    return {"matrix": mat_to_json(witness.matrix),
            "x_perms": [list(x.perm) for x in witness.x_family],
            "y_perms": [list(y.perm) for y in witness.y_family]}


def witness_from_json(a: StateSpace, b: StateSpace, groups: tuple, data: dict):
    """Rebuild an interaction witness from report JSON.

    Only the perms are checked, as elements of the given groups; the witness
    comes back unverified, and the caller runs ``.verify()``.
    """
    from .interactions import LriWitness
    from .statespace import min_tensor

    ctx = a.ctx
    group_a, group_b = groups
    matrix = mat_from_json(data["matrix"], ctx)
    x_family = tuple(group_a.element_by_perm(tuple(p)) for p in data["x_perms"])
    y_family = tuple(group_b.element_by_perm(tuple(p)) for p in data["y_perms"])
    if any(e is None for e in x_family + y_family):
        raise ValueError("witness families reference unknown group elements")
    return LriWitness(a, b, min_tensor(a, b), matrix, x_family, y_family)


def broadcaster_to_json(pb) -> dict:
    return {"matrix": mat_to_json(pb.matrix), "fixed_side": pb.fixed_side,
            "fixed_index": pb.fixed_index}


def broadcaster_from_json(witness, data: dict):
    """Rebuild a partial broadcaster from report JSON; it comes back
    unverified, and the caller runs ``.verify()``.

    Raises ValueError on a ``fixed_side`` other than "A" or "B" and on a
    ``fixed_index`` that is not a vertex of the fixed factor.
    """
    from .interactions import PartialBroadcaster, _roles

    matrix = mat_from_json(data["matrix"], witness.a_space.ctx)
    fixed_side, fixed_index = data["fixed_side"], data["fixed_index"]
    source, other, element, _ = _roles(witness, fixed_side, fixed_index)
    return PartialBroadcaster(source, other, witness.composite, matrix,
                              fixed_side, fixed_index, element)


def isomorphism_to_json(iso) -> dict:
    return {"matrix": mat_to_json(iso.matrix), "vertex_map": list(iso.vertex_map)}


def isomorphism_from_json(source: StateSpace, target: StateSpace, data: dict):
    """Rebuild a space isomorphism from report JSON (verify separately)."""
    from .decompose import Isomorphism

    matrix = mat_from_json(data["matrix"], source.ctx)
    return Isomorphism(source, target, matrix, tuple(data["vertex_map"]))
