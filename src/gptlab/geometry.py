"""Convex-polytope combinatorics: faces, the face lattice and joins.

A face is identified with the set of vertex indices on which some covector
attains its maximum; the empty set and the full set are faces by convention.
Enumeration is deliberately brute force over vertex subsets (these polytopes
have at most ~20 vertices) and is capped by a configurable guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .arith import EXACT, Context
from .config import BudgetExceededError, DEFAULT_BUDGETS, Budgets
from .linalg import Vector
from .lp import HullMembership, in_hull, supporting_covector

__all__ = [
    "Face",
    "FaceLattice",
    "in_hull",
    "HullMembership",
    "is_face",
    "face_lattice",
    "join",
]


@dataclass(frozen=True)
class Face:
    """A face of a vertex list, as a sorted duplicate-free index tuple."""

    indices: tuple
    covector: Optional[tuple] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.indices)

    def __le__(self, other: "Face") -> bool:
        return set(self.indices) <= set(other.indices)

    def sort_key(self) -> tuple:
        return (len(self.indices), self.indices)


def is_face(gens: Sequence[Vector], subset, ctx: Context = EXACT):
    """Decide the face condition for a vertex-index subset.

    Returns (verdict, covector).  The covector certifies a positive verdict:
    its maximum over gens is attained exactly on the subset.  The empty set
    is a face by convention (certificate None).
    """
    idx = frozenset(subset)
    if any(i < 0 or i >= len(gens) for i in idx):
        raise ValueError("subset indices out of range")
    if not idx:
        return True, None
    h = supporting_covector(gens, idx, ctx)
    if h is None:
        return False, None
    return True, h


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a polytope, ordered by inclusion, with a join table."""

    gens: tuple
    faces: tuple  # sorted by (cardinality, index tuple)
    ctx: Context = field(default=EXACT, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {f.indices: k for k, f in enumerate(self.faces)})

    def __len__(self) -> int:
        return len(self.faces)

    def __contains__(self, face) -> bool:
        indices = face.indices if isinstance(face, Face) else tuple(sorted(face))
        return indices in self._index

    def index_of(self, face) -> int:
        indices = face.indices if isinstance(face, Face) else tuple(sorted(face))
        return self._index[indices]

    def face_for(self, indices) -> Face:
        return self.faces[self.index_of(indices)]

    @property
    def bottom(self) -> Face:
        return self.faces[0]

    @property
    def top(self) -> Face:
        return self.faces[-1]

    def counts_by_cardinality(self) -> dict:
        out: dict = {}
        for f in self.faces:
            out[len(f)] = out.get(len(f), 0) + 1
        return out


def face_lattice(gens: Sequence[Vector], ctx: Context = EXACT,
                 budgets: Budgets = DEFAULT_BUDGETS) -> FaceLattice:
    """Enumerate every face of conv(gens) by supporting-functional search.

    Deterministic: faces come out sorted by (cardinality, lex index set).
    Raises BudgetExceededError when 2^|gens| exceeds the configured cap.
    """
    n = len(gens)
    if not n:
        raise ValueError("empty generator list")
    if 2 ** n > budgets.face_subsets:
        raise BudgetExceededError(
            f"face enumeration needs 2^{n} subsets, cap is {budgets.face_subsets}"
        )
    faces = [Face(())]
    full = tuple(range(n))
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            ok, h = is_face(gens, combo, ctx)
            if ok:
                faces.append(Face(tuple(combo), h))
    faces.append(Face(full, tuple(ctx.zero() for _ in gens[0])))
    faces.sort(key=Face.sort_key)
    return FaceLattice(tuple(tuple(g) for g in gens), tuple(faces), ctx)


def join(lattice: FaceLattice, f1: Face, f2: Face) -> Face:
    """Minimal face containing both: the meet of all common upper bounds."""
    if f1 not in lattice or f2 not in lattice:
        raise ValueError("faces do not belong to this lattice")
    union = set(f1.indices) | set(f2.indices)
    best = set(lattice.top.indices)
    for f in lattice.faces:
        fset = set(f.indices)
        if union <= fset:
            best &= fset
    return lattice.face_for(tuple(sorted(best)))
