"""Resource budgets for the exhaustive searches.

Everything in this library is desk scale, but the brute-force enumerations
(face subsets, symmetry search, interaction candidates, dual-vertex
combinations) are exponential, so each carries a configurable cap.  Exceeding
a cap raises or flags, never silently truncates.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


@dataclass(frozen=True)
class Budgets:
    face_subsets: int = 2**16          # cap on 2^|V| face-candidate subsets
    group_nodes: int = 10**6           # symmetry search tree nodes
    lri_assignments: int = 10**7       # composite symmetries filtered as LRI candidates
    effect_combinations: int = 10**6   # active-constraint choices for dual vertices

    def with_lri(self, budget: int) -> "Budgets":
        return Budgets(self.face_subsets, self.group_nodes, budget, self.effect_combinations)


DEFAULT_BUDGETS = Budgets()
