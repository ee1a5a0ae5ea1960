"""Resource budgets for the exhaustive searches.

Everything in this library is desk scale, but the exhaustive searches
(symmetry search, interaction candidates, active sets of the vertex routine
behind facets, faces and effects) are exponential, so each carries a
configurable cap.  Exceeding a cap raises or flags, never silently
truncates.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


@dataclass(frozen=True)
class Budgets:
    group_nodes: int = 10**6           # symmetry search tree nodes
    lri_assignments: int = 10**7       # composite symmetries filtered as LRI candidates
    active_sets: int = 10**6           # tight-constraint choices tried per vertex enumeration


DEFAULT_BUDGETS = Budgets()
