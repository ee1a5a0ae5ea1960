"""Resource budgets for the exhaustive searches.

Everything in this library is desk scale, but the exhaustive searches
(the symmetry search behind groups, isomorphisms and interactions, and the
rays of the double-description routine behind facets, faces, vertex checks
and effects) are exponential, so each carries a configurable cap.
Exceeding a cap raises or flags, never silently truncates.
"""

from __future__ import annotations

from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


@dataclass(frozen=True)
class Budgets:
    group_nodes: int = 10**6           # nodes of each symmetry search, the LRI search too
    dd_rays: int = 10**4               # rays held at once by one double-description run


DEFAULT_BUDGETS = Budgets()
