"""Scalar arithmetic contexts: exact rationals by default, floats on request.

All coordinates in the library are either ``fractions.Fraction`` (exact mode)
or ``float`` (approximate mode).  A :class:`Context` bundles the comparison
predicates so that the geometry code never has to know which mode it runs in.
Exact mode never rounds; float mode compares up to a configurable epsilon and
exists only for state spaces that have no rational embedding (e.g. regular
pentagons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Context:
    """Arithmetic mode shared by every object of one computation."""

    mode: str  # "exact" | "float"
    eps: float = 0.0

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown arithmetic mode {self.mode!r}")
        if self.mode == "float" and not 0 < self.eps < math.inf:
            raise ValueError(f"float mode needs a finite positive epsilon, got {self.eps!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    def zero(self) -> Scalar:
        return ZERO if self.exact else 0.0

    def one(self) -> Scalar:
        return ONE if self.exact else 1.0

    def num(self, value) -> Scalar:
        """Coerce ints, strings ("p/q") and scalars into this context."""
        if self.exact:
            if isinstance(value, float):
                raise TypeError("floats are not allowed in exact mode; pass a Fraction or 'p/q' string")
            return Fraction(value)
        return float(Fraction(value)) if isinstance(value, str) else float(value)

    def is_zero(self, x: Scalar) -> bool:
        return x == 0 if self.exact else abs(x) <= self.eps

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b if self.exact else abs(a - b) <= self.eps

    def lt(self, a: Scalar, b: Scalar) -> bool:
        """Strict comparison; in float mode 'strict' means beyond epsilon."""
        return a < b if self.exact else b - a > self.eps

    def sign(self, x: Scalar) -> int:
        if self.is_zero(x):
            return 0
        return 1 if x > 0 else -1

    def key(self, x: Scalar):
        """Hashable canonical key (floats are quantized by eps)."""
        if self.exact:
            return x
        return round(x / self.eps) if self.eps else x

    def fmt(self, x: Scalar) -> str:
        return str(x) if self.exact else repr(x)

    def parse(self, text: str) -> Scalar:
        """Read one coordinate (an integer or a 'p/q' string, or a float in float
        mode); ValueError if malformed."""
        if isinstance(text, bool) or (self.exact and isinstance(text, float)):
            raise ValueError(f"not a rational coordinate: {text!r} "
                             "(write an integer or a 'p/q' string)")
        try:
            frac = Fraction(text)
        except (TypeError, ZeroDivisionError):
            raise ValueError(f"not a rational coordinate: {text!r}") from None
        return frac if self.exact else float(frac)


EXACT = Context("exact")


def float_context(eps: float = 1e-9) -> Context:
    return Context("float", eps)
