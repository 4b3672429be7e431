"""Scalar fields, finite sequence-space descriptors, and exponent arithmetic.

Exponents live in reciprocal space: an :class:`Exponent` stores ``1/s`` as an
exact :class:`fractions.Fraction`, with ``Fraction(0)`` encoding ``s = inf``.
The linear exponent identities used throughout the package (duality,
interpolation, summability defects) are then exact instead of holding only up
to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Union

import numpy as np

__all__ = [
    "ScalarField",
    "Exponent",
    "ExponentLike",
    "INF",
    "SpaceSpec",
    "ExponentTuple",
    "ConstantsConfig",
    "dual_exponent",
    "interpolation_exponents",
]


class ScalarField(Enum):
    """Real or complex scalars. Complex values are (re, im) pairs on the wire."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def is_complex(self) -> bool:
        return self is ScalarField.COMPLEX

    def __str__(self) -> str:
        return self.value


@total_ordering
@dataclass(frozen=True)
class Exponent:
    """An exponent s in (0, inf], stored as the exact reciprocal 1/s.

    ``recip == 0`` encodes infinity, so ``1/inf == 0`` holds by construction
    and no caller has to special-case sup norms.
    """

    recip: Fraction

    def __post_init__(self):
        if not isinstance(self.recip, Fraction):
            object.__setattr__(self, "recip", Fraction(self.recip))
        if self.recip < 0:
            raise ValueError(f"exponent reciprocal must be >= 0, got {self.recip}")
        # the float is read in every norm kernel; compute it once
        try:
            value = math.inf if self.recip == 0 else float(1 / self.recip)
        except OverflowError:
            raise ValueError("exponent too large for a float; use inf") from None
        object.__setattr__(self, "_value", value)

    @classmethod
    def of(cls, s: "ExponentLike") -> "Exponent":
        """Coerce a number, fraction string such as ``"4/3"``, or ``"inf"``."""
        if isinstance(s, Exponent):
            return s
        if isinstance(s, str):
            text = s.strip().lower()
            if text in ("inf", "infinity"):
                return INF
            value = Fraction(text)
        elif isinstance(s, float):
            if math.isnan(s):
                raise ValueError("exponent must not be NaN")
            if math.isinf(s):
                return INF
            value = Fraction(s)
        else:
            value = Fraction(s)
        if value <= 0:
            raise ValueError(f"exponent must be positive, got {s!r}")
        return cls(1 / value)

    @property
    def is_inf(self) -> bool:
        return self._value == math.inf

    @property
    def value(self) -> float:
        return self._value

    @cached_property
    def dual(self) -> "Exponent":
        """The conjugate exponent s' with 1/s + 1/s' = 1; requires s >= 1."""
        if self.recip > 1:
            raise ValueError(f"dual exponent is defined for s >= 1, got {self}")
        return Exponent(1 - self.recip)

    def __float__(self) -> float:
        return self.value

    def __lt__(self, other) -> bool:
        return self.recip > Exponent.of(other).recip

    def to_json(self) -> int | str | float:
        """The JSON value: "inf", an integer, "n/d" with d <= 10000, or a float."""
        if self.is_inf:
            return "inf"
        v = 1 / self.recip
        if v.denominator == 1:
            return v.numerator
        if v.denominator <= 10_000:
            return f"{v.numerator}/{v.denominator}"
        return float(v)

    def __str__(self) -> str:
        return str(self.to_json())


ExponentLike = Union[Exponent, int, float, str, Fraction]

#: Infinity as a first-class exponent (models c0 / sup norms at finite dim).
INF = Exponent(Fraction(0))


def dual_exponent(s: ExponentLike) -> Exponent:
    """Return s' with 1/s + 1/s' = 1. The dual of 1 is inf and vice versa."""
    return Exponent.of(s).dual


def interpolation_exponents(theta) -> tuple[Exponent, Exponent]:
    """Exponent pair of the interpolation scale between (1;2) and (2;1).

    Returns (p, q) with 1/p = (1-theta) + theta/2 and 1/q = (1-theta)/2 + theta,
    which satisfy 1/q = 1/2 + 1/p' identically. theta = 1/2 gives p = q = 4/3.
    """
    t = Fraction(theta)
    if not 0 <= t <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    rp = (1 - t) + t / 2
    rq = (1 - t) / 2 + t
    return Exponent(rp), Exponent(rq)


@dataclass(frozen=True)
class SpaceSpec:
    """A finite sequence space l_s^m: dimension plus norm exponent (inf = sup)."""

    dim: int
    exponent: Exponent

    def __post_init__(self):
        object.__setattr__(self, "exponent", Exponent.of(self.exponent))
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.exponent.recip > 1:
            raise ValueError(f"space exponent must satisfy s >= 1, got {self.exponent}")

    @classmethod
    def linf(cls, dim: int) -> "SpaceSpec":
        return cls(dim, INF)

    @classmethod
    def lp(cls, dim: int, s: ExponentLike) -> "SpaceSpec":
        return cls(dim, Exponent.of(s))

    @property
    def is_sup(self) -> bool:
        return self.exponent.is_inf

    def __str__(self) -> str:
        return f"l_{self.exponent}^{self.dim}"


@dataclass(frozen=True)
class ExponentTuple:
    """A summing signature (p; q_1, ..., q_n), optionally tagged with theta.

    Validity requires 1/p <= sum_i 1/q_i, checked exactly in reciprocal space.
    """

    p: Exponent
    qs: tuple[Exponent, ...]
    theta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", Exponent.of(self.p))
        object.__setattr__(self, "qs", tuple(Exponent.of(q) for q in self.qs))
        if not self.qs:
            raise ValueError("at least one inner exponent is required")
        if self.p.recip > sum(q.recip for q in self.qs):
            raise ValueError(
                f"summing validity requires 1/p <= sum(1/q_i); got {self}"
            )
        if self.theta is not None and not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta!r}")

    @property
    def n(self) -> int:
        return len(self.qs)

    def defect(self) -> Fraction:
        """sum_i 1/q_i - 1/p, exact. The quantity the inclusion arithmetic compares."""
        return sum(q.recip for q in self.qs) - self.p.recip

    def __str__(self) -> str:
        inner = ", ".join(str(q) for q in self.qs)
        return f"({self.p}; {inner})"


@dataclass(frozen=True)
class ConstantsConfig:
    """Best published constants and the relative slack for heuristic norms.

    The Grothendieck constants are configuration, not code constants: only
    upper bounds are known, and the defaults are the published ones.
    """

    kg_real: float = 1.78221
    kg_complex: float = 1.40491
    littlewood_real: float = math.sqrt(2.0)
    tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("kg_real", "kg_complex", "littlewood_real", "tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.kg_complex >= math.sqrt(2.0):
            raise ValueError("the complex Grothendieck bound must be < sqrt(2)")

    def kg(self, field: ScalarField) -> float:
        return self.kg_complex if field.is_complex else self.kg_real

    def littlewood(self, field: ScalarField) -> float:
        return self.kg_complex if field.is_complex else self.littlewood_real
