"""Rational generating functions and truncated dimension sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


@dataclass(frozen=True)
class GradedDims:
    """Dimension per degree, indices 0..bound."""

    bound: int
    dims: tuple

    def __post_init__(self):
        if len(self.dims) != self.bound + 1:
            raise ValueError("dims must have bound+1 entries")
        if any(d < 0 for d in self.dims):
            raise ValueError("dimensions must be nonnegative")

    def __getitem__(self, d: int) -> int:
        return self.dims[d]

    def add(self, other: "GradedDims") -> "GradedDims":
        bound = min(self.bound, other.bound)
        return GradedDims(bound, tuple(self[d] + other[d] for d in range(bound + 1)))


@dataclass(frozen=True)
class PowerSeriesRat:
    """Quotient of integer polynomials, stored low-degree first.

    The expansion is integral whenever the denominator has constant term
    +-1, which is the only case `expand` accepts.
    """

    numerator: tuple
    denominator: tuple

    @classmethod
    def make(cls, numerator: Iterable, denominator: Iterable = (1,)) -> "PowerSeriesRat":
        num, den = _trim(list(numerator)), _trim(list(denominator))
        if not den:
            raise ZeroDivisionError("zero denominator")
        return cls(num, den)

    @classmethod
    def monomial_pair(cls, c0: int, exp: int, c1: int) -> "PowerSeriesRat":
        """The polynomial c0 + c1 * t^exp."""
        coeffs = [0] * (exp + 1)
        coeffs[0] = c0
        coeffs[exp] += c1
        return cls.make(coeffs)

    def __add__(self, other: "PowerSeriesRat") -> "PowerSeriesRat":
        num = _poly_add(
            _poly_mul(self.numerator, other.denominator),
            _poly_mul(other.numerator, self.denominator),
        )
        return PowerSeriesRat.make(num, _poly_mul(self.denominator, other.denominator))

    def __mul__(self, other) -> "PowerSeriesRat":
        if isinstance(other, int):
            other = PowerSeriesRat.make([other])
        return PowerSeriesRat.make(
            _poly_mul(self.numerator, other.numerator),
            _poly_mul(self.denominator, other.denominator),
        )

    __rmul__ = __mul__

    def same_function(self, other: "PowerSeriesRat") -> bool:
        """Equality as rational functions (cross multiplication)."""
        return _poly_mul(self.numerator, other.denominator) == _poly_mul(
            other.numerator, self.denominator
        )

    def coefficients(self, bound: int) -> tuple:
        """Raw expansion coefficients; requires a unit constant term."""
        den = self.denominator
        if not den or den[0] not in (1, -1):
            raise ValueError("denominator constant term must be a unit")
        lead = den[0]
        coeffs = []
        for d in range(bound + 1):
            acc = self.numerator[d] if d < len(self.numerator) else 0
            for k in range(1, min(d, len(den) - 1) + 1):
                acc -= den[k] * coeffs[d - k]
            coeffs.append(acc // lead)
        return tuple(coeffs)


def series_equal(a: PowerSeriesRat, b: PowerSeriesRat, bound: int) -> bool:
    """Coefficient-wise equality of the truncated expansions."""
    return a.coefficients(bound) == b.coefficients(bound)


def geometric(exp: int) -> PowerSeriesRat:
    """1 / (1 - t^exp), the series of a polynomial generator."""
    den = [0] * (exp + 1)
    den[0], den[exp] = 1, -1
    return PowerSeriesRat.make([1], den)


def one_plus(exp: int) -> PowerSeriesRat:
    """1 + t^exp, the series of an exterior generator."""
    return PowerSeriesRat.monomial_pair(1, exp, 1)


# name -> p -> (label, series): the closed forms the paper states, with
# the labels `spinelab coh series` prints
CLOSED_FORMS = {
    # H* of a stabilizer whose Sylow-3 subgroup has order 3
    "sigma3": lambda p: ("(1+t^3)/(1-t^4)", one_plus(3) * geometric(4)),
    # the equalizer of the two restrictions at the K33 edge
    "equalizer": lambda p: (
        "(1+t^3)(1+2t^7+t^8)/((1-t^4)(1-t^8))",
        one_plus(3)
        * PowerSeriesRat.make([1, 0, 0, 0, 0, 0, 0, 2, 1])
        * geometric(4)
        * geometric(8),
    ),
    # sigma3 + equalizer, summed in closed form
    "sigma3+equalizer": lambda p: (
        "2(1+t^3)(1+t^7)/((1-t^4)(1-t^8))",
        2 * one_plus(3) * one_plus(7) * geometric(4) * geometric(8),
    ),
    # H* of the metacyclic group Z/p x| Z/(p-1)
    "metacyclic": lambda p: (
        f"(1+t^{2 * p - 3})/(1-t^{2 * p - 2})",
        one_plus(2 * p - 3) * geometric(2 * p - 2),
    ),
}


def closed_form(name: str, p: int = 3) -> PowerSeriesRat:
    """The series of one ``CLOSED_FORMS`` entry."""
    return CLOSED_FORMS[name](p)[1]
