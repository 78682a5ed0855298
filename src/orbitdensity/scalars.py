"""Exact complex-rational scalars.

Membership in the target half-space is decided by a strict inequality on the
real part of an exactly known coefficient, so every scalar that feeds a sign
test is kept as a pair of rationals.  Floating point is confined to norm
estimates, which carry explicit tail certificates instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # every arithmetic result already holds Fractions; wrap only the rest
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other: object) -> bool:
        """Equal parts, tested by identity first, which settles the shared
        ``ZERO``; any other type is ``NotImplemented``, so
        ``GaussianRational() != 0``.  The dataclass still hashes (re, im)."""
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Union["GaussianRational", Rational]) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def re_positive(self) -> bool:
        """Re > 0, read off the numerator: a ``Fraction`` keeps its
        denominator positive, so this is the exact rational test without
        ``Fraction.__gt__``'s generic dispatch."""
        return self.re.numerator > 0

    def abs_sq(self) -> Fraction:
        """Exact squared modulus; used for all magnitude comparisons."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
IMAG_UNIT = GaussianRational(Fraction(0), Fraction(1))
