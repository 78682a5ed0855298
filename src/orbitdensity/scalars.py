"""Exact complex-rational scalars.

Membership in the target half-space is decided by a strict inequality on the
real part of an exactly known coefficient, so every scalar that feeds a sign
test is kept as a pair of rationals.  Floating point is confined to norm
estimates, which carry explicit tail certificates instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class Frozen:
    """Base of the checked value types: each sets its ``__slots__`` once in
    ``__init__`` through ``object.__setattr__``, after which assigning or
    deleting a field raises ``AttributeError``.  Instances of the same type
    are equal, and hash alike, when their fields are; no instance equals a
    value of another type, so ``GaussianRational() != 0``.

    A plain class costs a fraction of what ``@dataclass`` spends generating
    code at import, and every run of the package imports it first.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GaussianRational(Frozen):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = Fraction(0), im: Rational = Fraction(0)) -> None:
        # every arithmetic result already holds Fractions; wrap only the rest
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Rational) -> "GaussianRational":
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


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
