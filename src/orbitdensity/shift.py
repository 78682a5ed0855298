"""Weighted backward shift: the operator facts the certificate reads.

The operator maps (a0, a1, a2, ...) to w*(a1, a2, a3, ...) on a sequence
space: either the p-summable space for a finite exponent, or the sup-normed
space of null sequences (exponent ``math.inf``).  The weight w is a rational
greater than 1, kept exact so that coefficient-level identities stay exact;
only norms are floating point, and those come with explicit tail
certificates.  Each norm quantity has one formula, the p-summable one: c0
is p = inf, where IEEE pow (w^-inf = 0, r^inf = 0 for r < 1, s^0 = 1)
turns it into the sup-norm value exactly.

A vector is its coefficient function on the coordinates m >= 0.  The
certificate reads the tail constants eps(s) behind the unconditional sums
of the Frequent Hypercyclicity Criterion (``tail_constant``) and certified
upper bounds on norms (``vector_norm``).  For x(m) = b(m)*w^(-m),
coordinate 0 of T^n x is w^n*x(n) = b(n), which the verdict reads as
``expansion_coefficient``.

The coordinate-0 vector generates a two-sided chain whose span is dense:
the inverse chain at step n is the basis vector at index n scaled by w^(-n)
(and vanishes for negative steps, since the shift annihilates coordinate 0).
The coordinate-0 evaluation functional pairs to 1 with chain step 0 and to 0
with every other step, so its support offset set is {0} and the guard radius
used downstream is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional

from .scalars import Frozen, GaussianRational


class ShiftOperator(Frozen):
    """Backward shift scaled by an exact rational weight > 1."""

    __slots__ = ("weight", "space_exponent")

    def __init__(self, weight: Fraction = Fraction(2), space_exponent: float = 2.0) -> None:
        object.__setattr__(self, "weight", Fraction(weight))
        object.__setattr__(self, "space_exponent", space_exponent)
        try:
            weight_float = self.weight_float
        except OverflowError:  # float() of a huge Fraction raises, not inf
            raise ValueError("weight must not overflow a float") from None
        if weight_float <= 1:  # the tail constants divide by 1 - w^(-p)
            raise ValueError("weight must exceed 1, also after rounding to a float")
        if not (self.space_exponent >= 1):
            raise ValueError("space exponent must be >= 1 (math.inf for sup norm)")

    @property
    def weight_float(self) -> float:
        return float(self.weight)


Coeffs = Callable[[int], GaussianRational]  # coordinate m >= 0 -> coefficient


def tail_constant(op: ShiftOperator, level: int) -> float:
    """Smallest constant bounding weighted sums of chain vectors with indices >= 2^level.

    Negative-step chain vectors vanish, so only indices n >= 2^level
    contribute w^(-n) basis vectors; the extremal weighting is constant on
    the whole tail, giving w^(-2^level) * (1 - w^(-p))^(-1/p).  One formula
    serves every space: in c0, p = inf and IEEE pow makes the factor
    (1 - 0)^(-0) = 1.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    # 2^level converts to a float exactly when level < 1024; checking the
    # level first never builds the exact int of a huge level
    if level >= 1024:
        raise ValueError(f"tail constant at level {level}: 2^{level} exceeds the "
                         "float range")
    w, p = op.weight_float, op.space_exponent
    return w ** -(2 ** level) * (1.0 - w ** -p) ** (-1.0 / p)


def _modulus(square) -> float:
    """sqrt(square) for an exact square (a rational, or a float), scaled so no
    nonzero square underflows: the quotient num / den is rescaled by 4^-k into
    [1/2, 4) with exact shifts, and the root is scaled back by 2^k.  In the
    normal float range this is bit-identical to sqrt(float(square))."""
    num, den = square.as_integer_ratio()
    k = (num.bit_length() - den.bit_length()) // 2
    scaled = num / (den << 2 * k) if k >= 0 else (num << -2 * k) / den
    return math.ldexp(math.sqrt(scaled), k)


def vector_norm(op: ShiftOperator, vector: Coeffs, start: int,
                stop: Optional[int] = None, *,
                decay: Optional[tuple[float, float]] = None,
                tail_tol: float = 1e-12) -> float:
    """Certified upper bound on the space norm of the coordinates from ``start`` on.

    The caller states where the vector may be nonzero.  A bounded range
    [start, stop) is summed exactly (in floating point), and the bound is
    that sum.  With ``stop=None`` the coordinates run on forever and
    ``decay`` = (cap, ratio) must certify |vector(m)| <= cap * ratio^m for
    m >= start; the geometric remainder cap * (1 - ratio^p)^(-1/p) * ratio^m
    is stepped from m = start until it drops to ``tail_tol``, and the bound
    is the sum below that m plus that remainder.  The sum is
    top * (sum (|x| / top)^p)^(1/p) over the nonzero moduli |x|, top the
    largest: its largest term is 1, so no large p underflows it to 0, and
    in c0 (p = inf) it is top, the sup norm.  Zero coordinates are skipped,
    and each modulus comes from the exact square (``_modulus``), so a nonzero
    coordinate whose square underflows a float still counts.
    Raises ValueError when an unbounded range has no usable certificate.
    """
    p = op.space_exponent
    tail = 0.0
    if stop is None:
        if decay is None:
            raise ValueError("unbounded range without decay certificate")
        cap, ratio = decay
        if not 0.0 <= ratio < 1.0:
            raise ValueError("decay ratio must lie in [0, 1)")
        if tail_tol <= 0.0:
            raise ValueError("tail_tol must be positive for an unbounded span")
        stop, tail = start, cap * (1.0 - ratio ** p) ** (-1.0 / p) * ratio ** start
        while tail > tail_tol:
            stop, tail = stop + 1, tail * ratio

    moduli = [_modulus(value.abs_sq()) for value in map(vector, range(start, stop)) if value]
    top = max(moduli, default=0.0)
    if top == 0.0:
        return tail
    return top * sum((x / top) ** p for x in moduli) ** (1.0 / p) + tail
