"""Weighted backward shift, its inverse-orbit chain, and certified norms.

The operator maps (a0, a1, a2, ...) to w*(a1, a2, a3, ...) on a sequence
space: either the p-summable space for a finite exponent, or the sup-normed
space of null sequences (exponent ``math.inf``).  The weight w is a rational
greater than 1, kept exact so that coefficient-level identities stay exact;
only norms are floating point, and those come with explicit tail
certificates.

The coordinate-0 vector generates a two-sided chain whose span is dense:
the inverse chain at step n is the basis vector at index n scaled by w^(-n)
(and vanishes for negative steps, since the shift annihilates coordinate 0).  The coordinate-0 evaluation
functional pairs to 1 with chain step 0 and to 0 with every other step, so
its support offset set is {0} and the guard radius used downstream is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .scalars import GaussianRational, ZERO


class NormCertificateError(RuntimeError):
    """Raised when a norm is requested without a usable decay certificate."""


@dataclass(frozen=True)
class ShiftOperator:
    """Backward shift scaled by an exact rational weight > 1."""

    weight: Fraction = Fraction(2)
    space_exponent: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", Fraction(self.weight))
        if self.weight_float <= 1:  # the tail constants divide by 1 - w^(-p)
            raise ValueError("weight must exceed 1, also after rounding to a float")
        if not (self.space_exponent >= 1):
            raise ValueError("space exponent must be >= 1 (math.inf for sup norm)")

    @property
    def weight_float(self) -> float:
        return float(self.weight)

    @property
    def is_sup_space(self) -> bool:
        return math.isinf(self.space_exponent)


Span = tuple[int, Optional[int]]  # half-open [start, stop); stop None = unbounded


@dataclass(frozen=True)
class LazyVector:
    """Coordinate sequence given by a pure coefficient function.

    ``spans`` describe where coefficients may be nonzero.  An unbounded span
    needs ``decay`` = (cap, ratio): |coeff(m)| <= cap * ratio^m on it, which
    is the certificate the norm routine turns into a tail bound.
    """

    coeff_fn: Callable[[int], GaussianRational]
    spans: tuple[Span, ...] = ()
    decay: Optional[tuple[float, float]] = None

    def coeff(self, index: int) -> GaussianRational:
        if index < 0:
            return ZERO
        return self.coeff_fn(index)

    @classmethod
    def zero(cls) -> "LazyVector":
        return cls(coeff_fn=lambda m: ZERO, spans=())

    @classmethod
    def basis(cls, index: int, scale: GaussianRational) -> "LazyVector":
        if index < 0:
            raise ValueError("basis index must be >= 0")
        return cls(
            coeff_fn=lambda m, _i=index, _s=scale: _s if m == _i else ZERO,
            spans=((index, index + 1),),
        )

    @classmethod
    def from_coeffs(cls, coeffs: dict[int, GaussianRational]) -> "LazyVector":
        table = {k: v for k, v in coeffs.items() if v}
        if not table:
            return cls.zero()
        lo, hi = min(table), max(table)
        return cls(
            coeff_fn=lambda m, _t=dict(table): _t.get(m, ZERO),
            spans=((lo, hi + 1),),
        )


def chain_vector(op: ShiftOperator, step: int) -> LazyVector:
    """Inverse-orbit chain at ``step``: w^(-step) times the basis vector there.

    Steps below 0 give the zero vector (the shift kills coordinate 0).
    """
    if step < 0:
        return LazyVector.zero()
    scale = GaussianRational(op.weight ** (-step))
    return LazyVector.basis(step, scale)


def functional_eval(vector: LazyVector) -> GaussianRational:
    """Coordinate-0 evaluation functional."""
    return vector.coeff(0)


def apply_power(op: ShiftOperator, vector: LazyVector, n: int) -> LazyVector:
    """Lazy n-th power of the operator: coeff(m) -> w^n * coeff(m + n)."""
    if n < 0:
        raise ValueError("power must be >= 0")
    if n == 0:
        return vector
    scale = GaussianRational(op.weight ** n)
    spans = []
    for start, stop in vector.spans:
        new_stop = None if stop is None else stop - n
        if new_stop is not None and new_stop <= 0:
            continue
        spans.append((max(start - n, 0), new_stop))
    decay = vector.decay
    if decay is not None:
        cap, ratio = decay
        decay = (cap * (op.weight_float * ratio) ** n, ratio)
    return LazyVector(
        coeff_fn=lambda m, _v=vector, _s=scale, _n=n: _s * _v.coeff(m + _n),
        spans=tuple(spans),
        decay=decay,
    )


def tail_constant(op: ShiftOperator, level: int) -> float:
    """Smallest constant bounding weighted sums of chain vectors with indices >= 2^level.

    Negative-step chain vectors vanish, so only indices n >= 2^level
    contribute w^(-n) basis vectors; the extremal weighting is constant on
    the whole tail, giving w^(-2^level) * (1 - w^(-p))^(-1/p) for a finite
    exponent p and w^(-2^level) for the sup norm.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    w = op.weight_float
    head = w ** -(2 ** level)
    if op.is_sup_space:
        return head
    p = op.space_exponent
    return head * (1.0 - w ** -p) ** (-1.0 / p)


@dataclass(frozen=True)
class NormEstimate:
    """Certified norm bracket: the true norm lies in [value, value + tail_bound]."""

    value: float
    tail_bound: float

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


def _tail_cutoff(cap: float, ratio: float, factor: float, start: int,
                 tail_tol: float) -> int:
    """Smallest M >= start-1 with cap * factor * ratio^(M+1) <= tail_tol."""
    if cap == 0.0:
        return start - 1
    if tail_tol <= 0.0:
        raise ValueError("tail_tol must be positive for an unbounded span")
    m = start - 1
    bound = cap * factor * ratio ** (m + 1)
    while bound > tail_tol:
        m += 1
        bound *= ratio
    return m


def vector_norm(op: ShiftOperator, vector: LazyVector,
                tail_tol: float = 1e-12) -> NormEstimate:
    """Space norm with a certified truncation tail.

    Bounded spans are summed exactly (in floating point); an unbounded span
    is scanned until its certified geometric remainder drops below
    ``tail_tol``.  Raises NormCertificateError when an unbounded span has no
    decay certificate.
    """
    p = op.space_exponent
    sup = op.is_sup_space
    acc = 0.0
    tail = 0.0

    def add(index: int) -> None:
        nonlocal acc
        sq = float(vector.coeff(index).abs_sq())
        if sq == 0.0:
            return
        if sup:
            acc = max(acc, math.sqrt(sq))
        elif p == 2.0:
            acc += sq
        else:
            acc += sq ** (p / 2.0)

    for start, stop in vector.spans:
        start = max(start, 0)
        if stop is not None:
            for m in range(start, stop):
                add(m)
            continue
        if vector.decay is None:
            raise NormCertificateError("unbounded span without decay certificate")
        cap, ratio = vector.decay
        if not 0.0 <= ratio < 1.0:
            raise NormCertificateError("decay ratio must lie in [0, 1)")
        factor = 1.0 if sup else (1.0 - ratio ** p) ** (-1.0 / p)
        cutoff = _tail_cutoff(cap, ratio, factor, start, tail_tol)
        for m in range(start, cutoff + 1):
            add(m)
        tail += cap * factor * ratio ** (cutoff + 1)

    value = acc if sup else acc ** (1.0 / p)
    return NormEstimate(value=value, tail_bound=tail)


def check_tail_bound(op: ShiftOperator, level: int, indices: Sequence[int],
                     weights: Sequence[complex], rel_slack: float = 1e-9) -> bool:
    """Whether the weighted chain sum over ``indices`` obeys the tail constant.

    Indices below 0 contribute nothing (their chain vectors vanish) and are
    dropped; the remaining ones must be >= 2^level.  The weighted sum's norm
    is compared against tail_constant * max|weight| with a small relative
    slack for floating roundoff.
    """
    if len(indices) != len(weights):
        raise ValueError("indices and weights must align")
    floor = 2 ** level
    kept = [(n, w) for n, w in zip(indices, weights) if n >= 0]
    if any(abs(n) < floor for n in indices):
        raise ValueError(f"all indices must satisfy |n| >= {floor}")
    if not kept:
        return True
    w = op.weight_float
    max_weight = max(abs(b) for _, b in kept)
    if op.is_sup_space:
        value = max(abs(b) * w ** (-n) for n, b in kept)
    else:
        p = op.space_exponent
        value = sum(abs(b) ** p * w ** (-n * p) for n, b in kept) ** (1.0 / p)
    bound = tail_constant(op, level) * max_weight
    return value <= bound * (1.0 + rel_slack) + 1e-300


def verify_chain_spans(op: ShiftOperator, max_step: int) -> bool:
    """Triangularity of the chain: step n first hits coordinate n, nonzero there.

    This shows the chain steps 0..max_step span the first max_step+1
    coordinates.
    """
    if max_step < 0:
        raise ValueError("max_step must be >= 0")
    for n in range(max_step + 1):
        vec = chain_vector(op, n)
        if not vec.coeff(n):
            return False
        if any(vec.coeff(m) for m in range(n)):
            return False
    return True
