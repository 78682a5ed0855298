"""Finite-horizon density statistics for sets of positive integers.

The true lower and upper densities of an integer set are limits along the
whole horizon; at desk scale we sample exact counting ratios at a list of
checkpoints.  Every ratio is an exact rational so that later comparisons
against rational limit values are decided without rounding; the callers
read liminf and limsup *estimates* off the rows they trust.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence


class DensityReport(NamedTuple):
    """Exact counting ratios count(n)/n of a set at increasing checkpoints n.

    No finite sample certifies a liminf or limsup, so the report holds the
    ratios only; each caller picks the rows it reads as estimates.
    """

    checkpoints: tuple[int, ...]
    counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]

    CSV_HEADER = ("checkpoint", "count", "ratio_num", "ratio_den", "ratio_float")

    def rows(self) -> list[tuple[int, int, int, int, float]]:
        return [
            (n, c, r.numerator, r.denominator, float(r))
            for n, c, r in zip(self.checkpoints, self.counts, self.ratios)
        ]


def density_ratios(count: Callable[[int], int], checkpoints: Sequence[int]) -> DensityReport:
    """Exact ratios count(n)/n at each checkpoint n.

    ``count(n)`` is the number of set members in [1, n] and is called once
    per checkpoint; ``checkpoints`` must be strictly increasing.
    """
    if not checkpoints:
        raise ValueError("checkpoint list must be non-empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    counts = tuple(count(n) for n in checkpoints)
    ratios = tuple(Fraction(c, n) for c, n in zip(counts, checkpoints))
    return DensityReport(checkpoints=tuple(checkpoints), counts=counts, ratios=ratios)

