"""Finite-horizon density statistics for sets of positive integers.

The true lower and upper densities of an integer set are limits along the
whole horizon; at desk scale we sample exact counting ratios at a list of
checkpoints and report the min and max over a tail window as *estimates* of
liminf and limsup.  Every ratio is an exact rational so that later
comparisons against rational limit values are decided without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


@dataclass(frozen=True)
class DensityReport:
    """Exact counting ratios of a set at increasing checkpoints.

    ``running_min``/``running_max`` are min/max ratios over the last
    ``tail_window`` checkpoints: finite-horizon stand-ins for liminf and
    limsup, labeled as estimates because no finite sample can certify the
    limits themselves.
    """

    checkpoints: tuple[int, ...]
    counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    tail_window: int
    running_min: Fraction
    running_max: Fraction

    CSV_HEADER = ("checkpoint", "count", "ratio_num", "ratio_den", "ratio_float")

    def rows(self) -> list[tuple[int, int, int, int, float]]:
        return [
            (n, c, r.numerator, r.denominator, float(r))
            for n, c, r in zip(self.checkpoints, self.counts, self.ratios)
        ]


def density_ratios(count: Callable[[int], int], checkpoints: Sequence[int],
                   tail_window: int | None = None) -> DensityReport:
    """Exact ratios count(n)/n at each checkpoint n.

    ``count(n)`` is the number of set members in [1, n]; ``checkpoints``
    must be strictly increasing; ``tail_window`` defaults to the whole list.
    """
    if not checkpoints:
        raise ValueError("checkpoint list must be non-empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    counts = tuple(count(n) for n in checkpoints)
    ratios = tuple(Fraction(c, n) for c, n in zip(counts, checkpoints))
    window = len(ratios) if tail_window is None else max(1, min(tail_window, len(ratios)))
    tail = ratios[-window:]
    return DensityReport(
        checkpoints=tuple(checkpoints),
        counts=counts,
        ratios=ratios,
        tail_window=window,
        running_min=min(tail),
        running_max=max(tail),
    )

