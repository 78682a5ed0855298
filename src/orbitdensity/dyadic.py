"""Dyadic placement sets with a two-limit density oscillation.

The positive integers from 2 on are covered by the dyadic ranges
[2^j, 2^(j+1)).  Splitting each range into successive halves gives, for every
level s >= 1 and scale j >= s, the half-open strip

    strip(s, j) = [2^(j+1) - 2^(j-s+1), 2^(j+1) - 2^(j-s)),

of width 2^(j-s); strips with distinct (level, scale) never overlap.  The
*sites* of level s inside a strip are the multiples of the alignment modulus
2^(s+1+p) lying at least one modulus away from the strip boundary, defined
for scales j >= 2s+p+2 so that the strip is wide enough to contain some.

The *site set* of level s keeps only the scales j with j mod 5 in {0, 2}.
Its members, and those of any two levels, are separated by at least the
larger alignment modulus, which is what makes the later vector assembly
non-interfering.  The kept scales carry a dyadically weighted mass whose
normalized partial sums converge to different rational limits (denominator
31) along the two residue classes, so the counting ratio of a site set
oscillates forever between two distinct values along the checkpoint
horizons 2^(q+1).

A level's sites at one scale are one ``range``, worked out two ways:
``strip_sites`` reads it off ``strip`` and ``SeparationParams``, and
``site_window`` off the strip's bit form and p alone, so the two compare with
``==``.  ``_site_ranges`` yields the strip route's ranges (behind
``site_members``, ``count_sites``, ``first_site`` and ``verify_separation``);
the window route is the point test ``in_site_set``, range membership in the
window of n's scale, ``aligned_sites``, which clips each scale's window to
[lo, hi], and ``expansion_coefficient``, which reads the window at the bit
length of the index it is asked for, shrunk by half a modulus at each end.

Everything here is exact integer/rational arithmetic; per-scale counts use
closed-form range arithmetic so horizons near 2^33 stay cheap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, pairwise
from typing import Iterator, NamedTuple, Optional

from .scalars import Frozen

SCALE_PERIOD = 5
SELECTED_RESIDUES = (0, 2)

CLASS1 = "CLASS1"  # checkpoint exponents q = 0 (mod 5)
CLASS2 = "CLASS2"  # checkpoint exponents q = 2 (mod 5)


def scale_selected(scale: int) -> bool:
    """True when the scale survives the residue filter."""
    return scale >= 0 and scale % SCALE_PERIOD in SELECTED_RESIDUES


#: L(r), the limit of the normalized mass S(a, b) as b grows along b = r
#: (mod 5): 2^5/(2^5 - 1) times the sum of 2^(-t) over t in 0..4 with r - t
#: selected.  S(a, b) = L(b mod 5) - 2^(a-b) * L(a mod 5) for every
#: 0 <= a < b, so the largest limit is the supremum of S.
_MASS_LIMITS = tuple(Fraction(2 ** SCALE_PERIOD, 2 ** SCALE_PERIOD - 1) * sum(
    Fraction(1, 2 ** t) for t in range(SCALE_PERIOD) if scale_selected((r - t) % SCALE_PERIOD))
    for r in range(SCALE_PERIOD))
MASS_SUP_BOUND = max(_MASS_LIMITS)


def min_alignment_exponent(d: int) -> int:
    """Smallest p >= 1 with 2^(s+1+p) >= 2^(s+1) + 2d + 1 for every s >= 1.

    The gap 2^(s+1)(2^p - 1) grows with s, so s = 1 binds: 2^(p+2) > 2d + 4,
    that is p + 2 >= (2d + 4).bit_length().
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return max(1, (2 * d + 4).bit_length() - 2)


class SeparationParams(Frozen):
    """Global constants of the construction.

    ``d`` is the guard radius around the functional's support and ``p`` the
    alignment exponent.  Admissible parameters satisfy
    2^(s+1+p) >= 2^(s+1) + 2d + 1 for all s >= 1 (s = 1 suffices); the
    constructor only enforces shape so that deliberately inadmissible values
    can be fed to the verifiers, which then report the failing condition.
    """

    __slots__ = ("d", "p")

    def __init__(self, d: int = 1, p: int = 1) -> None:
        if d < 1:
            raise ValueError("d must be >= 1")
        if p < 0:
            raise ValueError("p must be >= 0")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", p)

    @classmethod
    def with_min_p(cls, d: int) -> "SeparationParams":
        return cls(d=d, p=min_alignment_exponent(d))

    def is_admissible(self) -> bool:
        return self.p >= min_alignment_exponent(self.d)

    def modulus(self, level: int) -> int:
        """Alignment modulus 2^(level+1+p)."""
        return 2 ** (level + 1 + self.p)

    def min_scale(self, level: int) -> int:
        """Smallest scale wide enough to host sites: 2*level + p + 2."""
        return 2 * level + self.p + 2


def first_site_bound(params: SeparationParams, level: int) -> int:
    """2^(min_scale + 4), above the level's first site: selected scales are
    at most 3 apart and each one from ``min_scale`` on hosts a site."""
    return 2 ** (params.min_scale(level) + 4)


def strip(level: int, scale: int) -> tuple[int, int]:
    """Bounds (lo, hi) of the half-open level-``level`` strip of [2^scale, 2^(scale+1))."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if scale < level:
        raise ValueError("scale must be >= level")
    lo = 2 ** (scale + 1) - 2 ** (scale - level + 1)
    hi = 2 ** (scale + 1) - 2 ** (scale - level)
    return lo, hi


def strip_sites(params: SeparationParams, level: int, scale: int) -> range:
    """Aligned sites inside strip(level, scale), sorted.

    Sites are the multiples of the alignment modulus m whose distance to the
    strip's complement is >= m.  Both strip endpoints are multiples of m for
    admissible scales, so the sites are exactly lo+m, lo+2m, ..., hi-m and
    the count equals width/m - 1.
    """
    if scale < params.min_scale(level):
        raise ValueError(
            f"scale {scale} below minimum {params.min_scale(level)} for level {level}"
        )
    lo, hi = strip(level, scale)
    m = params.modulus(level)
    return range(lo + m, hi, m)


def site_window(p: int, level: int, scale: int) -> range:
    """The level's sites among the integers of bit length ``scale + 1``, for
    alignment exponent ``p``, sorted: empty when the scale is unselected or
    below ``min_scale(level)`` = 2 * level + p + 2.

    With low = scale - level and w = 2^low, strip(level, scale) =
    [2^(scale+1) - 2w, 2^(scale+1) - w) = [top * w, (top + 1) * w) for
    top = 2^(level+1) - 2, the n whose top level + 1 bits read 1...10.  The
    modulus is m = 2^(level+1+p), and from ``min_scale`` on w is a multiple
    of m, so both strip ends are aligned: the aligned n in the strip are
    lo, lo + m, ..., hi - m, and all but lo lie a modulus away from the
    complement.  So the scale's sites are range(lo + m, hi, m), the
    ``strip_sites`` range, which lies inside [2^scale, 2^(scale+1)).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if scale < 2 * level + p + 2 or scale % SCALE_PERIOD not in SELECTED_RESIDUES:
        return range(0)
    low = scale - level
    top = (2 << level) - 2
    m = 2 << level + p
    return range((top << low) + m, (top + 1) << low, m)


def in_site_set(params: SeparationParams, level: int, n: int) -> bool:
    """The point test of the level's site set: n is in the ``site_window`` of
    its scale n.bit_length() - 1.  Every n <= 1 is rejected: the scales of 0
    and 1 lie below every ``min_scale``, and a negative n below every window."""
    return n in site_window(params.p, level, n.bit_length() - 1)


def _site_ranges(params: SeparationParams, level: int, horizon: int) -> Iterator[range]:
    """Each selected scale's ``strip_sites`` range, clipped to [1, horizon]."""
    for scale in range(params.min_scale(level), horizon.bit_length()):
        if scale_selected(scale):
            sites = strip_sites(params, level, scale)
            yield range(sites.start, min(sites.stop, horizon + 1), sites.step)


def aligned_sites(params: SeparationParams, level: int, lo: int, hi: int) -> Iterator[int]:
    """The level's sites in [lo, hi], sorted: scale by scale, that scale's
    ``site_window`` with its start raised to the first multiple of the
    modulus >= lo and its stop cut to hi + 1.  The clipped ranges are chained,
    so no generator frame runs per site."""
    m = params.modulus(level)
    start, stop = -(-lo // m) * m, hi + 1
    windows = (site_window(params.p, level, scale)
               for scale in range(max(lo, 1).bit_length() - 1, hi.bit_length()))
    return chain.from_iterable(
        range(max(sites.start, start), min(sites.stop, stop), m) for sites in windows)


def site_members(params: SeparationParams, level: int, horizon: int) -> list[int]:
    """Site set members <= horizon, sorted."""
    out: list[int] = []
    for sites in _site_ranges(params, level, horizon):
        out.extend(sites)
    return out


def first_site(params: SeparationParams, level: int) -> int:
    """The level's first site: the start of its first nonempty ``_site_ranges``
    range below ``first_site_bound``, read off the strips, not ``site_window``."""
    return next(filter(None, _site_ranges(params, level, first_site_bound(params, level)))).start


def count_sites(params: SeparationParams, level: int, horizon: int) -> int:
    """#(site set of ``level`` in [1, horizon]) by per-scale range arithmetic."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    # len() of a range with more than 2^63 sites overflows; bool() does not
    return sum((sites.stop - sites.start - 1) // sites.step + 1
               for sites in _site_ranges(params, level, horizon) if sites)


# ---------------------------------------------------------------------------
# Normalized selected-scale mass
# ---------------------------------------------------------------------------

def scale_mass(a: int, b: int) -> Fraction:
    """2^(-b) * sum of 2^j over selected scales j with a < j <= b, exact.

    Each selected residue r holds the scales first, first + 5, ...,
    first + 5(k - 1) <= b, first the least j > a with j = r (mod 5), and
    their 2^j sum to the geometric series 2^first * (32^k - 1) / 31.  So a
    residue costs O(1), not one term per scale."""
    if a < 0 or b <= a:
        raise ValueError("need 0 <= a < b")
    total = 0
    for r in SELECTED_RESIDUES:
        first = a + 1 + (r - a - 1) % SCALE_PERIOD
        k = (b - first) // SCALE_PERIOD + 1  # first <= a + 5 < b + 5, so k >= 0
        total += ((1 << SCALE_PERIOD * k) - 1) // (2 ** SCALE_PERIOD - 1) << first
    return Fraction(total, 2 ** b)


def scale_mass_limit(residue: int) -> Fraction:
    """Limit of scale_mass(a, b) for b -> infinity along b = residue (mod 5)."""
    if residue not in range(SCALE_PERIOD):
        raise ValueError("residue must be in 0..4")
    return _MASS_LIMITS[residue]


def mass_table_rows() -> tuple[list[tuple], int]:
    """fact0's table over 0 <= a <= 12 and a < b <= 65 (767 rows): CSV rows
    (a, b, b_mod_5, S_num, S_den, limit_num, limit_den, abs_err_float) and how
    many exact checks they fail, S <= ``MASS_SUP_BOUND`` and the identity
    |S - limit| = 2^(a-b) * L(a mod 5), so a row failing both counts twice."""
    # the checks cross-multiply numerators and (positive) denominators;
    # |S - limit| = diff / (s_den * l_den).  The limits are read per call, not
    # cached, so each call sees the scale_mass_limit in force
    sup_num, sup_den = MASS_SUP_BOUND.as_integer_ratio()
    limits = [scale_mass_limit(r).as_integer_ratio() for r in range(SCALE_PERIOD)]
    rows = []
    failures = 0
    for a in range(13):
        t_num, t_den = limits[a % SCALE_PERIOD]  # |S - limit| = this * 2^(a-b)
        for b in range(a + 1, 66):
            s_num, s_den = scale_mass(a, b).as_integer_ratio()
            l_num, l_den = limits[b % SCALE_PERIOD]
            diff = abs(s_num * l_den - l_num * s_den)
            failures += (s_num * sup_den > sup_num * s_den) + (
                (diff * t_den) << (b - a) != t_num * s_den * l_den)
            rows.append((a, b, b % SCALE_PERIOD, s_num, s_den,
                         l_num, l_den, diff / (s_den * l_den)))
    return rows, failures


MASS_TABLE_HEADER = ("a", "b", "b_mod_5", "S_num", "S_den",
                     "limit_num", "limit_den", "abs_err_float")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class Checkpoints(NamedTuple):
    """Horizon subsequence 2^(q+1) over selected exponents q >= p+4.

    The exponents q run through the selected scales; since selected scales
    are never adjacent, q+1 is itself never selected, which keeps every
    horizon clear of the strips that start at selected scales.
    """

    exponents: tuple[int, ...]

    @property
    def horizons(self) -> tuple[int, ...]:
        return tuple(2 ** (q + 1) for q in self.exponents)

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(CLASS1 if q % SCALE_PERIOD == 0 else CLASS2 for q in self.exponents)


def checkpoint_schedule(params: SeparationParams, count: int) -> Checkpoints:
    """First ``count`` checkpoints for the given parameters: every
    ``SCALE_PERIOD`` consecutive exponents hold each selected residue once."""
    if count < 1:
        raise ValueError("count must be >= 1")
    periods = -(-count // len(SELECTED_RESIDUES))
    q_hi = params.p + 3 + SCALE_PERIOD * periods
    return Checkpoints(checkpoints_between(params, 0, q_hi).exponents[:count])


def checkpoints_between(params: SeparationParams, q_lo: int, q_hi: int) -> Checkpoints:
    """Checkpoints with exponent in [q_lo, q_hi]."""
    exponents = tuple(q for q in range(max(q_lo, params.p + 4), q_hi + 1)
                      if scale_selected(q))
    if not exponents:
        raise ValueError("no checkpoint exponents in range")
    return Checkpoints(exponents)


def is_checkpoint_horizon(params: SeparationParams, horizon: int) -> bool:
    if horizon < 2 or horizon & (horizon - 1):
        return False
    q = horizon.bit_length() - 2
    return q >= params.p + 4 and scale_selected(q)


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

class CheckReport(NamedTuple):
    """Outcome of one verification run; a failure is data, not an exception."""

    check: str
    params: dict
    range_: dict
    passed: bool
    first_violation: Optional[dict]

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "range": self.range_,
            "pass": self.passed,
            "first_violation": self.first_violation,
        }


def _report(check: str, params: SeparationParams, range_: dict,
            violation: Optional[dict] = None) -> CheckReport:
    return CheckReport(check, {"d": params.d, "p": params.p}, range_,
                       violation is None, violation)


def verify_separation(params: SeparationParams, max_level: int,
                      horizon: int) -> CheckReport:
    """Members <= horizon of levels l, l' (l = l' too) are at least
    need[max(l,l')] = 2^(max(l,l')+1)+2d+1 apart, ``need`` growing with the
    level; only neighbours in the merged order of all levels need comparing,
    as a wider pair spans one neighbouring gap on each side.  Stops at the
    first violation, so a too-close same-level pair that straddles another
    level's member shows as a ``cross_level_gap``.  Every level-s site is
    >= 2^(2s+p+2) > 2^(s+1), so no floor check is needed.

    The walk is run by run, a run being one ``_site_ranges`` range of one
    level.  Each run lies in its own strip, and strips with distinct
    (level, scale) never overlap, so the nonempty runs sorted by
    (start, level) list the members in exactly their merged order.  Each run
    r stands there as r[0], r[1], r[-1] (each once) and consecutive entries
    are compared: (r[0], r[1]) is ``step`` apart, the extra pair (r[1], r[-1])
    spans len - 2 steps so it passes when (r[0], r[1]) does, and one run's
    last member meets the next run's first.  The check fails closed: were two
    runs ever to interleave, the run sorted right after the earlier-starting
    one would start at or below that one's last member, a cross gap <= 0.
    """
    if max_level < 1 or horizon < 1:
        raise ValueError("max_level and horizon must be >= 1")
    range_ = {"max_level": max_level, "horizon": horizon}
    need = {level: 2 ** (level + 1) + 2 * params.d + 1
            for level in range(1, max_level + 1)}
    runs = sorted(((level, sites) for level in need
                   for sites in _site_ranges(params, level, horizon) if sites),
                  key=lambda run: (run[1].start, run[0]))
    ends = [(n, level) for level, sites in runs
            for n in (sites[0], *sites[1:2], *sites[2:][-1:])]
    for (n1, l1), (n2, l2) in pairwise(ends):
        gap, required = n2 - n1, need[max(l1, l2)]
        if gap < required:
            where = ({"condition": "same_level_gap", "level": l1} if l1 == l2 else
                     {"condition": "cross_level_gap", "levels": [l1, l2]})
            return _report("separation", params, range_, {
                **where, "i": n1, "i_prime": n2, "gap": gap, "required": required})
    return _report("separation", params, range_)


def verify_checkpoint_gap(params: SeparationParams, max_level: int,
                          count: int) -> CheckReport:
    """No site of any level within 2^level + d of a checkpoint H: the window
    (H - 2^level - d, H + 2^level + d) is walked by ``aligned_sites``, and a
    violation reports the nearest site found, which is the exact distance
    from H to the site set."""
    if max_level < 1 or count < 1:
        raise ValueError("max_level and count must be >= 1")
    schedule = checkpoint_schedule(params, count)
    range_ = {"max_level": max_level, "checkpoints": count}
    for level in range(1, max_level + 1):
        need = 2 ** level + params.d
        for q, horizon in zip(schedule.exponents, schedule.horizons):
            near = [abs(k - horizon) for k in
                    aligned_sites(params, level, horizon - need + 1, horizon + need - 1)]
            if near:
                return _report("checkpoint_gap", params, range_, {
                    "condition": "checkpoint_gap", "level": level, "q": q,
                    "horizon": horizon, "distance": min(near), "required": need})
    return _report("checkpoint_gap", params, range_)


def verify_counting_bounds(params: SeparationParams, max_level: int) -> CheckReport:
    """Per-strip site counts, each exactly 2^(j-2s-p-1) - 1 (``strip_sites``),
    at every scale from a level's ``min_scale`` to max_scale =
    max(26, ``params.min_scale(max_level)``), so every level is read."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    max_scale = max(26, params.min_scale(max_level))
    range_ = {"max_level": max_level, "max_scale": max_scale}
    for level in range(1, max_level + 1):
        for scale in range(params.min_scale(level), max_scale + 1):
            count = len(strip_sites(params, level, scale))
            required = 2 ** (scale - params.min_scale(level) + 1) - 1
            if count != required:
                return _report("counting_bounds", params, range_, {
                    "condition": "site_count", "level": level, "scale": scale,
                    "count": count, "required": required})
    return _report("counting_bounds", params, range_)


def verify_mass_bound(params: SeparationParams, max_level: int,
                      count: int) -> CheckReport:
    """Site-set counting ratios at the first ``count`` checkpoints stay under
    MASS_SUP_BOUND * 2^-ms, ms = ``params.min_scale(level)``: at 2^(q+1) a ratio
    is exactly 2^-ms * S(ms-1, q) - N / 2^(q+1), N = #selected scales in [ms, q]."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    schedule = checkpoint_schedule(params, count)
    range_ = {"max_level": max_level, "checkpoints": count}
    for level in range(1, max_level + 1):
        cap = MASS_SUP_BOUND / 2 ** params.min_scale(level)
        for q, horizon in zip(schedule.exponents, schedule.horizons):
            ratio = Fraction(count_sites(params, level, horizon), horizon)
            if ratio > cap:
                return _report("mass_bound", params, range_, {
                    "condition": "mass_bound", "level": level, "q": q,
                    "ratio": str(ratio), "required": str(cap)})
    return _report("mass_bound", params, range_)


def verify_class_limits(params: SeparationParams, max_level: int) -> CheckReport:
    """Counting ratios at the checkpoints with q in [q0, q0 + 12], q0 =
    max(20, ``params.min_scale(max_level)`` + 7), each short of its class
    limit L(q mod 5) * 2^-ms, ms = ``params.min_scale(level)``, by exactly
    (L((ms-1) mod 5) + N) / 2^(q+1), N = #selected scales in [ms, q] (see
    ``verify_mass_bound``).  The window only fixes the reported q_range."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    q0 = max(20, params.min_scale(max_level) + 7)
    schedule = checkpoints_between(params, q0, q0 + 12)
    range_ = {"max_level": max_level,
              "q_range": [schedule.exponents[0], schedule.exponents[-1]]}
    for level in range(1, max_level + 1):
        ms = params.min_scale(level)
        for q, horizon in zip(schedule.exponents, schedule.horizons):
            limit = scale_mass_limit(q % SCALE_PERIOD) / 2 ** ms
            ratio = Fraction(count_sites(params, level, horizon), horizon)
            shortfall = scale_mass_limit((ms - 1) % SCALE_PERIOD) + sum(
                map(scale_selected, range(ms, q + 1)))
            if limit - ratio != shortfall / horizon:
                return _report("class_limits", params, range_, {
                    "condition": "class_limit", "level": level, "q": q,
                    "ratio": str(ratio), "limit": str(limit)})
    return _report("class_limits", params, range_)
