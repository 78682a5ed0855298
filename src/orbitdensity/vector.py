"""Assembly of the orbit vector and its half-space return set.

A *family* assigns to each level s a coefficient block: exact complex
rational coefficients a_j for offsets |j| <= 2^s, bounded by the level
budget c(s) = s.  The assembled vector places a copy of each level's block
vector at every site k of that level's site set; site separation keeps the
placed windows [k - 2^s, k + 2^s] disjoint, so the vector has a well-defined
coefficient b(i) = a_{k-i} at every covered index and 0 elsewhere.

For the weighted backward shift the coordinate-0 functional applied to the
n-step orbit point equals b(n) exactly, so the return set into the open
half-space {Re > 0} is {n >= 1 : Re b(n) > 0}.  Its counting ratio at the
checkpoint horizons splits exactly into per-level site counts weighted by
the per-block hit counts, which is what drives the two-limit oscillation
measured by ``density_experiment``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .dyadic import (
    SeparationParams,
    Checkpoints,
    CLASS1,
    CLASS2,
    count_sites,
    in_site_set,
    is_checkpoint_horizon,
    scale_mass_limit,
    site_members,
)
from .densities import density_ratios
from .scalars import GaussianRational, ZERO, ONE
from .shift import ShiftOperator, tail_constant, vector_norm

@dataclass(frozen=True)
class LevelBudgets:
    """Budgets c(s) = s and the tail constants eps(1..max_level), each computed
    once.  For every w > 1 eps falls doubly exponentially, so c(s) -> infinity,
    eps(s) * sum_{s'<s} c(s') -> 0 and sum c(s) * eps(s) converges."""

    tail_constants: tuple[float, ...]  # eps(1), ..., eps(max_level)

    @property
    def max_level(self) -> int:
        return len(self.tail_constants)

    @property
    def weighted_partials(self) -> tuple[float, ...]:  # partial sums of c(s) * eps(s)
        return tuple(itertools.accumulate(
            s * eps for s, eps in enumerate(self.tail_constants, 1)))

    @staticmethod
    def budget(level: int) -> Fraction:
        if level < 1:
            raise ValueError("level must be >= 1")
        return Fraction(level)


def build_level_budgets(op: ShiftOperator, max_level: int) -> LevelBudgets:
    """Budgets c(s) = s with the operator's tail constants eps(1..max_level)."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    return LevelBudgets(tuple(tail_constant(op, s) for s in range(1, max_level + 1)))


@dataclass(frozen=True)
class CoefficientBlock:
    """One level's exact coefficients a_j, |j| <= 2^level; the block itself
    enforces the level budget |a_j| <= c(level) (``LevelBudgets.budget``)."""

    level: int
    coeffs: Mapping[int, GaussianRational]

    def __post_init__(self) -> None:
        radius = 2 ** self.level
        bound = LevelBudgets.budget(self.level)
        table = {j: a for j, a in dict(self.coeffs).items() if a}
        for j, a in table.items():
            if abs(j) > radius:
                raise ValueError(f"offset {j} outside radius {radius}")
            if a.abs_sq() > bound * bound:
                raise ValueError(f"coefficient at offset {j} exceeds budget {bound}")
        object.__setattr__(self, "coeffs", table)

    def a(self, offset: int) -> GaussianRational:
        return self.coeffs.get(offset, ZERO)

    @property
    def radius(self) -> int:
        return 2 ** self.level

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def positive_count(self) -> int:
        """Offsets whose coefficient has strictly positive real part."""
        return sum(1 for a in self.coeffs.values() if a.re > 0)

    def positive_offsets(self) -> list[int]:
        return sorted(j for j, a in self.coeffs.items() if a.re > 0)

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(math.sqrt(float(a.abs_sq())) for a in self.coeffs.values())


def zero_block(level: int) -> CoefficientBlock:
    return CoefficientBlock(level=level, coeffs={})


def one_block_family(budgets: LevelBudgets) -> dict[int, CoefficientBlock]:
    """Minimal hand-checkable family: level 1 holds the bare chain origin, and
    ``AssembledVector`` fills the other levels with zero blocks."""
    return {1: CoefficientBlock(level=1, coeffs={0: ONE})}


def _gaussian_integers(max_part: int) -> list[tuple[int, int]]:
    """Pairs (u, v), |u|,|v| <= max_part, positive-real-first deterministic order."""
    pairs = [(u, v) for u in range(-max_part, max_part + 1)
             for v in range(-max_part, max_part + 1)]
    pairs.sort(key=lambda uv: (uv[0] * uv[0] + uv[1] * uv[1], -uv[0], -uv[1]))
    return pairs


def enumerate_dense_vectors() -> Iterator[dict[int, GaussianRational]]:
    """Deterministic diagonal enumeration of finitely supported coefficient maps.

    Stage b = R + k + M runs over support radius R, denominator exponent k
    and numerator cap M >= 1; within a stage, coefficient tuples are walked
    in a fixed positive-real-first order.  Canonical-form filters (cap
    attained, some odd numerator when k > 0, nonzero endpoint when R > 0)
    make every map appear exactly once, so the stream is reproducible and
    eventually reaches every finitely supported vector with complex dyadic
    rational coefficients.
    """
    for stage in itertools.count(1):
        for radius in range(stage):
            for den_exp in range(stage - radius):
                cap = stage - radius - den_exp
                den = 2 ** den_exp
                candidates = _gaussian_integers(cap)
                offsets = list(range(-radius, radius + 1))
                for tup in itertools.product(candidates, repeat=len(offsets)):
                    if all(u == 0 and v == 0 for u, v in tup):
                        continue
                    if max(max(abs(u), abs(v)) for u, v in tup) != cap:
                        continue
                    if den_exp > 0 and not any(u % 2 or v % 2 for u, v in tup):
                        continue
                    if radius > 0 and tup[0] == (0, 0) and tup[-1] == (0, 0):
                        continue
                    yield {
                        j: GaussianRational(Fraction(u, den), Fraction(v, den))
                        for j, (u, v) in zip(offsets, tup)
                        if u or v
                    }


def dense_family_blocks(budgets: LevelBudgets) -> dict[int, CoefficientBlock]:
    """Slot the enumerated vectors into strictly increasing admissible levels.

    A vector with support radius R and max modulus M goes to the next free
    level s with 2^s >= R and budget(s) >= M, up to ``budgets.max_level``.
    Only the claimed levels are returned; ``AssembledVector`` fills the rest
    with zero blocks.  The first enumerated vector is the bare chain origin,
    so level 1 always carries a positive-real coefficient.
    """
    blocks: dict[int, CoefficientBlock] = {}
    previous = 0
    for coeffs in enumerate_dense_vectors():
        radius = max((abs(j) for j in coeffs), default=0)
        max_sq = max(a.abs_sq() for a in coeffs.values())
        level = previous + 1
        while 2 ** level < radius or budgets.budget(level) ** 2 < max_sq:
            level += 1
        if level > budgets.max_level:
            break
        blocks[level] = CoefficientBlock(level=level, coeffs=coeffs)
        previous = level
    return blocks


class AssembledVector:
    """The placed-block coefficient vector; immutable after construction.

    Construction requires admissible parameters, 2^(p+2) - 4 >= 2d + 1, and
    that alone keeps the placed windows of all level pairs disjoint with
    clearance at least 2d + 1, since sites of levels s <= t are at least
    2^(t+1+p) apart.  For s < t:

        same level:  2^(s+1+p) - 2^(s+1) >= 2^(p+2) - 4 >= 2d + 1,
        cross level: 2^(t+1+p) - 2^s - 2^t > 2^(t+1)(2^p - 1) >= 2d + 1.

    ``dyadic.verify_separation`` checks the same spacing member by member.
    Every level in 1..max_level that ``blocks`` leaves out gets the zero block.
    """

    def __init__(self, params: SeparationParams, op: ShiftOperator,
                 budgets: LevelBudgets, blocks: Mapping[int, CoefficientBlock]) -> None:
        if not params.is_admissible():
            raise ValueError("separation parameters are not admissible")
        self.params = params
        self.op = op
        self.budgets = budgets
        self.max_level = budgets.max_level
        for level, block in blocks.items():
            if not 1 <= level <= self.max_level:
                raise ValueError(f"block level {level} outside 1..{self.max_level}")
            if block.level != level:
                raise ValueError("block level mismatch")
        self.blocks = {level: blocks[level] if level in blocks else zero_block(level)
                       for level in range(1, self.max_level + 1)}

        # hot-path data for coefficient lookups: (level, modulus, radius, coeffs)
        self._lookup = tuple(
            (level, params.modulus(level), 2 ** level, block.coeffs)
            for level, block in self.blocks.items()
            if not block.is_zero
        )

    @property
    def active_levels(self) -> list[int]:
        return [level for level, block in self.blocks.items() if not block.is_zero]

    def coefficient_cap(self) -> float:
        """Largest coefficient modulus over all blocks (0.0 if all zero)."""
        return max((block.max_abs() for block in self.blocks.values()), default=0.0)

    def hit_counts(self) -> dict[int, int]:
        """Per-level count of offsets with positive real part."""
        return {level: block.positive_count() for level, block in self.blocks.items()}


def expansion_coefficient(av: AssembledVector, index: int) -> GaussianRational:
    """b(index): the coefficient the assembly places at ``index`` (0 if uncovered).

    A placed window of level s around site k has width 2^(s+1)+1, strictly
    less than the level's alignment modulus, so at most one aligned
    candidate per level can cover the index; membership of that candidate in
    the site set settles it.
    """
    if index < 2:
        return ZERO
    params = av.params
    for level, modulus, radius, coeffs in av._lookup:
        k = index + radius
        k -= k % modulus
        if k >= index - radius and in_site_set(params, level, k):
            hit = coeffs.get(k - index)
            if hit is not None:
                return hit
    return ZERO


class SeriesOracle:
    """Independent summation route to the exact coefficients b(n), 1 <= n <= horizon.

    Every active level's block coefficients are scattered once over the
    level's site list from the ``strip_sites`` ranges (``site_members``): a
    site k contributes a_j at n = k - j.  Contributions to the same n are
    summed, not overwritten, so the map does not assume separation: two
    overlapping windows would show up as a disagreement with
    ``expansion_coefficient``.  No ``in_site_set`` or
    ``expansion_coefficient`` call is involved, so this route shares no
    membership test with the route it checks.
    """

    def __init__(self, av: AssembledVector, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        values: dict[int, GaussianRational] = {}
        for level in av.active_levels:
            block = av.blocks[level]
            for k in site_members(av.params, level, horizon + block.radius):
                for j, a in block.coeffs.items():
                    n = k - j
                    if 1 <= n <= horizon:
                        values[n] = values.get(n, ZERO) + a
        self._values = values

    def value(self, n: int) -> GaussianRational:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"orbit step {n} outside oracle horizon {self.horizon}")
        return self._values.get(n, ZERO)


def site_hit_count(av: AssembledVector, level: int, verify: bool = True) -> int:
    """Hits per placed window: offsets t in [-(2^level+d), 2^level+d] whose
    t-step orbit lands in the half-space.

    The count is read off the block (positive-real coefficients).  With
    ``verify`` it is re-derived on the assembled vector: the indices n in
    [k - 2^level - d, k + 2^level + d] around the level's first site k with
    Re b(n) > 0.  Separation keeps every other window at least 2d + 1 away
    from the one placed at k, so the two counts must agree.  The first site
    lies below 2^(min_scale + 4): selected scales are at most 3 apart and
    each one from min_scale on hosts a site.
    """
    block = av.blocks.get(level)
    if block is None:
        raise ValueError(f"no block at level {level}")
    count = block.positive_count()
    if verify:
        params = av.params
        k = site_members(params, level, 2 ** (params.min_scale(level) + 4))[0]
        span = block.radius + params.d
        direct = sum(1 for n in range(k - span, k + span + 1)
                     if expansion_coefficient(av, n).re > 0)
        if direct != count:
            raise RuntimeError(
                f"hit count mismatch at level {level}: block {count}, direct {direct}"
            )
    return count


@dataclass(frozen=True)
class ReturnSet:
    """Return times into the open half-space, materialized up to a horizon."""

    members: tuple[int, ...]
    horizon: int


def return_set(av: AssembledVector, horizon: int, method: str = "sites") -> ReturnSet:
    """Materialize the return set to ``horizon``.

    Both routes walk, for each level whose block has positive-real offsets,
    candidate sites k <= horizon + radius, and keep every n = k - j (j a
    positive offset, 1 <= n <= horizon) whose exact coefficient
    ``expansion_coefficient(av, n)`` has positive real part.  They differ
    only in where the sites come from: ``sites`` takes the ``strip_sites``
    lists (``site_members``); ``scan`` takes the level's aligned multiples
    m, 2m, ... and keeps those that pass the modular ``in_site_set`` test,
    so it never touches the site lists.

    The scan equals the per-index scan ``{n : Re b(n) > 0}`` for any block
    contents, with no appeal to separation.  If Re b(n) > 0, then
    ``expansion_coefficient`` returned the coefficient at offset k - n of
    some level, for an aligned k <= n + radius that passed ``in_site_set``;
    that offset is one of the level's positive offsets, so the walk
    generates n.  Every walked n is confirmed by ``expansion_coefficient``.
    Both routes are exact and must agree (the suite compares them).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    params = av.params
    if method == "scan":
        def sites(level: int, limit: int) -> Iterable[int]:
            m = params.modulus(level)
            return (k for k in range(m, limit + 1, m) if in_site_set(params, level, k))
    elif method == "sites":
        def sites(level: int, limit: int) -> Iterable[int]:
            return site_members(params, level, limit)
    else:
        raise ValueError("method must be 'sites' or 'scan'")
    found: list[int] = []
    for level in av.active_levels:
        block = av.blocks[level]
        offsets = block.positive_offsets()
        if not offsets:
            continue
        for k in sites(level, horizon + block.radius):
            for j in offsets:
                n = k - j
                if 1 <= n <= horizon and expansion_coefficient(av, n).re > 0:
                    found.append(n)
    found.sort()
    members = tuple(n for n, _ in itertools.groupby(found))
    return ReturnSet(members=members, horizon=horizon)


def checkpoint_count(av: AssembledVector, horizon: int) -> int:
    """#(return set in [1, horizon]) at a checkpoint horizon, by decomposition.

    At checkpoint horizons every placed window sits entirely on one side
    (the checkpoint-gap property), so the count splits exactly into
    per-level hit counts times site counts.  The identity is verified
    against direct materialization in the test suite.
    """
    if not is_checkpoint_horizon(av.params, horizon):
        raise ValueError(f"{horizon} is not a checkpoint horizon for these parameters")
    total = 0
    for level, block in av.blocks.items():
        hits = block.positive_count()
        if hits:
            total += hits * count_sites(av.params, level, horizon)
    return total


def predicted_density_limits(av: AssembledVector) -> tuple[Fraction, Fraction]:
    """Exact checkpoint-class density limits (lower from class 1, upper from class 2).

    Each active level contributes hits * limit * 2^(-2s-p-2) with the two
    selected-scale mass limits; raises when every block is hit-free, since
    the experiment would then be vacuous.
    """
    p = av.params.p
    lower = Fraction(0)
    upper = Fraction(0)
    any_hits = False
    for level, block in av.blocks.items():
        hits = block.positive_count()
        if not hits:
            continue
        any_hits = True
        weight = Fraction(hits, 2 ** (2 * level + p + 2))
        lower += weight * scale_mass_limit(0)
        upper += weight * scale_mass_limit(2)
    if not any_hits:
        raise ValueError("family has no positive-real coefficients; no return set")
    return lower, upper


def approach_bound(av: AssembledVector, level: int) -> float:
    """Bound on the distance from the n-step orbit point to the level's block
    vector, for n in the level's site set:

        (sum_{s < level} c(s)) * eps(level) + sum_{level <= s <= max_level} c(s) * eps(s).

    Levels above ``max_level`` carry no block, so their terms bound a zero
    vector.  The terms are summed directly: differences of
    ``weighted_partials`` would cancel the small ones to 0.0.
    """
    budgets = av.budgets
    if not 1 <= level <= budgets.max_level:
        raise ValueError(f"level must lie in 1..{budgets.max_level}")
    eps = budgets.tail_constants
    head = sum(float(budgets.budget(s)) for s in range(1, level)) * eps[level - 1]
    tail = 0.0
    for s in range(level, budgets.max_level + 1):
        tail += float(budgets.budget(s)) * eps[s - 1]
    return head + tail


def verify_orbit_approach(av: AssembledVector, level: int, n: int,
                          tail_tol: float = 1e-9) -> bool:
    """Certified check that the n-step orbit point approaches the level block.

    ``n`` must lie in the level's site set.  The difference vector has
    coordinates (b(n+m) - a(-m)) * w^(-m); its certified norm (value plus
    tail) must stay within ``approach_bound`` plus ``tail_tol``.
    """
    params = av.params
    if not in_site_set(params, level, n):
        raise ValueError(f"{n} is not a level-{level} site")
    block = av.blocks[level]
    w = av.op.weight
    cap = av.coefficient_cap() + block.max_abs()

    def coeff(m: int) -> GaussianRational:
        delta = expansion_coefficient(av, n + m) - block.a(-m)
        return delta * (w ** -m) if delta else ZERO

    estimate = vector_norm(av.op, coeff, 0, decay=(cap, 1.0 / av.op.weight_float),
                           tail_tol=min(tail_tol / 2, 1e-12))
    return estimate.upper <= approach_bound(av, level) + tail_tol


@dataclass(frozen=True)
class CheckpointRow:
    position: int
    exponent: int
    horizon: int
    label: str
    count: int
    ratio: Fraction
    predicted: Fraction


# checkpoints the separation flag reads; earlier ones predate the oscillation
TAIL_ROWS = 6


@dataclass(frozen=True)
class DensityExperiment:
    """Exact return-set ratios at checkpoints, split by checkpoint class.

    The separation flag is judged on the last six rows (``TAIL_ROWS``; all
    rows if fewer), and ``tail_window`` is the number it read.
    """

    rows: tuple[CheckpointRow, ...]
    hit_counts: dict[int, int]
    predicted_lower: Fraction
    predicted_upper: Fraction
    separation_flag: bool
    tail_window: int

    CSV_HEADER = ("l", "q", "horizon", "class", "count",
                  "ratio_num", "ratio_den", "ratio_float", "predicted_float")

    def csv_rows(self) -> list[tuple]:
        return [(row.position, row.exponent, row.horizon, row.label, row.count,
                 row.ratio.numerator, row.ratio.denominator,
                 float(row.ratio), float(row.predicted)) for row in self.rows]

    def to_json_dict(self) -> dict:
        return {
            "tail_window": self.tail_window,
            "r_values": {str(level): count for level, count in sorted(self.hit_counts.items())},
            "predicted_lower": fraction_json(self.predicted_lower),
            "predicted_upper": fraction_json(self.predicted_upper),
            "separation_flag": self.separation_flag,
            "checkpoints": [dict(zip(self.CSV_HEADER, row)) for row in self.csv_rows()],
        }


def fraction_json(value: Fraction) -> dict:
    """A rational as ``{"num", "den", "float"}`` for the JSON reports."""
    return {"num": value.numerator, "den": value.denominator, "float": float(value)}


def density_experiment(av: AssembledVector, schedule: Checkpoints) -> DensityExperiment:
    """Exact per-checkpoint return-set ratios with the predicted class limits.

    The separation flag records whether every class-2 ratio strictly exceeds
    every class-1 ratio over the last ``TAIL_ROWS`` checkpoints.
    """
    lower, upper = predicted_density_limits(av)
    report = density_ratios(lambda n: checkpoint_count(av, n), schedule.horizons)
    rows = tuple(
        CheckpointRow(position=position, exponent=exponent, horizon=horizon,
                      label=label, count=count, ratio=ratio,
                      predicted=lower if label == CLASS1 else upper)
        for (position, exponent, horizon, label), count, ratio
        in zip(schedule.rows(), report.counts, report.ratios))
    tail = rows[-TAIL_ROWS:]
    class1 = [row.ratio for row in tail if row.label == CLASS1]
    class2 = [row.ratio for row in tail if row.label == CLASS2]
    separation = bool(class1 and class2 and max(class1) < min(class2))
    return DensityExperiment(rows=rows, hit_counts=av.hit_counts(),
                             predicted_lower=lower, predicted_upper=upper,
                             separation_flag=separation,
                             tail_window=len(tail))


def sign_cross_check(av: AssembledVector, oracle: SeriesOracle,
                     n_max: int, tail_tol: float = 1e-12) -> list[int]:
    """Orbit steps n in [1, n_max] where the two routes to b(n) differ.

    ``expansion_coefficient`` and ``oracle.value`` are compared as exact
    values, so any difference is flagged, not only one in the sign of the
    real part.  No float enters the comparison, so nothing reads
    ``tail_tol``; it is still accepted for callers that pass it.  Empty
    list = full agreement.
    """
    if n_max > oracle.horizon:
        raise ValueError("oracle horizon too small")
    return [n for n in range(1, n_max + 1)
            if expansion_coefficient(av, n) != oracle.value(n)]
