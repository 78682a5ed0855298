from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdensity import (
    SeparationParams,
    count_sites,
    density_ratios,
    in_site_set,
    site_members,
)


def evens(n):
    return n // 2


def all_integers(n):
    return n


def level1_sites(params):
    return lambda n: count_sites(params, 1, n)


def brute_level1_members(horizon):
    """Independent enumeration of the level-1 site set for d=1, p=1.

    Walks every strip [2^(j+1)-2^j, 2^(j+1)-2^(j-1)) of selected scale and
    keeps the multiples of 8 at distance >= 8 from the strip complement.
    """
    members = []
    for j in range(5, horizon.bit_length() + 1):
        if j % 5 not in (0, 2):
            continue
        lo, hi = 2 ** (j + 1) - 2 ** j, 2 ** (j + 1) - 2 ** (j - 1)
        members.extend(
            i for i in range(lo, hi)
            if i <= horizon and i % 8 == 0 and min(i - (lo - 1), hi - i) >= 8
        )
    return members


class TestCountUpTo:
    """Counters count(n) = #(members in [1, n]), the form density_ratios takes."""

    def test_empty(self):
        report = density_ratios(lambda n: 0, [1, 100])
        assert report.counts == (0, 0)
        assert report.ratios == (0, 0)

    def test_full(self):
        report = density_ratios(all_integers, [1, 100])
        assert report.counts == (1, 100)
        assert report.ratios == (1, 1)

    def test_level1_sites_at_64(self, params):
        assert count_sites(params, 1, 64) == 1
        assert site_members(params, 1, 64) == [40]

    def test_level1_matches_brute_force(self, params):
        for horizon in (64, 100, 256, 1000, 4096):
            expected = brute_level1_members(horizon)
            assert site_members(params, 1, horizon) == expected
            assert count_sites(params, 1, horizon) == len(expected)

    def test_membership_scan_fallback(self, params):
        # counting by a membership scan agrees with the closed-form counter
        for horizon in (10, 64, 4096):
            scanned = sum(in_site_set(params, 1, n) for n in range(1, horizon + 1))
            assert scanned == count_sites(params, 1, horizon)


class TestDensityRatios:
    def test_all_integers(self):
        report = density_ratios(all_integers, [10, 100])
        assert report.ratios == (Fraction(1), Fraction(1))

    def test_evens(self):
        report = density_ratios(evens, [10, 100])
        assert report.ratios == (Fraction(1, 2), Fraction(1, 2))

    def test_level1_sites(self, params):
        report = density_ratios(level1_sites(params), [64, 256, 2048])
        assert report.counts == (1, 8, 71)
        assert report.ratios == (Fraction(1, 64), Fraction(8, 256), Fraction(71, 2048))

    def test_ratio_denominators_before_reduction(self, params):
        report = density_ratios(level1_sites(params), [64, 256])
        for count, checkpoint, ratio in zip(report.counts, report.checkpoints,
                                            report.ratios):
            assert ratio == Fraction(count, checkpoint)

    def test_counts_each_checkpoint_once(self):
        calls = []

        def counting(n):
            calls.append(n)
            return evens(n)

        density_ratios(counting, [2, 10, 100])
        assert calls == [2, 10, 100]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            density_ratios(evens, [])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            density_ratios(evens, [10, 10])


@given(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 4))
def test_count_monotone(n1, n2, level):
    params = SeparationParams.with_min_p(1)
    lo, hi = min(n1, n2), max(n1, n2)
    assert count_sites(params, level, lo) <= count_sites(params, level, hi)


@given(st.sets(st.integers(1, 300), min_size=1, max_size=50))
@settings(max_examples=60)
def test_ratios_within_unit_interval(members):
    ordered = sorted(members)
    report = density_ratios(lambda n: bisect_right(ordered, n), [10, 50, 300])
    assert all(0 <= r <= 1 for r in report.ratios)


def test_csv_schema(params):
    report = density_ratios(level1_sites(params), [64, 256])
    assert report.CSV_HEADER == ("checkpoint", "count", "ratio_num", "ratio_den",
                                 "ratio_float")
    assert report.rows() == [(64, 1, 1, 64, 0.015625), (256, 8, 1, 32, 0.03125)]
