import heapq
from fractions import Fraction
from itertools import pairwise, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdensity import dyadic
from orbitdensity import (
    CLASS1,
    CLASS2,
    SeparationParams,
    checkpoint_schedule,
    checkpoints_between,
    count_sites,
    in_site_set,
    min_alignment_exponent,
    scale_mass,
    scale_mass_limit,
    site_members,
    site_window,
    strip,
    strip_sites,
    verify_checkpoint_gap,
    verify_class_limits,
    verify_counting_bounds,
    verify_mass_bound,
    verify_separation,
)
from orbitdensity.dyadic import MASS_SUP_BOUND, is_checkpoint_horizon

REPORT_KEYS = {"check", "params", "range", "pass", "first_violation"}


def brute_sites(params, level, scale):
    """Distance-predicate scan over the whole strip; the test-side oracle."""
    lo, hi = strip(level, scale)
    m = params.modulus(level)
    return [i for i in range(lo, hi)
            if min(i - (lo - 1), hi - i) >= m and i % m == 0]


def memberwise_separation(params, max_level, horizon):
    """The member-by-member separation check: every level's ``site_members``
    merged into one sorted stream, then each neighbouring pair compared."""
    range_ = {"max_level": max_level, "horizon": horizon}
    need = {level: 2 ** (level + 1) + 2 * params.d + 1
            for level in range(1, max_level + 1)}
    merged = heapq.merge(*(zip(site_members(params, level, horizon), repeat(level))
                           for level in need))
    for (n1, l1), (n2, l2) in pairwise(merged):
        gap = n2 - n1
        if gap < need[l1] or gap < need[l2]:
            where = ({"condition": "same_level_gap", "level": l1} if l1 == l2 else
                     {"condition": "cross_level_gap", "levels": [l1, l2]})
            return dyadic._report("separation", params, range_, {
                **where, "i": n1, "i_prime": n2, "gap": gap,
                "required": need[max(l1, l2)]})
    return dyadic._report("separation", params, range_)


def brute_pool(params, level, horizon):
    """Site pool (sites of every admissible scale, selected or not) <= horizon."""
    return [i for scale in range(params.min_scale(level), horizon.bit_length())
            for i in brute_sites(params, level, scale) if i <= horizon]


class TestAlignmentExponent:
    @pytest.mark.parametrize("d,expected", [(1, 1), (2, 2), (3, 2), (14, 4)])
    def test_minimum(self, d, expected):
        assert min_alignment_exponent(d) == expected

    def test_inequality_holds_for_all_levels(self):
        for d in range(1, 20):
            p = min_alignment_exponent(d)
            for s in range(1, 30):
                assert 2 ** (s + 1 + p) >= 2 ** (s + 1) + 2 * d + 1

    def test_smallest_exponent(self):
        # the closed form against the search it replaces: smallest p >= 1 with
        # 2^(s+1+p) >= 2^(s+1) + 2d + 1 at the binding level s = 1, over every
        # small d and around every power of two up to 2^400
        def searched(d):
            p = 1
            while 2 ** (2 + p) < 2 ** 2 + 2 * d + 1:
                p += 1
            return p

        edges = [d for k in range(2, 401) for d in range(2 ** k - 3, 2 ** k + 2)]
        for d in [*range(1, 20_001), *edges]:
            assert min_alignment_exponent(d) == searched(d), d

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            min_alignment_exponent(0)


class TestStrips:
    @pytest.mark.parametrize("level,scale,lo,hi", [
        (1, 6, 64, 96),
        (2, 6, 96, 112),
        (1, 1, 2, 3),
    ])
    def test_bounds(self, level, scale, lo, hi):
        assert strip(level, scale) == (lo, hi)
        assert hi - lo == 2 ** (scale - level)

    def test_rejects_scale_below_level(self):
        with pytest.raises(ValueError):
            strip(3, 2)

    def test_pairwise_disjoint(self):
        seen = {}
        for level in range(1, 6):
            for scale in range(level, 13):
                lo, hi = strip(level, scale)
                for n in range(lo, hi):
                    assert n not in seen, (seen[n], (level, scale))
                    seen[n] = (level, scale)

    def test_closed_form_equals_telescoping_sum(self):
        for level in range(1, 7):
            for scale in range(level, 16):
                lo, hi = strip(level, scale)
                assert lo == sum(2 ** t for t in range(scale - level + 1, scale + 1))
                assert hi == sum(2 ** t for t in range(scale - level, scale + 1))


class TestStripSites:
    def test_level1_scale6(self, params):
        assert list(strip_sites(params, 1, 6)) == [72, 80, 88]

    def test_level1_scale5(self, params):
        assert list(strip_sites(params, 1, 5)) == [40]

    def test_matches_brute_force(self, params):
        for level in range(1, 4):
            for scale in range(params.min_scale(level), 15):
                assert list(strip_sites(params, level, scale)) == \
                    brute_sites(params, level, scale)

    def test_rejects_narrow_scale(self, params):
        with pytest.raises(ValueError):
            strip_sites(params, 1, 4)

    def test_counting_bounds(self, params):
        for level in range(1, 6):
            for scale in range(params.min_scale(level), 22):
                count = len(strip_sites(params, level, scale))
                cap = 2 ** (scale - 2 * level - params.p - 1)
                assert cap - 2 <= count <= cap
                assert count == cap - 1  # sharp for aligned strip endpoints


class TestMembership:
    def test_bit_form_matches_strip_sites(self):
        # reference: n is a site of the strip its scale picks, when that scale
        # is selected and wide enough to host sites.  in_site_set reads only p,
        # level and n, so the grid fixes d and walks every strip below 2^64: its
        # ends, its first and last aligned points and its middle, each exactly,
        # one off and half a modulus off, and the negative of each
        for p in range(9):
            params = SeparationParams(d=1, p=p)
            for level in range(1, 9):
                m = params.modulus(level)
                for scale in range(level, 64):
                    lo, hi = strip(level, scale)
                    last = (hi - lo) // m
                    for t in {-1, 0, 1, 2, last // 2, last - 2, last - 1, last, last + 1}:
                        for e in (-1, 0, 1, m // 2):
                            for n in (lo + t * m + e, -(lo + t * m + e)):
                                j = n.bit_length() - 1
                                expected = (j >= params.min_scale(level) and j % 5 in (0, 2)
                                            and n in strip_sites(params, level, j))
                                assert in_site_set(params, level, n) == expected, \
                                    (p, level, n)

    def test_site_window_is_the_strip_interior(self):
        # reference: strip_sites' first and last site bound the window by one
        # modulus; scales unselected or below min_scale hold no window
        for p in (0, 1, 5, 19):
            params = SeparationParams(d=1, p=p)
            for level in range(1, 9):
                m = params.modulus(level)
                for scale in [*range(level, 70), 201, 202, 205]:
                    window = site_window(p, level, scale)
                    if scale < params.min_scale(level) or scale % 5 not in (0, 2):
                        assert window == (0, 0), (p, level, scale)
                    else:
                        sites = strip_sites(params, level, scale)
                        assert window == (sites[0] - m, sites[-1] + m), (p, level, scale)
                        assert window[1].bit_length() == scale + 1

    def test_first_site_reads_the_strips(self, params, monkeypatch):
        # first_site is the strip route's answer, so it checks the window
        # route rather than repeating it
        expected = []
        for level in range(1, 9):
            ms = params.min_scale(level)
            scale = next(j for j in range(ms, ms + 5) if j % 5 in (0, 2))
            expected.append(strip_sites(params, level, scale)[0])

        def forbidden(*args):
            raise AssertionError("first_site reached the modular route")

        monkeypatch.setattr(dyadic, "site_window", forbidden)
        monkeypatch.setattr(dyadic, "in_site_set", forbidden)
        assert [dyadic.first_site(params, level) for level in range(1, 9)] == expected

    def test_examples(self, params):
        assert in_site_set(params, 1, 40)
        assert not in_site_set(params, 1, 72)  # scale 6 is not selected
        assert not in_site_set(params, 1, 41)  # misaligned

    def test_membership_needs_no_site_lists(self, params, monkeypatch):
        # in_site_set is the modular route; it must not lean on the site lists
        horizon = 2 ** 14
        expected = {level: site_members(params, level, horizon) for level in range(1, 6)}

        def forbidden(*args):
            raise AssertionError("in_site_set reached the site-list route")

        for name in ("strip", "strip_sites", "site_members", "_site_ranges"):
            monkeypatch.setattr(dyadic, name, forbidden)
        for level, members in expected.items():
            assert [n for n in range(1, horizon + 1)
                    if in_site_set(params, level, n)] == members

    @pytest.mark.parametrize("d, p", [(1, 0), (1, 1), (2, 2), (14, 3), (5, 4)])
    def test_matches_strip_definition(self, d, p):
        # reference: the distance predicate over every selected strip
        params = SeparationParams(d=d, p=p)
        limit = 2 ** 15
        for level in range(1, 7):
            expected = [n for scale in range(params.min_scale(level), 15)
                        if scale % 5 in (0, 2)
                        for n in brute_sites(params, level, scale)]
            assert [n for n in range(limit) if in_site_set(params, level, n)] == expected
            # aligned_sites walks a window [lo, hi] to the same set, and to
            # what the per-multiple filter through in_site_set finds.  Windows
            # at the walk's seams: from lo <= 0, empty ones with hi < lo, ends
            # on a multiple of the modulus and one off it, and windows around
            # every strip boundary and every 2^j below 2^15
            m = params.modulus(level)
            windows = [(-m - 1, limit - 1), (0, 3 * m), (-5, 0), (m, 8 * m), (-limit, limit),
                       (-m, m), (0, 0), (-1, 1), (5, 4), (0, -1), (-3, -7), (limit, 1)]
            for n in expected[:2] + expected[-2:]:
                windows += [(n, n), (n, n - 1), (n + 1, n - 1)]
                windows += [(n + a, n + m + b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
            for scale in range(params.min_scale(level), 14):
                for edge in strip(level, scale):
                    windows += [(edge - m, edge + m), (edge - 2 * m - 1, edge + 2 * m + 1)]
            for j in range(15):
                windows += [(2 ** j - 2 * m - 1, 2 ** j + 2 * m + 1), (2 ** j - 1, 2 ** j),
                            (2 ** j - 1, 2 ** (j + 1))]
            for lo, hi in windows:
                walked = list(dyadic.aligned_sites(params, level, lo, hi))
                assert walked == [n for n in expected if lo <= n <= hi], (lo, hi)
                assert walked == [k for k in range(-(-lo // m) * m, hi + 1, m)
                                  if in_site_set(params, level, k)], (lo, hi)

    def test_aligned_sites_reads_each_window_once(self, params, monkeypatch):
        # the walk reads one site_window per scale and makes no point test
        window, scales = dyadic.site_window, []

        def counted(p, level, scale):
            scales.append(scale)
            return window(p, level, scale)

        def forbidden(*args):
            raise AssertionError("aligned_sites made a per-multiple in_site_set test")

        monkeypatch.setattr(dyadic, "site_window", counted)
        monkeypatch.setattr(dyadic, "in_site_set", forbidden)
        for level in range(1, 7):
            scales.clear()
            assert list(dyadic.aligned_sites(params, level, 1, 2 ** 18)) == \
                site_members(params, level, 2 ** 18)
            assert len(scales) == len(set(scales)) <= 19, level  # scales 0..18

    def test_rejects_level_zero(self, params):
        for n in (0, 1, 40, 64):
            with pytest.raises(ValueError):
                in_site_set(params, 0, n)
        for scale in (-1, 0, 10):
            with pytest.raises(ValueError):
                site_window(params.p, 0, scale)

    def test_pool_contains_site_set(self, params):
        for level in (1, 2, 3):
            pool = set(brute_pool(params, level, 2 ** 12))
            assert pool.issuperset(site_members(params, level, 2 ** 12))

    def test_pool_members_sorted_and_spaced(self, params):
        for level in (1, 2):
            pool = brute_pool(params, level, 2 ** 12)
            modulus = params.modulus(level)
            assert all(b - a >= modulus for a, b in zip(pool, pool[1:]))
            # the pool starts at the first site of the lowest admissible strip
            assert pool[0] == strip_sites(params, level, params.min_scale(level))[0]

    def test_count_matches_enumeration(self, params):
        for level in range(1, 5):
            for horizon in (100, 2 ** 10, 2 ** 14, 5000):
                assert count_sites(params, level, horizon) == \
                    len(site_members(params, level, horizon))

    def test_agreement_full_sweep(self, params):
        # every n up to 2^20, all levels to 5
        horizon = 2 ** 20
        for level in range(1, 6):
            members = site_members(params, level, horizon)
            scanned = [n for n in range(1, horizon + 1)
                       if in_site_set(params, level, n)]
            assert scanned == members

    @pytest.mark.parametrize("d", [1, 2, 3, 14, 100])
    def test_count_closed_form_at_checkpoints(self, d):
        # count_sites(s, 2^(q+1)) = sum over selected 2s+p+2 <= j <= q of
        # 2^(j-2s-p-1) - 1, far past the 2^63 sites where len(range) overflows
        min_p = min_alignment_exponent(d)
        for p in (min_p, min_p + 2):
            params = SeparationParams(d=d, p=p)
            for level in range(1, 7):
                for q in checkpoints_between(params, 0, 100).exponents:
                    expected = sum(2 ** (j - params.min_scale(level) + 1) - 1
                                   for j in range(params.min_scale(level), q + 1)
                                   if j % 5 in (0, 2))
                    assert count_sites(params, level, 2 ** (q + 1)) == expected

    def test_high_level_empty_below_first_strip(self, params):
        assert site_members(params, 3, 256) == []

    def test_mass_bound_every_horizon(self, params):
        # counting ratio stays under (64/31) * 2^(-2s-p-1) at every horizon
        for level in (1, 2):
            cap = Fraction(64, 31) * Fraction(1, 2 ** (2 * level + params.p + 1))
            count = 0
            members = set(site_members(params, level, 2 ** 12))
            for n in range(1, 2 ** 12 + 1):
                count += n in members
                assert Fraction(count, n) <= cap

    def test_weighted_mass_summable(self, params):
        # sup-over-checkpoints ratios alpha_s, weighted by 2^s, stay under the
        # closed-form geometric cap, so their series converges
        schedule = checkpoint_schedule(params, 10)
        total = Fraction(0)
        for level in range(1, 7):
            alpha = max(Fraction(count_sites(params, level, n), n)
                        for n in schedule.horizons)
            cap = Fraction(64, 31) * Fraction(1, 2 ** (2 * level + params.p + 1))
            assert alpha <= cap
            total += 2 ** level * alpha
        geometric_cap = Fraction(64, 31) * Fraction(1, 2 ** params.p)
        assert total < geometric_cap


class TestScaleMass:
    def test_single_scale(self):
        assert scale_mass(0, 2) == 1

    def test_empty_selection(self):
        assert scale_mass(5, 6) == 0

    @pytest.mark.parametrize("residue,expected", [
        (0, Fraction(36, 31)),
        (1, Fraction(18, 31)),
        (2, Fraction(40, 31)),
        (3, Fraction(20, 31)),
        (4, Fraction(10, 31)),
    ])
    def test_limits(self, residue, expected):
        assert scale_mass_limit(residue) == expected

    def test_limit_rejects_bad_residue(self):
        with pytest.raises(ValueError):
            scale_mass_limit(5)

    def test_convergence_rate(self):
        for a in range(5, 13):
            for b in range(a + 1, a + 61):
                err = abs(scale_mass(a, b) - scale_mass_limit(b % 5))
                assert err <= 64 * Fraction(2 ** a, 2 ** b)

    @given(st.integers(0, 60), st.integers(1, 40))
    @settings(max_examples=200)
    def test_sup_bound(self, a, gap):
        assert scale_mass(a, a + gap) <= MASS_SUP_BOUND

    def test_mass_is_a_difference_of_limits(self):
        # the proof that every S lies strictly below the largest limit, which
        # is what MASS_SUP_BOUND is; every pair 0 <= a < b <= 130
        for a in range(130):
            for b in range(a + 1, 131):
                assert scale_mass(a, b) == scale_mass_limit(b % 5) - \
                    Fraction(2 ** a, 2 ** b) * scale_mass_limit(a % 5), (a, b)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scale_mass(3, 3)

    @given(st.integers(0, 199).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a + 1, 200))))
    @settings(max_examples=150)
    def test_residue_steps_match_scale_filter(self, ab):
        # the per-residue stepping sums the same 2^j as filtering every scale
        a, b = ab
        assert scale_mass(a, b) == Fraction(
            sum(2 ** j for j in range(a + 1, b + 1) if dyadic.scale_selected(j)), 2 ** b)


class TestCheckpoints:
    def test_first_three(self, params):
        schedule = checkpoint_schedule(params, 3)
        assert schedule.exponents == (5, 7, 10)
        assert schedule.horizons == (64, 256, 2048)
        assert schedule.classes == (CLASS1, CLASS2, CLASS1)

    def test_fifth(self, params):
        schedule = checkpoint_schedule(params, 5)
        assert schedule.exponents[4] == 15
        assert schedule.horizons[4] == 65536

    def test_successor_exponent_never_selected(self, params):
        for q in checkpoint_schedule(params, 12).exponents:
            assert (q + 1) % 5 not in (0, 2)

    def test_horizons_are_powers_of_two(self, params):
        for n in checkpoint_schedule(params, 12).horizons:
            assert n & (n - 1) == 0

    def test_schedule_matches_brute_force(self):
        # the first count selected exponents q >= p + 4, found one q at a time
        for p in range(12):
            params = SeparationParams(d=1, p=p)
            selected = [q for q in range(p + 4, p + 4 + 5 * 40) if dyadic.scale_selected(q)]
            for count in range(1, 80):
                assert checkpoint_schedule(params, count).exponents == tuple(selected[:count])

    def test_between(self, params):
        schedule = checkpoints_between(params, 20, 32)
        assert schedule.exponents == (20, 22, 25, 27, 30, 32)

    def test_is_checkpoint_horizon(self, params):
        assert is_checkpoint_horizon(params, 64)
        assert not is_checkpoint_horizon(params, 128)  # q=6 not selected
        assert not is_checkpoint_horizon(params, 63)


class TestVerifySeparation:
    def test_passes_at_scale(self, params):
        report = verify_separation(params, 4, 2 ** 16)
        assert report.passed
        assert report.first_violation is None

    def test_example_floor_and_gap(self, params):
        members = site_members(params, 1, 256)
        assert members[0] == 40 >= 2 ** 2
        assert members[0] >= 2 ** (2 * 1 + params.p + 2)  # pool floor at level 1
        assert members[1] - members[0] == 96 >= 2 ** 2 + 3

    @pytest.mark.parametrize("d", [1, 2, 3, 14])
    def test_members_clear_level_floor(self, d):
        # why verify_separation needs no floor check: level-s sites start at
        # 2^(2s+p+2), above the 2^(s+1) floor, for every p >= 0
        min_p = min_alignment_exponent(d)
        for p in (0, min_p, min_p + 2):
            params = SeparationParams(d=d, p=p)
            for level in range(1, 7):
                floor = 2 ** params.min_scale(level)
                members = site_members(params, level, 2 ** 4 * floor)
                assert members and members[0] >= floor > 2 ** (level + 1)

    def test_inadmissible_p_detected(self):
        bad = SeparationParams(d=1, p=0)
        assert not bad.is_admissible()
        report = verify_separation(bad, 1, 64)
        assert not report.passed
        assert report.first_violation["condition"] == "same_level_gap"
        gap = report.first_violation["gap"]
        assert gap < report.first_violation["required"]

    @pytest.mark.parametrize("planted,violation", [
        # a level-3 member between two level-1 members, too close to the upper one
        ({1: [100, 200], 2: [400], 3: [190]}, ([3, 1], 190, 200, 19)),
        # ... and too close to the lower one
        ({1: [100, 300], 2: [], 3: [110]}, ([1, 3], 100, 110, 19)),
        ({1: [100, 200], 2: [205], 3: []}, ([1, 2], 200, 205, 11)),
        ({1: [100, 300], 2: [], 3: [200]}, None),
        # a too-close level-1 pair straddling a level-2 member: the first
        # neighbouring pair in the merged order is the cross-level one
        ({1: [100, 104], 2: [102], 3: []}, ([1, 2], 100, 102, 11)),
    ], ids=["above", "below", "levels-1-2", "clear", "straddled-same-level"])
    def test_cross_level_gap(self, params, monkeypatch, planted, violation):
        # each planted member is its own one-member run
        monkeypatch.setattr(dyadic, "_site_ranges", lambda _params, level, _horizon:
                            [range(n, n + 1) for n in planted[level]])
        report = verify_separation(params, 3, 2 ** 10)
        if violation is None:
            assert report.passed
            return
        levels, i, i_prime, required = violation
        assert not report.passed
        assert report.first_violation == {
            "condition": "cross_level_gap", "levels": levels, "i": i,
            "i_prime": i_prime, "gap": i_prime - i, "required": required}

    @pytest.mark.parametrize("run", [range(100, 140, 5), range(300, 312, 6)],
                             ids=["eight-members", "two-members"])
    def test_short_step_fails_at_the_first_pair(self, params, monkeypatch, run):
        # a run whose step is below need fails at (r[0], r[1]), before the
        # (r[1], r[-1]) pair that stands in for the rest of the run
        planted = {1: [range(20, 21), run], 2: [range(600, 601)], 3: []}
        monkeypatch.setattr(dyadic, "_site_ranges",
                            lambda _params, level, _horizon: planted[level])
        report = verify_separation(params, 3, 2 ** 10)
        assert report.first_violation == {
            "condition": "same_level_gap", "level": 1, "i": run[0],
            "i_prime": run[1], "gap": run.step, "required": 7}

    def test_interleaved_runs_fail_closed(self, params, monkeypatch):
        # members 100, 200, 300 are 100 apart, but the level-2 run sits inside
        # the level-1 run's span, which real strips never allow: the run
        # after the earlier-starting one starts below its last member
        planted = {1: [range(100, 400, 200)], 2: [range(200, 201)], 3: []}
        monkeypatch.setattr(dyadic, "_site_ranges",
                            lambda _params, level, _horizon: planted[level])
        report = verify_separation(params, 3, 2 ** 10)
        assert report.first_violation == {
            "condition": "cross_level_gap", "levels": [1, 2], "i": 300,
            "i_prime": 200, "gap": -100, "required": 11}

    def test_matches_memberwise_reference(self):
        # the run-by-run walk reports exactly what the member-wise merge
        # reports, over passing and failing parameters alike (308 of 672 fail)
        failed = 0
        for d in (1, 2, 3, 5, 14, 40, 100, 381):
            for p in range(7):
                params = SeparationParams(d=d, p=p)
                for max_level in (1, 2, 4, 6):
                    for horizon in (2 ** 10, 2 ** 14, 2 ** 18):
                        expected = memberwise_separation(params, max_level, horizon)
                        assert verify_separation(params, max_level, horizon).to_json_dict() \
                            == expected.to_json_dict()
                        failed += not expected.passed
        assert failed == 308

    def test_json_schema(self, params):
        payload = verify_separation(params, 2, 1024).to_json_dict()
        assert set(payload) == REPORT_KEYS
        assert payload["pass"] is True


def brute_distance(params, level, n):
    """Distance from n to the level's site set, from the materialized list.

    Selected scales are at most 3 apart and each hosts a site, so the next
    site above n lies below 2^(max(min_scale, bit_length(n)) + 4).
    """
    top = 2 ** (max(params.min_scale(level), n.bit_length()) + 4)
    return min(abs(n - k) for k in site_members(params, level, top))


class TestCheckpointGap:
    def test_suite_passes(self, params):
        report = verify_checkpoint_gap(params, 4, 8)
        assert report.passed

    def test_required_clearance(self, params):
        # a site closer than the clearance lies below horizon + need
        schedule = checkpoint_schedule(params, 8)
        for level in range(1, 5):
            need = 2 ** level + params.d
            for horizon in schedule.horizons:
                sites = site_members(params, level, horizon + need)
                assert all(abs(horizon - k) >= need for k in sites)

    def test_matches_brute_force(self):
        # brute force: the first (level, checkpoint) whose nearest site from
        # the site list sits closer than 2^level + d; the sweep holds failing
        # parameters at levels 1 and 2
        failed_levels = set()
        for d, p in [(1, 0), (1, 1), (3, 0), (3, 1), (20, 0), (20, 1), (40, 0), (40, 1),
                     (100, 0), (100, 1), (14, 3), (80, 2), (95, 3), (381, 4)]:
            params = SeparationParams(d=d, p=p)
            schedule = checkpoint_schedule(params, 4)
            expected = None
            for level in range(1, 4):
                for q, horizon in zip(schedule.exponents, schedule.horizons):
                    dist = brute_distance(params, level, horizon)
                    if expected is None and dist < 2 ** level + d:
                        expected = (level, q, dist)
            report = verify_checkpoint_gap(params, 3, 4)
            assert report.passed == (expected is None)
            if expected is not None:
                violation = report.first_violation
                assert (violation["level"], violation["q"], violation["distance"]) == expected
                assert violation["required"] == 2 ** expected[0] + d
                failed_levels.add(expected[0])
        assert failed_levels == {1, 2}

    def test_gap_needs_no_site_lists(self, params, monkeypatch):
        def forbidden(*args):
            raise AssertionError("verify_checkpoint_gap reached the site-list route")

        for name in ("strip_sites", "site_members", "_site_ranges"):
            monkeypatch.setattr(dyadic, name, forbidden)
        assert verify_checkpoint_gap(params, 4, 8).passed


class TestSuiteChecks:
    """The per-strip and per-checkpoint checks behind verify_report.json."""

    @pytest.mark.parametrize("d", [1, 2, 3, 14, 62, 100, 1000])
    def test_pass_at_min_p(self, d):
        params = SeparationParams.with_min_p(d)
        reports = [verify_counting_bounds(params, 5),
                   verify_mass_bound(params, 3, 9),
                   verify_class_limits(params, 3)]
        assert [r.check for r in reports] == ["counting_bounds", "mass_bound",
                                              "class_limits"]
        for report in reports:
            payload = report.to_json_dict()
            assert set(payload) == REPORT_KEYS
            assert payload["pass"] is True and payload["first_violation"] is None
            assert payload["params"] == {"d": d, "p": params.p}

    def test_mass_bound_rejects_ratio_above_largest_limit(self, params, monkeypatch):
        # the cap is 40/31 * 2^-ms, ms = min_scale(level): a ratio of 3 * 2^-ms
        # fails it, and so does 2 * 2^-ms, which a cap of twice the supremum
        # would let pass
        for multiplier, ratio in ((3, "3/32"), (2, "1/16")):
            monkeypatch.setattr(dyadic, "count_sites", lambda params, level, horizon:
                                (multiplier * horizon) >> params.min_scale(level))
            report = verify_mass_bound(params, 3, 9)
            assert not report.passed
            assert report.first_violation == {
                "condition": "mass_bound", "level": 1, "q": 5,
                "ratio": ratio, "required": "5/124"}

    @pytest.mark.parametrize("mutant", ["adds", "drops"])
    def test_counting_bounds_rejects_a_moved_first_site(self, params, monkeypatch, mutant):
        # a strip_sites that adds lo or drops lo + m stays inside the window
        # [width/m - 2, width/m]; only the exact count width/m - 1 catches it
        first = 0 if mutant == "adds" else 2

        def moved(params, level, scale):
            lo, hi = dyadic.strip(level, scale)
            m = params.modulus(level)
            return range(lo + first * m, hi, m)

        monkeypatch.setattr(dyadic, "strip_sites", moved)
        report = verify_counting_bounds(params, 5)
        assert not report.passed
        assert report.first_violation == {
            "condition": "site_count", "level": 1, "scale": 5,
            "count": 2 - first, "required": 1}

    @pytest.mark.parametrize("max_level", [0, -3])
    @pytest.mark.parametrize("check, args", [
        (verify_counting_bounds, ()),
        (verify_mass_bound, (9,)),
        (verify_class_limits, ()),
    ], ids=["counting_bounds", "mass_bound", "class_limits"])
    def test_rejects_max_level_below_one(self, params, check, args, max_level):
        # no level to check must not read as a pass
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            check(params, max_level, *args)

    def test_ranges(self, params):
        assert verify_counting_bounds(params, 5).range_ == \
            {"max_level": 5, "max_scale": 26}
        # p = 19 puts level 5's smallest scale at 31, past 26: it is still read
        assert verify_counting_bounds(SeparationParams.with_min_p(524286), 5).range_ == \
            {"max_level": 5, "max_scale": 31}
        assert verify_mass_bound(params, 3, 9).range_ == \
            {"max_level": 3, "checkpoints": 9}
        assert verify_class_limits(params, 3).range_ == \
            {"max_level": 3, "q_range": [20, 32]}
        # d = 62 needs p = 6: min_scale(3) + 7 = 21 moves the window start
        assert verify_class_limits(SeparationParams.with_min_p(62), 3).range_ == \
            {"max_level": 3, "q_range": [22, 32]}

    def test_first_site_bound_lies_past_the_first_site(self):
        # selected scales are at most 3 apart, so a site lies below 2^(ms + 4)
        for p in range(21):
            params = SeparationParams(d=1, p=p)
            for level in range(1, 7):
                assert site_members(params, level, dyadic.first_site_bound(params, level))

    @pytest.mark.parametrize("d", [1, 2, 3, 14, 62, 100, 1000])
    def test_class_limits_pass_for_every_p(self, d):
        # the window starts 7 scales past the top level's smallest scale, so
        # no alignment exponent pushes it onto a ratio still far from its limit
        for p in range(min_alignment_exponent(d), 31):
            assert verify_class_limits(SeparationParams(d=d, p=p), 3).passed

    def test_class_limits_reject_an_off_by_one_count(self, monkeypatch):
        # one extra site at 2^23 moves the level-1 ratio by 2^-23, well inside
        # any percentage window; the exact shortfall catches it
        params = SeparationParams.with_min_p(1)
        true_count = dyadic.count_sites
        monkeypatch.setattr(dyadic, "count_sites", lambda params, level, horizon:
                            true_count(params, level, horizon)
                            + (level == 1 and horizon == 2 ** 23))
        report = verify_class_limits(params, 3)
        assert not report.passed
        assert report.first_violation == {
            "condition": "class_limit", "level": 1, "q": 22,
            "ratio": "338243/8388608", "limit": "5/124"}

    def test_class_limit_shortfall_holds_below_the_window(self):
        # at d = 62 (p = 6), level 3 has ms = 14, and q = 20 = ms + 6 lies
        # below verify_class_limits' window: the exact shortfall identity it
        # checks holds there too, so the window start only fixes the pinned
        # q_range
        params = SeparationParams.with_min_p(62)
        ms, q = params.min_scale(3), 20
        assert q - ms == 6 and verify_class_limits(params, 3).range_["q_range"][0] > q
        limit = scale_mass_limit(q % 5) / 2 ** ms
        ratio = Fraction(count_sites(params, 3, 2 ** (q + 1)), 2 ** (q + 1))
        shortfall = scale_mass_limit((ms - 1) % 5) + sum(
            j % 5 in (0, 2) for j in range(ms, q + 1))
        assert limit - ratio == shortfall / 2 ** (q + 1)


class TestSeparationParams:
    def test_modulus_and_min_scale(self, params):
        assert params.modulus(1) == 8
        assert params.min_scale(1) == 5
        assert params.min_scale(3) == 9

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            SeparationParams(d=0, p=1)

    def test_with_min_p(self):
        assert SeparationParams.with_min_p(2) == SeparationParams(d=2, p=2)
