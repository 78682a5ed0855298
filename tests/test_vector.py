import math
import random
from fractions import Fraction

import pytest

from orbitdensity import (
    AssembledVector,
    CoefficientBlock,
    GaussianRational,
    LevelBudgets,
    SeparationParams,
    SeriesOracle,
    ShiftOperator,
    approach_bound,
    build_level_budgets,
    checkpoint_count,
    checkpoint_schedule,
    checkpoints_between,
    dense_family_blocks,
    density_experiment,
    expansion_coefficient,
    one_block_family,
    predicted_density_limits,
    return_set,
    sign_cross_check,
    site_hit_count,
    site_members,
    tail_constant,
    vector_norm,
    verify_orbit_approach,
    verify_separation,
    zero_block,
)
from orbitdensity import dyadic
from orbitdensity import vector as vector_module
from orbitdensity.scalars import IMAG_UNIT, ONE, ZERO
from orbitdensity.shift import apply_power, functional_eval


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def separated(rows):
    """Every class-2 ratio strictly above every class-1 ratio among ``rows``."""
    class1 = [row.ratio for row in rows if row.label == dyadic.CLASS1]
    class2 = [row.ratio for row in rows if row.label == dyadic.CLASS2]
    return bool(class1 and class2 and max(class1) < min(class2))


def family_blocks(family, budgets):
    """A named family; ``hand-built`` mixes signs and places offsets at the
    radius, and its level 2 has no coefficient with positive real part."""
    if family == "one-block":
        return one_block_family(budgets)
    if family == "enumerated":
        return dense_family_blocks(budgets)
    blocks = one_block_family(budgets)
    tables = {
        1: {-2: gr(1), -1: gr(-1), 1: gr(0, 1), 2: gr(Fraction(1, 2), Fraction(-1, 2))},
        2: {-4: gr(-1), 0: gr(0, 1), 4: gr(-1, 1)},
        3: {-8: gr(2, 1), -3: gr(-1), 0: gr(1), 5: gr(0, -2), 8: gr(1, 1)},
        4: {-16: gr(Fraction(1, 3), 3)},
    }
    for level, coeffs in tables.items():
        blocks[level] = CoefficientBlock(level=level, coeffs=coeffs)
    return blocks


@pytest.fixture(scope="module")
def mixed_av(params, op, budgets):
    """Level-1 block with three distinct coefficients, to pin offset orientation."""
    blocks = one_block_family(budgets)
    blocks[1] = CoefficientBlock(
        level=1,
        coeffs={-1: gr(Fraction(-1, 2)), 0: ONE, 1: gr(Fraction(1, 2))},
    )
    return AssembledVector(params, op, budgets, blocks)


class TestBudgets:
    def test_partial_sum_value(self, op, budgets):
        expected = sum(s * tail_constant(op, s) for s in range(1, 7))
        assert budgets.weighted_partials[-1] == pytest.approx(expected, rel=1e-12)
        assert 0.44 < budgets.weighted_partials[-1] < 0.45

    def test_budget_values(self, budgets):
        assert [budgets.budget(s) for s in (1, 2, 5)] == [1, 2, 5]
        assert [LevelBudgets.budget(s) for s in (1, 2, 5)] == [1, 2, 5]

    def test_stabilization_guard(self, op):
        # the bound sums the assembled levels only, so every level count builds
        for max_level in range(1, 6):
            budgets = build_level_budgets(op, max_level)
            assert len(budgets.weighted_partials) == max_level
        with pytest.raises(ValueError):
            build_level_budgets(op, 0)

    def test_float_range_edge(self, op):
        # eps(1023) underflows to 0.0; 2^1024 itself exceeds the float range
        budgets = build_level_budgets(op, 1023)
        assert budgets.max_level == 1023
        assert budgets.tail_constants[-1] == 0.0
        with pytest.raises(ValueError):
            build_level_budgets(op, 1024)


class TestCoefficientBlock:
    def test_bound_enforced(self):
        # the block checks |a| <= c(level) = level when it is built
        with pytest.raises(ValueError, match="exceeds budget"):
            CoefficientBlock(level=1, coeffs={0: gr(2)})
        with pytest.raises(ValueError, match="exceeds budget"):
            CoefficientBlock(level=2, coeffs={0: gr(2, 1)})
        assert CoefficientBlock(level=2, coeffs={0: gr(2)}).max_abs() == 2.0
        assert CoefficientBlock(level=2, coeffs={0: gr(0, -2)}).max_abs() == 2.0

    def test_radius_enforced(self):
        with pytest.raises(ValueError):
            CoefficientBlock(level=1, coeffs={3: ONE})

    def test_positive_count(self):
        block = CoefficientBlock(
            level=2,
            coeffs={-1: gr(Fraction(1, 2)), 0: IMAG_UNIT, 2: gr(-1), 3: gr(1, 1)},
        )
        assert block.positive_count() == 2
        assert block.positive_offsets() == [-1, 3]

    def test_zero_block(self):
        block = zero_block(3)
        assert block.is_zero and block.positive_count() == 0
        assert block.level == 3 and block.radius == 8


class TestDenseFamily:
    def test_deterministic(self, budgets):
        first = dense_family_blocks(budgets)
        second = dense_family_blocks(budgets)
        assert {s: b.coeffs for s, b in first.items()} == \
            {s: b.coeffs for s, b in second.items()}

    def test_level_one_is_chain_origin(self, budgets):
        blocks = dense_family_blocks(budgets)
        assert blocks[1].coeffs == {0: ONE}

    def test_positive_block_by_level_three(self, budgets):
        blocks = dense_family_blocks(budgets)
        assert any(blocks[s].positive_count() for s in (1, 2, 3))

    def test_all_levels_filled(self, budgets, enumerated_av):
        # the assembly holds a block at every level, the family's own ones included
        blocks = dense_family_blocks(budgets)
        assert list(enumerated_av.blocks) == list(range(1, 7))
        for level, block in enumerated_av.blocks.items():
            assert block.level == level
            assert block.radius == 2 ** level
            assert block.coeffs == blocks[level].coeffs

    def test_families_return_only_placed_levels(self, budgets, one_block_av):
        assert list(one_block_family(budgets)) == [1]
        placed = dense_family_blocks(budgets)
        assert set(placed) <= set(range(1, 7))
        assert not any(block.is_zero for block in placed.values())
        # the assembly fills every level the family left out with the zero block
        assert list(one_block_av.blocks) == list(range(1, 7))
        assert all(one_block_av.blocks[level].is_zero for level in range(2, 7))
        assert one_block_av.active_levels == [1]

    def test_budget_respected(self, budgets):
        for level, block in dense_family_blocks(budgets).items():
            cap = budgets.budget(level) ** 2
            assert all(a.abs_sq() <= cap for a in block.coeffs.values())


class TestExpansionCoefficient:
    def test_window_orientation(self, mixed_av):
        # site 40 carries offsets: b(40-j) = a(j)
        assert expansion_coefficient(mixed_av, 40) == ONE
        assert expansion_coefficient(mixed_av, 39) == gr(Fraction(1, 2))
        assert expansion_coefficient(mixed_av, 41) == gr(Fraction(-1, 2))
        assert expansion_coefficient(mixed_av, 42) == ZERO
        assert expansion_coefficient(mixed_av, 43) == ZERO

    def test_one_block_values(self, one_block_av):
        assert expansion_coefficient(one_block_av, 40) == ONE
        assert expansion_coefficient(one_block_av, 43) == ZERO

    def test_uncovered_everywhere_else(self, one_block_av):
        members = set(site_members(one_block_av.params, 1, 4096))
        for n in range(1, 4096):
            expected = ONE if n in members else ZERO
            assert expansion_coefficient(one_block_av, n) == expected

    def test_orbit_functional_is_expansion(self, mixed_av, op):
        # coordinate 0 of T^n x equals b(n) for x = sum_i b(i) w^(-i) e_i
        horizon = 64
        x = lambda m: expansion_coefficient(mixed_av, m) * (op.weight ** -m)
        for n in range(1, horizon + 1):
            assert functional_eval(apply_power(op, x, n)) == \
                expansion_coefficient(mixed_av, n)


class TestSeriesOracle:
    def test_agrees_with_exact_route(self, enumerated_av):
        oracle = SeriesOracle(enumerated_av, 2 ** 11)
        for n in range(1, 2 ** 11 + 1):
            assert oracle.value(n) == expansion_coefficient(enumerated_av, n)

    def test_no_sign_disagreements(self, enumerated_av):
        oracle = SeriesOracle(enumerated_av, 2 ** 11)
        assert sign_cross_check(enumerated_av, oracle, 2 ** 11) == []

    @pytest.mark.parametrize("family", ["one_block_av", "enumerated_av"])
    def test_independent_of_membership_route(self, family, request, monkeypatch):
        # the oracle must reach its values without the route it checks
        av = request.getfixturevalue(family)
        horizon = 2 ** 12
        expected = [expansion_coefficient(av, n) for n in range(1, horizon + 1)]

        def forbidden(*args):
            raise AssertionError("SeriesOracle reached the membership route")

        monkeypatch.setattr(vector_module, "in_site_set", forbidden)
        monkeypatch.setattr(vector_module, "expansion_coefficient", forbidden)
        oracle = SeriesOracle(av, horizon)
        assert [oracle.value(n) for n in range(1, horizon + 1)] == expected

    def test_flags_series_value_at_exact_zero(self, one_block_av):
        # b(3) = 0, but an oracle reading 5 there must still be flagged
        av = one_block_av
        assert expansion_coefficient(av, 3) == ZERO

        class StubOracle:
            horizon = 64

            def value(self, n):
                return gr(5) if n == 3 else expansion_coefficient(av, n)

        assert sign_cross_check(av, StubOracle(), 64) == [3]

    def test_flags_difference_with_same_sign(self, one_block_av):
        # b(40) = 1; an oracle reading 1 + i agrees in sign but not in value
        av = one_block_av
        assert expansion_coefficient(av, 40).re > 0

        class StubOracle:
            horizon = 64

            def value(self, n):
                exact = expansion_coefficient(av, n)
                return exact + IMAG_UNIT if n == 40 else exact

        assert sign_cross_check(av, StubOracle(), 64) == [40]

    def test_horizon_guard(self, one_block_av):
        oracle = SeriesOracle(one_block_av, 100)
        with pytest.raises(ValueError):
            oracle.value(101)


class TestHitCounts:
    def test_one_block(self, one_block_av):
        assert site_hit_count(one_block_av, 1) == 1
        assert site_hit_count(one_block_av, 2) == 0

    def test_mixed_block(self, mixed_av):
        assert site_hit_count(mixed_av, 1) == 2

    def test_enumerated(self, enumerated_av):
        counts = {level: site_hit_count(enumerated_av, level)
                  for level in range(1, 7)}
        assert counts == {1: 1, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1}

    def test_window_cap(self, enumerated_av):
        d = enumerated_av.params.d
        for level in range(1, 7):
            assert site_hit_count(enumerated_av, level, verify=False) <= \
                2 ** (level + 1) + 2 * d + 1

    def test_planted_coefficient_fails(self, one_block_av, monkeypatch):
        # a positive b(n) inside level 1's first-site window breaks the count
        k = site_members(one_block_av.params, 1, 2 ** 10)[0]
        real = vector_module.expansion_coefficient
        monkeypatch.setattr(vector_module, "expansion_coefficient",
                            lambda av, n: ONE if n == k + 2 else real(av, n))
        assert site_hit_count(one_block_av, 1, verify=False) == 1
        with pytest.raises(RuntimeError):
            site_hit_count(one_block_av, 1, verify=True)

    def test_cost_guard(self, enumerated_av, monkeypatch):
        # verify reads one window of the assembled vector, nothing more
        real = vector_module.expansion_coefficient
        calls = []

        def counting(av, n):
            calls.append(n)
            return real(av, n)

        monkeypatch.setattr(vector_module, "expansion_coefficient", counting)
        d = enumerated_av.params.d
        for level in range(1, 7):
            calls.clear()
            site_hit_count(enumerated_av, level, verify=True)
            assert len(calls) == 2 ** (level + 1) + 2 * d + 1

    def test_independent_of_site(self, enumerated_av):
        # direct window tally at sampled sites must reproduce the block count
        rng = random.Random(4)
        for level in (1, 5, 6):
            expected = site_hit_count(enumerated_av, level, verify=False)
            members = site_members(enumerated_av.params, level, 2 ** 18)
            for k in rng.sample(members, 5):
                radius = 2 ** level + enumerated_av.params.d
                tally = sum(
                    1 for n in range(k - radius, k + radius + 1)
                    if expansion_coefficient(enumerated_av, n).re > 0
                )
                assert tally == expected


class TestReturnSet:
    def test_one_block_small(self, one_block_av):
        assert return_set(one_block_av, 64, method="scan").members == (40,)
        assert return_set(one_block_av, 64, method="sites").members == (40,)

    def test_methods_agree(self, enumerated_av):
        horizon = 2 ** 14
        scan = return_set(enumerated_av, horizon, method="scan")
        sites = return_set(enumerated_av, horizon, method="sites")
        assert scan.members == sites.members

    @pytest.mark.parametrize("d, p", [(1, 1), (2, 2), (3, 2), (1, 3)])
    @pytest.mark.parametrize("family", ["one-block", "enumerated", "hand-built"])
    def test_scan_equals_per_index_reference(self, op, budgets, family, d, p):
        av = AssembledVector(SeparationParams(d=d, p=p), op, budgets,
                             family_blocks(family, budgets))
        horizon = 2 ** 14
        expected = [n for n in range(1, horizon + 1)
                    if expansion_coefficient(av, n).re > 0]
        assert expected
        # horizons just above early members leave their sites outside [1, horizon]
        for cut in [n + 1 for n in expected[:16]] + [horizon]:
            assert list(return_set(av, cut, method="scan").members) == \
                [n for n in expected if n <= cut]

    def test_scan_needs_no_site_lists(self, enumerated_av, monkeypatch):
        # the scan is the modular route; it must not lean on the site lists
        horizon = 2 ** 14
        expected = return_set(enumerated_av, horizon, method="sites").members

        def forbidden(*args):
            raise AssertionError("scan reached the site-list route")

        monkeypatch.setattr(dyadic, "strip_sites", forbidden)
        monkeypatch.setattr(dyadic, "site_members", forbidden)
        monkeypatch.setattr(vector_module, "site_members", forbidden)
        assert return_set(enumerated_av, horizon, method="scan").members == expected

    def test_scan_cost_guard(self, enumerated_av, monkeypatch):
        # the scan confirms candidates around sites, never every index
        horizon = 2 ** 18
        calls = 0
        exact = vector_module.expansion_coefficient

        def counted(av, n):
            nonlocal calls
            calls += 1
            return exact(av, n)

        monkeypatch.setattr(vector_module, "expansion_coefficient", counted)
        assert return_set(enumerated_av, horizon, method="scan").members
        assert calls < horizon // 8

    def test_members_near_sites(self, enumerated_av):
        rs = return_set(enumerated_av, 2 ** 13, method="sites")
        for n in rs.members:
            close = any(
                abs(n - k) <= 2 ** level
                for level in enumerated_av.active_levels
                for k in site_members(enumerated_av.params, level, 2 ** 13 + 2 ** level)
            )
            assert close

    def test_decomposition_identity_small(self, enumerated_av):
        for horizon in (64, 256, 2048, 8192):
            direct = len(return_set(enumerated_av, horizon, method="scan").members)
            assert direct == checkpoint_count(enumerated_av, horizon)

    def test_checkpoint_count_rejects_plain_horizon(self, one_block_av):
        with pytest.raises(ValueError):
            checkpoint_count(one_block_av, 1000)


class TestPredictedLimits:
    def test_one_block(self, one_block_av):
        lower, upper = predicted_density_limits(one_block_av)
        assert (lower, upper) == (Fraction(9, 248), Fraction(5, 124))

    def test_enumerated(self, enumerated_av):
        lower, upper = predicted_density_limits(enumerated_av)
        assert (lower, upper) == (Fraction(9261, 253952), Fraction(5145, 126976))

    def test_ratio_is_ten_ninths(self, one_block_av, enumerated_av):
        for av in (one_block_av, enumerated_av):
            lower, upper = predicted_density_limits(av)
            assert upper / lower == Fraction(10, 9)

    def test_all_zero_family_rejected(self, params, op, budgets):
        for blocks in ({s: zero_block(s) for s in range(1, 7)}, {}):
            av = AssembledVector(params, op, budgets, blocks)
            with pytest.raises(ValueError):
                predicted_density_limits(av)


class TestApproachBound:
    def test_level_one_value(self, one_block_av, op):
        expected = sum(s * tail_constant(op, s) for s in range(1, 40))
        assert approach_bound(one_block_av, 1) == pytest.approx(expected, rel=1e-12)

    def test_level_two_value(self, one_block_av, op):
        expected = tail_constant(op, 2) + \
            sum(s * tail_constant(op, s) for s in range(2, 40))
        assert approach_bound(one_block_av, 2) == pytest.approx(expected, rel=1e-12)

    def test_slow_weight_tail(self, params):
        # at w = 1001/1000 the terms s * eps(s) still grow past smax = 2, and
        # the levels above smax, which carry no block, add nothing
        op = ShiftOperator(weight=Fraction(1001, 1000))
        budgets = build_level_budgets(op, 2)
        av = AssembledVector(params, op, budgets, one_block_family(budgets))
        assert approach_bound(av, 1) == 1 * tail_constant(op, 1) + 2 * tail_constant(op, 2)

    def test_rejects_level_outside_assembly(self, one_block_av):
        for level in (0, one_block_av.max_level + 1):
            with pytest.raises(ValueError):
                approach_bound(one_block_av, level)

    def test_vanishes_with_level(self, one_block_av):
        bounds = [approach_bound(one_block_av, r) for r in range(1, 7)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))
        assert bounds[3] < 1e-3  # any target gap is beaten from some level on


class TestOrbitApproach:
    def test_one_block_site(self, one_block_av):
        assert verify_orbit_approach(one_block_av, 1, 40)

    def test_zero_block_level(self, one_block_av):
        n = site_members(one_block_av.params, 2, 2 ** 10)[0]
        assert verify_orbit_approach(one_block_av, 2, n)

    def test_enumerated_levels(self, enumerated_av):
        rng = random.Random(11)
        for level in range(1, 5):
            members = site_members(enumerated_av.params, level, 2 ** 16)
            for n in rng.sample(members, 3):
                assert verify_orbit_approach(enumerated_av, level, n)

    def test_rejects_non_site(self, one_block_av):
        with pytest.raises(ValueError):
            verify_orbit_approach(one_block_av, 1, 41)

    @pytest.mark.parametrize("space", [2.0, math.inf, 3.0], ids=["l2", "c0", "lp3"])
    @pytest.mark.parametrize("family", ["one-block", "enumerated"])
    def test_slow_weight(self, params, space, family):
        # at w = 11/10 the levels above smax = 6 would add 3e-5 to 9e-5 to the
        # bound at every level; the orbit points still meet the finite sum
        op = ShiftOperator(weight=Fraction(11, 10), space_exponent=space)
        budgets = build_level_budgets(op, 6)
        av = AssembledVector(params, op, budgets, family_blocks(family, budgets))
        rng = random.Random(5)
        for level in range(1, 5):
            for n in rng.sample(site_members(params, level, 2 ** 16), 3):
                assert verify_orbit_approach(av, level, n)

    def test_per_level_mass(self, enumerated_av, op):
        # the full level-s layer alone obeys budget * tail_constant
        av = enumerated_av
        for level in (1, 2):
            block = av.blocks[level]
            members = site_members(av.params, level, 2 ** 12)

            def layer_coeff(m, _members=set(members), _block=block, _level=level):
                k = m + _block.radius
                k -= k % av.params.modulus(_level)
                if k in _members and abs(k - m) <= _block.radius:
                    a = _block.a(k - m)
                    return a * (op.weight ** -m) if a else ZERO
                return ZERO

            estimate = vector_norm(op, layer_coeff, 0, 2 ** 12)
            cap = float(av.budgets.budget(level)) * tail_constant(op, level)
            assert estimate.value <= cap + 1e-9


class TestDensityExperiment:
    def test_one_block_tail(self, one_block_av):
        schedule = checkpoints_between(one_block_av.params, 20, 32)
        experiment = density_experiment(one_block_av, schedule)
        assert experiment.separation_flag
        for row in experiment.rows:
            tolerance = Fraction(3, 100) * row.predicted
            assert abs(row.ratio - row.predicted) <= tolerance

    def test_early_checkpoints_not_separated(self, one_block_av):
        schedule = checkpoint_schedule(one_block_av.params, 5)
        experiment = density_experiment(one_block_av, schedule)
        assert not experiment.separation_flag  # oscillation needs the tail

    def test_tail_window_restores_separation(self, one_block_av):
        # over all nine rows the classes overlap; over the last six they do not
        schedule = checkpoint_schedule(one_block_av.params, 9)
        experiment = density_experiment(one_block_av, schedule)
        assert not separated(experiment.rows)
        assert separated(experiment.rows[-6:])
        assert experiment.separation_flag
        assert experiment.tail_window == 6

    @pytest.mark.parametrize("checkpoints, window", [(5, 5), (9, 6), (12, 6)])
    def test_flag_reads_last_six_rows(self, one_block_av, monkeypatch,
                                      checkpoints, window):
        schedule = checkpoint_schedule(one_block_av.params, checkpoints)
        experiment = density_experiment(one_block_av, schedule)
        assert experiment.tail_window == window
        assert experiment.separation_flag == separated(experiment.rows[-window:])
        # a class-1 ratio of 1 breaks separation exactly when the flag reads its row
        real = vector_module.checkpoint_count
        for position, row in enumerate(experiment.rows):
            if row.label != dyadic.CLASS1:
                continue
            monkeypatch.setattr(
                vector_module, "checkpoint_count",
                lambda av, n, _h=row.horizon: n if n == _h else real(av, n))
            planted = density_experiment(one_block_av, schedule)
            inside = position >= len(experiment.rows) - window
            assert planted.separation_flag == (experiment.separation_flag and not inside)

    def test_exact_counts(self, one_block_av):
        schedule = checkpoint_schedule(one_block_av.params, 5)
        experiment = density_experiment(one_block_av, schedule)
        assert [row.count for row in experiment.rows] == [1, 8, 71, 326, 2373]

    def test_csv_golden(self, one_block_av):
        schedule = checkpoint_schedule(one_block_av.params, 2)
        experiment = density_experiment(one_block_av, schedule)
        assert ",".join(experiment.CSV_HEADER) == \
            "l,q,horizon,class,count,ratio_num,ratio_den,ratio_float,predicted_float"
        assert experiment.csv_rows()[0] == \
            (1, 5, 64, "CLASS1", 1, 1, 64, 0.015625, 9 / 248)

    def test_json_schema(self, one_block_av):
        schedule = checkpoint_schedule(one_block_av.params, 3)
        payload = density_experiment(one_block_av, schedule).to_json_dict()
        assert set(payload) == {"tail_window", "r_values", "predicted_lower",
                                "predicted_upper", "separation_flag", "checkpoints"}
        assert payload["r_values"]["1"] == 1
        assert payload["predicted_lower"]["num"] == 9
        assert payload["predicted_lower"]["den"] == 248
        assert payload["checkpoints"][0] == {
            "l": 1, "q": 5, "horizon": 64, "class": "CLASS1", "count": 1,
            "ratio_num": 1, "ratio_den": 64, "ratio_float": 0.015625,
            "predicted_float": 9 / 248}


class TestAssembly:
    def test_rejects_inadmissible_params(self, op, budgets):
        with pytest.raises(ValueError):
            AssembledVector(SeparationParams(d=1, p=0), op, budgets,
                            one_block_family(budgets))

    def test_rejects_overweight_block(self, params, op, budgets):
        # a block within budget at level 2 is over budget at level 1: the
        # level check keeps it out of that slot
        blocks = one_block_family(budgets)
        blocks[1] = CoefficientBlock(level=2, coeffs={0: gr(2)})
        with pytest.raises(ValueError):
            AssembledVector(params, op, budgets, blocks)

    def test_exhaustive_horizon_check(self, one_block_av):
        # the closed-form spacing the constructor enforces holds member by member
        report = verify_separation(one_block_av.params, one_block_av.max_level, 2 ** 12)
        assert report.passed

    def test_sign_pattern_mass(self, enumerated_av, op):
        # truncated sign-flipped expansions stay within the budgeted series mass
        rng = random.Random(23)
        horizon = 2 ** 12
        support = [(n, expansion_coefficient(enumerated_av, n))
                   for n in range(1, horizon + 1)]
        support = [(n, a) for n, a in support if a]
        cap = sum(float(enumerated_av.budgets.budget(s)) * tail_constant(op, s)
                  for s in range(1, 7))
        for _ in range(50):
            flips = {n: rng.choice((1, -1)) for n, _ in support}
            table = {n: a * flips[n] * (op.weight ** -n) for n, a in support}
            estimate = vector_norm(op, lambda m: table.get(m, ZERO),
                                   support[0][0], support[-1][0] + 1)
            assert estimate.value <= cap + 1e-9
