import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdensity import (
    GaussianRational,
    LazyVector,
    ShiftOperator,
    apply_power,
    chain_vector,
    check_tail_bound,
    functional_eval,
    tail_constant,
    vector_norm,
    verify_chain_spans,
)
from orbitdensity.scalars import IMAG_UNIT, ONE, ZERO
from orbitdensity.shift import NormCertificateError


class TestScalars:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(Fraction(2), Fraction(-1))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
        assert (a * b).re == Fraction(1) + Fraction(1, 3)
        assert a * 2 == GaussianRational(Fraction(1), Fraction(2, 3))
        assert -a == GaussianRational(Fraction(-1, 2), Fraction(-1, 3))

    def test_abs_sq_exact(self):
        a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert a.abs_sq() == 1

    def test_truthiness(self):
        assert not ZERO
        assert ONE and IMAG_UNIT

    def test_complex_conversion(self):
        assert complex(GaussianRational(Fraction(1, 4), Fraction(-2))) == 0.25 - 2j


class TestOperator:
    def test_rejects_weight_at_most_one(self):
        with pytest.raises(ValueError):
            ShiftOperator(weight=Fraction(1))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ShiftOperator(space_exponent=0.5)

    def test_sup_space(self):
        op = ShiftOperator(space_exponent=math.inf)
        assert op.is_sup_space


class TestChain:
    def test_negative_step_vanishes(self, op):
        vec = chain_vector(op, -1)
        assert all(not vec.coeff(m) for m in range(8))

    def test_step_three(self, op):
        vec = chain_vector(op, 3)
        assert vec.coeff(3) == GaussianRational(Fraction(1, 8))
        assert not vec.coeff(2) and not vec.coeff(4)

    def test_forward_consistency(self, op):
        # applying the operator to step n gives step n-1
        for n in range(1, 9):
            stepped = apply_power(op, chain_vector(op, n), 1)
            target = chain_vector(op, n - 1)
            assert all(stepped.coeff(m) == target.coeff(m) for m in range(12))

    def test_spanning_triangularity(self, op):
        assert verify_chain_spans(op, 10)


class TestApplyPower:
    def test_identity(self, op):
        vec = LazyVector.basis(2, ONE)
        assert apply_power(op, vec, 0) is vec

    def test_shift_to_origin(self, op):
        vec = apply_power(op, LazyVector.basis(5, ONE), 5)
        assert vec.coeff(0) == GaussianRational(Fraction(32))
        assert not vec.coeff(1)

    def test_shift_past_origin(self, op):
        vec = apply_power(op, LazyVector.basis(3, ONE), 5)
        assert all(not vec.coeff(m) for m in range(10))

    def test_functional_identity(self, op):
        # functional(power n of v) = w^n * v.coeff(n), exactly
        coeffs = {0: ONE, 3: GaussianRational(Fraction(1, 2), Fraction(1, 4)),
                  7: IMAG_UNIT}
        vec = LazyVector.from_coeffs(coeffs)
        for n in range(9):
            expected = (op.weight ** n) * vec.coeff(n)
            assert functional_eval(apply_power(op, vec, n)) == expected


class TestFunctional:
    def test_basis_values(self, op):
        assert functional_eval(LazyVector.basis(0, ONE)) == ONE
        assert not functional_eval(LazyVector.basis(1, ONE))

    def test_support_is_origin_only(self, op):
        # pairing with every chain step vanishes except at step 0
        for step in range(-10, 11):
            value = functional_eval(chain_vector(op, -step))
            assert bool(value) == (step == 0)


class TestTailConstant:
    def test_level_one_l2(self, op):
        assert tail_constant(op, 1) == pytest.approx(0.2886751345948129, abs=1e-12)

    def test_level_one_sup(self):
        op = ShiftOperator(space_exponent=math.inf)
        assert tail_constant(op, 1) == 0.25

    def test_doubly_exponential_ratio(self, op):
        for s in range(1, 6):
            ratio = tail_constant(op, s + 1) / tail_constant(op, s)
            assert ratio == pytest.approx(2.0 ** -(2 ** s), rel=1e-9)

    def test_decreasing_to_zero(self, op):
        values = [tail_constant(op, s) for s in range(1, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-150


class TestVectorNorm:
    def test_basis_norm(self, op):
        estimate = vector_norm(op, LazyVector.basis(0, ONE))
        assert estimate.value == 1.0
        assert estimate.tail_bound == 0.0

    def test_geometric_tail_closed_form(self, op):
        # coefficients 2^-m from index 2 on: squared sum 4^-2/(1 - 1/4) = 1/12
        vec = LazyVector(
            coeff_fn=lambda m: GaussianRational(Fraction(1, 2 ** m)) if m >= 2 else ZERO,
            spans=((2, None),),
            decay=(1.0, 0.5),
        )
        estimate = vector_norm(op, vec, tail_tol=1e-13)
        truth = math.sqrt(1.0 / 12.0)
        assert estimate.value <= truth <= estimate.upper
        assert estimate.upper - estimate.value <= 2e-13
        assert truth == pytest.approx(tail_constant(op, 1), abs=1e-9)

    def test_missing_certificate_raises(self, op):
        vec = LazyVector(coeff_fn=lambda m: ONE, spans=((0, None),))
        with pytest.raises(NormCertificateError):
            vector_norm(op, vec)

    def test_sup_norm(self):
        op = ShiftOperator(space_exponent=math.inf)
        vec = LazyVector.from_coeffs({1: GaussianRational(Fraction(3)),
                                      4: GaussianRational(Fraction(-5))})
        assert vector_norm(op, vec).value == 5.0

    def test_triangle_inequality_seeded(self, op):
        rng = random.Random(7)
        for _ in range(50):
            a = {rng.randrange(12): GaussianRational(Fraction(rng.randint(-8, 8), 4),
                                                     Fraction(rng.randint(-8, 8), 4))
                 for _ in range(rng.randint(1, 6))}
            b = {rng.randrange(12): GaussianRational(Fraction(rng.randint(-8, 8), 4),
                                                     Fraction(rng.randint(-8, 8), 4))
                 for _ in range(rng.randint(1, 6))}
            both = {m: a.get(m, ZERO) + b.get(m, ZERO) for m in set(a) | set(b)}
            norm_sum = vector_norm(op, LazyVector.from_coeffs(both)).value
            separate = vector_norm(op, LazyVector.from_coeffs(a)).value + \
                vector_norm(op, LazyVector.from_coeffs(b)).value
            assert norm_sum <= separate + 1e-9


class TestTailBound:
    def test_single_index(self, op):
        assert check_tail_bound(op, 1, [2], [1.0])
        value = op.weight_float ** -2
        assert value <= tail_constant(op, 1)

    def test_empty(self, op):
        assert check_tail_bound(op, 1, [], [])

    def test_negative_indices_dropped(self, op):
        assert check_tail_bound(op, 2, [-6, 4, 9], [1.0, 1.0, -1.0])

    def test_rejects_shallow_index(self, op):
        with pytest.raises(ValueError):
            check_tail_bound(op, 3, [4], [1.0])

    @pytest.mark.parametrize("level", range(1, 7))
    def test_randomized_patterns(self, op, level):
        rng = random.Random(1000 + level)
        floor = 2 ** level
        for _ in range(1000):
            size = rng.randint(0, 40)
            indices = rng.sample(range(floor, floor + 120), size)
            weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in indices]
            assert check_tail_bound(op, level, indices, weights)

    def test_constant_weights_approach_constant(self, op):
        # long constant-weight prefix gets within a hair of the tail constant
        level = 1
        indices = list(range(2, 120))
        weights = [1.0] * len(indices)
        w = op.weight_float
        value = sum(w ** (-2 * n) for n in indices) ** 0.5
        assert value <= tail_constant(op, level)
        assert value == pytest.approx(tail_constant(op, level), rel=1e-9)


@given(st.integers(1, 8), st.integers(0, 40))
@settings(max_examples=80)
def test_chain_coefficients_exact(level, offset):
    op = ShiftOperator()
    step = 2 ** level + offset
    vec = chain_vector(op, step)
    assert vec.coeff(step) == GaussianRational(Fraction(1, 2 ** step))
