import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbitdensity import (
    GaussianRational,
    ShiftOperator,
    tail_constant,
    vector_norm,
)
from orbitdensity.scalars import ONE, ZERO

SPACES = {"l2": 2.0, "c0": math.inf, "lp:3": 3.0, "lp:1000": 1000.0}


def table(coeffs):
    """Vector with the given coefficients, 0 elsewhere."""
    return lambda m: coeffs.get(m, ZERO)


def basis(index):
    return table({index: ONE})


class FloatCoeff(complex):
    """Float coefficient with the one method ``vector_norm`` reads."""

    def abs_sq(self):
        return self.real ** 2 + self.imag ** 2


def chain_sum_norm(op, indices, weights):
    """Norm of sum_n weights[n] * w^(-n) e_n (the inverse-orbit chain), summed
    over [min, max] of the indices.

    The coefficients are floats: the bound is a float comparison anyway, and
    exact rationals would make the randomized sweep slow.
    """
    w = op.weight_float
    coeffs = {n: FloatCoeff(b * w ** -n) for n, b in zip(indices, weights)}
    if not coeffs:
        return 0.0
    zero = FloatCoeff()
    return vector_norm(op, lambda m: coeffs.get(m, zero), min(coeffs), max(coeffs) + 1)


class TestScalars:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        b = GaussianRational(Fraction(2), Fraction(-1))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
        assert a * 2 == GaussianRational(Fraction(1), Fraction(2, 3))
        assert -a == GaussianRational(Fraction(-1, 2), Fraction(-1, 3))

    def test_abs_sq_exact(self):
        a = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert a.abs_sq() == 1

    def test_truthiness(self):
        assert not ZERO
        assert ONE and GaussianRational(0, 1)

    @given(st.fractions(), st.fractions())
    @example(Fraction(0), Fraction(0))
    @example(Fraction(0), Fraction(1))
    def test_re_positive_is_rational_sign(self, re, im):
        assert GaussianRational(re, im).re_positive() == (re > 0)

    def test_complex_conversion(self):
        assert complex(GaussianRational(Fraction(1, 4), Fraction(-2))) == 0.25 - 2j

    @given(st.one_of(st.integers(), st.fractions()), st.one_of(st.integers(), st.fractions()))
    def test_parts_stay_fractions_and_hash_with_value(self, re, im):
        # ints are wrapped, Fractions kept; equal values hash equal however
        # they were built, and no GaussianRational equals a plain number
        a = GaussianRational(re, im)
        assert type(a.re) is Fraction and type(a.im) is Fraction
        b = GaussianRational(Fraction(re), Fraction(im))
        assert a == b and hash(a) == hash(b) == hash((Fraction(re), Fraction(im)))
        assert a == GaussianRational(a.re, a.im) and not a != b
        assert a != GaussianRational(Fraction(re) + 1, im)
        assert GaussianRational() != 0 and ZERO != 0 and a != re

    def test_zero_equals_itself_and_fresh_zeros(self):
        assert ZERO == ZERO == GaussianRational() == GaussianRational(0, Fraction(0))
        assert hash(ZERO) == hash(GaussianRational(0, 0))


class TestOperator:
    def test_rejects_weight_at_most_one(self):
        with pytest.raises(ValueError):
            ShiftOperator(weight=Fraction(1))

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ShiftOperator(space_exponent=0.5)


class TestTailConstant:
    def test_level_one_l2(self, op):
        assert tail_constant(op, 1) == pytest.approx(0.2886751345948129, abs=1e-12)

    def test_level_one_sup(self):
        op = ShiftOperator(space_exponent=math.inf)
        assert tail_constant(op, 1) == 0.25

    @pytest.mark.parametrize("weight", [Fraction(2), Fraction(3, 2)], ids=["2", "3/2"])
    def test_sup_is_the_head_exactly(self, weight):
        # c0 is the exponent inf of the one formula: its factor is exactly 1
        op = ShiftOperator(weight=weight, space_exponent=math.inf)
        for s in range(1, 11):
            assert tail_constant(op, s) == op.weight_float ** -(2 ** s)

    def test_doubly_exponential_ratio(self, op):
        for s in range(1, 6):
            ratio = tail_constant(op, s + 1) / tail_constant(op, s)
            assert ratio == pytest.approx(2.0 ** -(2 ** s), rel=1e-9, abs=0)

    def test_decreasing_to_zero(self, op):
        values = [tail_constant(op, s) for s in range(1, 11)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-150

    def test_level_beyond_float_range(self, op):
        # 2^1023 still converts to a float; 2^1024 does not
        assert tail_constant(op, 1023) == 0.0
        with pytest.raises(ValueError, match="level 1024"):
            tail_constant(op, 1024)

    def test_huge_level_rejected_without_its_power(self, op):
        # the exact 2^(10^8) alone would take 12.5 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="level 100000000"):
                tail_constant(op, 10 ** 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestVectorNorm:
    def test_basis_norm(self, op):
        assert vector_norm(op, basis(0), 0, 1) == 1.0

    def test_geometric_tail_closed_form(self, op):
        # coefficients 2^-m from index 2 on: squared sum 4^-2/(1 - 1/4) = 1/12
        vec = lambda m: GaussianRational(Fraction(1, 2 ** m))
        upper = vector_norm(op, vec, 2, decay=(1.0, 0.5), tail_tol=1e-13)
        truth = math.sqrt(1.0 / 12.0)
        assert truth <= upper <= truth + 2e-13
        assert truth == pytest.approx(tail_constant(op, 1), abs=1e-9)

    def test_zero_cap_reads_no_coordinate(self, op):
        # a cap of 0 certifies the vector is zero from start on: the scan
        # stops before the first coordinate and the bound is exactly 0.0
        reads = []
        vec = lambda m: reads.append(m) or ZERO
        assert vector_norm(op, vec, 3, decay=(0.0, 0.5)) == 0.0
        assert reads == []

    def test_missing_certificate_raises(self, op):
        with pytest.raises(ValueError, match="without decay certificate"):
            vector_norm(op, lambda m: ONE, 0)
        with pytest.raises(ValueError, match="decay ratio"):
            vector_norm(op, lambda m: ONE, 0, decay=(1, 1.0))

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-12])
    def test_tail_tol_must_be_positive(self, op, tail_tol):
        # the remainder never drops to a tolerance <= 0, so the scan would not end
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            vector_norm(op, lambda m: ONE, 0, decay=(1.0, 0.5), tail_tol=tail_tol)

    def test_sup_norm(self):
        op = ShiftOperator(space_exponent=math.inf)
        vec = table({1: GaussianRational(Fraction(3)), 4: GaussianRational(Fraction(-5))})
        assert vector_norm(op, vec, 0, 5) == 5.0

    @pytest.mark.parametrize("exponent", [200.0, 1000.0, 1e308])
    def test_large_exponent_does_not_underflow(self, exponent):
        # (1/1000)^p underflows to 0.0; scaled by the largest modulus the one
        # term is 1, and the norm is the modulus
        op = ShiftOperator(space_exponent=exponent)
        vec = table({0: GaussianRational(Fraction(1, 1000))})
        assert vector_norm(op, vec, 0, 1) >= 1 / 1000 * (1 - 1e-12)

    @pytest.mark.parametrize("space", ["l2", "lp:3", "lp:1000", "c0"])
    def test_tiny_modulus_is_kept(self, space):
        # the square 2^-1200 underflows a float; the modulus 2^-600 does not,
        # and it is read off the exact square, so the norm is not 0.0
        op = ShiftOperator(space_exponent=SPACES[space])
        vec = table({0: GaussianRational(Fraction(1, 2 ** 600))})
        assert math.isclose(vector_norm(op, vec, 0, 1), 2.0 ** -600, rel_tol=1e-15)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("zero", [ZERO, FloatCoeff()], ids=["exact", "float"])
    def test_interleaved_zeros_change_nothing(self, space, zero):
        # zero coordinates are skipped, so the norm is bit-identical to the
        # norm of the nonzeros alone
        op = ShiftOperator(space_exponent=SPACES[space])
        parts = ((1, 2), (-5, 0), (0, 4), (7, -3), (2, 2))
        if zero is ZERO:
            values = [GaussianRational(Fraction(u, 3), Fraction(v, 7)) for u, v in parts]
        else:
            values = [FloatCoeff(u / 3, v / 7) for u, v in parts]
        dense = dict(enumerate(values))
        sparse = {3 * m + 1: value for m, value in dense.items()}
        alone = vector_norm(op, lambda m: dense.get(m, zero), 0, len(values))
        interleaved = vector_norm(op, lambda m: sparse.get(m, zero), 0, 3 * len(values) + 2)
        assert alone > 0 and interleaved == alone

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
            norm_sum = vector_norm(op, table(both), 0, 12)
            separate = vector_norm(op, table(a), 0, 12) + vector_norm(op, table(b), 0, 12)
            assert norm_sum <= separate + 1e-9


class TestTailBound:
    """Weighted chain sums over indices >= 2^level stay within
    tail_constant * max|weight|, in every space (1e-9 relative slack)."""

    def test_single_index(self):
        for exponent in SPACES.values():
            op = ShiftOperator(space_exponent=exponent)
            value = chain_sum_norm(op, [2], [1.0])
            assert value == op.weight_float ** -2
            assert value <= tail_constant(op, 1) * (1.0 + 1e-9)

    @pytest.mark.parametrize("level", range(1, 7))
    def test_randomized_patterns(self, level):
        floor = 2 ** level
        for exponent in SPACES.values():
            op = ShiftOperator(space_exponent=exponent)
            rng = random.Random(1000 + level)
            for _ in range(1000):
                size = rng.randint(0, 40)
                indices = rng.sample(range(floor, floor + 120), size)
                weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in indices]
                bound = tail_constant(op, level) * max(map(abs, weights), default=0.0)
                assert chain_sum_norm(op, indices, weights) <= bound * (1.0 + 1e-9)

    def test_constant_weights_approach_constant(self):
        # long constant-weight prefix gets within a hair of the tail constant
        level = 1
        indices = list(range(2, 120))
        for exponent in SPACES.values():
            op = ShiftOperator(space_exponent=exponent)
            value = chain_sum_norm(op, indices, [1.0] * len(indices))
            assert value <= tail_constant(op, level) * (1.0 + 1e-9)
            assert value == pytest.approx(tail_constant(op, level), rel=1e-9, abs=0)
