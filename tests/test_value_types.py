"""The package's value types: immutable, compared by value, cheap to import.

Every run imports the package first, and ``@dataclass`` generates each
class's code at import, so ``cli.RunConfig`` is the one dataclass left: the
CLI builds its parser from ``fields(RunConfig)``.  The records are
``NamedTuple``s and the checked value types share ``scalars.Frozen``.
"""

import copy
import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import pytest

from orbitdensity import cli, densities, dyadic, scalars, shift, vector
from orbitdensity.dyadic import SeparationParams
from orbitdensity.scalars import GaussianRational, ONE, ZERO
from orbitdensity.shift import ShiftOperator
from orbitdensity.vector import CoefficientBlock


def test_only_run_config_is_a_dataclass():
    found = [obj for module in (cli, densities, dyadic, scalars, shift, vector)
             for _, obj in inspect.getmembers(module, inspect.isclass)
             if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)]
    assert found == [cli.RunConfig]


# (build, field names, hashable); each build makes a fresh, equal value
VALUES = {
    "params": (lambda: SeparationParams(d=3, p=2), ("d", "p"), True),
    "operator": (lambda: ShiftOperator(weight=Fraction(3, 2), space_exponent=math.inf),
                 ("weight", "space_exponent"), True),
    "block": (lambda: CoefficientBlock(level=1, coeffs={-1: ONE, 0: ZERO, 2: GaussianRational(0, 1)}),
              ("level", "coeffs"), False),
    "number": (lambda: GaussianRational(Fraction(1, 2), -3), ("re", "im"), True),
    "zero": (lambda: ZERO, ("re", "im"), True),
    "one": (lambda: ONE, ("re", "im"), True),
}


@pytest.mark.parametrize("name", VALUES)
class TestImmutableValue:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        build, field_names, _ = VALUES[name]
        value = build()
        for field in field_names:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_arguments_give_equal_values(self, name):
        build, _, hashable = VALUES[name]
        a, b = build(), build()
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_copies_are_equal(self, name):
        value = VALUES[name][0]()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value


def test_unequal_arguments_and_types_differ():
    assert SeparationParams(d=1, p=1) != ShiftOperator()
    assert SeparationParams(d=1, p=1) != (1, 1)
    assert SeparationParams(d=1, p=1) != SeparationParams(d=1, p=2)
    assert ShiftOperator() != ShiftOperator(space_exponent=3.0)
    assert CoefficientBlock(1, {0: ONE}) != CoefficientBlock(2, {0: ONE})
    assert GaussianRational(1, 2) != (Fraction(1), Fraction(2))


def test_frozen_alone_compares_hashes_and_prints():
    # one equality, hash and repr serve every checked value type
    for cls in (SeparationParams, ShiftOperator, CoefficientBlock, GaussianRational):
        assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls


def test_reprs_name_the_fields():
    assert repr(SeparationParams.with_min_p(1)) == "SeparationParams(d=1, p=1)"
    assert repr(ShiftOperator()) == "ShiftOperator(weight=Fraction(2, 1), space_exponent=2.0)"
    assert repr(CoefficientBlock(level=1, coeffs={0: ONE, 1: ZERO})) == (
        "CoefficientBlock(level=1, coeffs={0: GaussianRational(re=Fraction(1, 1), "
        "im=Fraction(0, 1))})")
    assert repr(ZERO) == "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))"


@pytest.mark.parametrize("build", [
    lambda: SeparationParams(d=0),
    lambda: SeparationParams(p=-1),
    lambda: ShiftOperator(weight=Fraction(1)),
    lambda: ShiftOperator(weight=Fraction(10) ** 400),
    lambda: ShiftOperator(space_exponent=0.5),
    lambda: ShiftOperator(space_exponent=math.nan),
    lambda: CoefficientBlock(level=1, coeffs={3: ONE}),
    lambda: CoefficientBlock(level=1, coeffs={0: GaussianRational(2)}),
    lambda: GaussianRational("one"),
], ids=["d0", "p-1", "weight1", "weight-overflow", "space-half", "space-nan",
        "offset-outside-radius", "over-budget", "not-a-number"])
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
