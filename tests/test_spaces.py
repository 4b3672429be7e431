import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from summability import (
    Exponent,
    ExponentTuple,
    INF,
    SpaceSpec,
    dual_exponent,
    interpolation_exponents,
)
from summability import spaces


def test_dual_examples():
    assert dual_exponent(2) == Exponent.of(2)
    assert dual_exponent(1) == INF
    assert dual_exponent(INF) == Exponent.of(1)
    assert dual_exponent("4/3") == Exponent.of(4)


def test_dual_rejects_below_one():
    with pytest.raises(ValueError):
        dual_exponent(0.5)


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(64)))
def test_dual_is_involution(v):
    e = Exponent(1 / v)
    assert e.dual.dual == e


def test_dual_involution_at_infinity():
    assert INF.dual.dual == INF


def test_exponent_parsing_is_exact():
    assert Exponent.of("4/3").recip == Fraction(3, 4)
    assert Exponent.of("1.2").recip == Fraction(5, 6)
    assert Exponent.of("inf").is_inf
    assert str(Exponent.of("6/5")) == "6/5"
    assert float(Exponent.of(4)) == 4.0


def test_exponent_rejects_bad_values():
    for bad in (0, -1, "0", float("nan")):
        with pytest.raises(ValueError):
            Exponent.of(bad)


def test_exponent_takes_a_reciprocal_that_is_not_a_fraction():
    assert Exponent(1).recip == Fraction(1) and type(Exponent(1).recip) is Fraction
    assert Exponent(0.25).recip == Fraction(1, 4) and Exponent(0.25).value == 4.0


def test_exponent_refuses_a_negative_or_too_small_reciprocal():
    with pytest.raises(ValueError, match=">= 0"):
        Exponent(Fraction(-1, 2))
    with pytest.raises(ValueError, match="too large for a float"):
        Exponent(Fraction(1, 10**400))


def test_exponent_json_is_a_float_beyond_denominator_10000():
    assert Exponent(Fraction(3, 10_000)).to_json() == "10000/3"
    value = Exponent(Fraction(10_001, 7)).to_json()
    assert type(value) is float and value == 7 / 10_001
    assert Exponent(Fraction(10_001)).to_json() == 1 / 10_001


def test_each_exponent_value_is_one_object():
    assert Exponent.of("4/3") is Exponent(Fraction(3, 4))
    assert Exponent(0.5) is Exponent.of(2) is dual_exponent(2) is SpaceSpec.lp(3, 2.0).exponent
    e = Exponent.of("4/3")
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy(e) is e and copy.copy(e) is e
    assert pickle.loads(pickle.dumps(SpaceSpec.lp(2, e))).exponent is e
    assert dataclasses.replace(e) is e
    assert dataclasses.replace(e, recip=Fraction(1, 2)) is Exponent.of(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.recip = Fraction(1, 2)
    assert e.recip == Fraction(3, 4) and hash(e) == object.__hash__(e)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)))
def test_exponents_parsed_from_any_form_are_one_object(v):
    e = Exponent(1 / v)
    assert Exponent.of(str(v)) is Exponent.of(v) is e
    assert Exponent(Fraction(v.denominator, v.numerator)) is e


def test_a_refused_exponent_leaves_no_table_entry():
    before = dict(spaces._INSTANCES)
    for bad in (Fraction(-1, 2), Fraction(1, 10**400)):
        with pytest.raises(ValueError):
            Exponent(bad)
    assert spaces._INSTANCES == before
    assert (-1, 2) not in spaces._INSTANCES


def test_exponent_ordering():
    assert Exponent.of(1) < Exponent.of("4/3") < Exponent.of(2) < INF


def test_interpolation_midpoint_exact():
    p, q = interpolation_exponents(0.5)
    assert p.recip == Fraction(3, 4) and q.recip == Fraction(3, 4)


def test_interpolation_endpoints():
    p, q = interpolation_exponents(0)
    assert (float(p), float(q)) == (1.0, 2.0)
    p, q = interpolation_exponents(1)
    assert (float(p), float(q)) == (2.0, 1.0)


def test_interpolation_identity_on_grid():
    # 1/q = 1/2 + 1/p' holds exactly in reciprocal arithmetic
    for i in range(101):
        theta = i / 100
        p, q = interpolation_exponents(theta)
        assert q.recip - Fraction(1, 2) - p.dual.recip == 0


def test_interpolation_rejects_outside():
    with pytest.raises(ValueError):
        interpolation_exponents(1.5)


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec(0, INF)
    with pytest.raises(ValueError):
        SpaceSpec(2, Exponent.of("1/2"))
    assert SpaceSpec.linf(3).is_sup
    assert SpaceSpec.lp(3, 2).exponent == Exponent.of(2)


def test_exponent_tuple_validity():
    t = ExponentTuple(1, (2, 2))
    assert t.defect() == 0
    assert t.n == 2
    with pytest.raises(ValueError):
        ExponentTuple("1/2", (4, 4))  # 2 > 1/4 + 1/4
    with pytest.raises(ValueError):
        ExponentTuple(1, ())


def test_exponent_tuple_infinite_inner():
    t = ExponentTuple(INF, (INF, INF))
    assert t.defect() == 0
