"""The Fraction-based rational type against fractions.Fraction itself."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaccess.rationals import ONE, ZERO, Q

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)
KINDS = ("Q", "Fraction", "int")

# zero, small values of both signs, and values past 2**64
numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**80), 2**80))
denominators = st.one_of(st.just(1), st.integers(1, 9), st.integers(2**64, 2**80))


def operand(kind, n, d):
    if kind == "int":
        return n
    return (Q if kind == "Q" else Fraction)(n, d)


def reference(op, a, b):
    """op on plain Fractions, or the exception type it raises."""
    try:
        return op(Fraction(a), Fraction(b))
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_same(got, want):
    """Same value, hash and text as Fraction's, normalized, and a Q."""
    assert type(got) is Q
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


class TestAgainstFraction:
    @settings(max_examples=400)
    @given(st.sampled_from(OPS), st.sampled_from(KINDS), st.sampled_from(KINDS),
           numerators, denominators, numerators, denominators)
    def test_binary(self, op, ka, kb, na, da, nb, db):
        """+ - * / with Q on at least one side and a Q, Fraction or int on
        the other agree with Fraction; division by zero raises."""
        if "Q" not in (ka, kb):
            ka = "Q"
        a, b = operand(ka, na, da), operand(kb, nb, db)
        want = reference(op, a, b)
        if want is ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
        else:
            assert_same(op(a, b), want)

    @given(numerators, denominators)
    def test_negation(self, n, d):
        """Unary minus agrees with Fraction's."""
        assert_same(-Q(n, d), -Fraction(n, d))

    @given(st.sampled_from(OPS), st.booleans(), numerators, denominators,
           st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    def test_float_operand(self, op, q_first, n, d, x):
        """A float operand gets the float result Fraction gives, or the same
        exception."""
        sides = [(Q(n, d), x), (Fraction(n, d), x)]
        if not q_first:
            sides = [(x, q) for q, x in sides]
        results = []
        for a, b in sides:
            try:
                results.append(op(a, b))
            except ZeroDivisionError as e:
                results.append(type(e))
        got, want = results
        assert type(got) is type(want) and repr(got) == repr(want)

    def test_chains_stay_q(self):
        """Mixed chains keep the type, and constructors and constants are Q."""
        assert type(ZERO) is Q and type(ONE) is Q and type(Q("3/4")) is Q
        acc = ZERO
        for k in range(1, 30):
            acc = (acc + Fraction(1, k)) * 3 - k / Q(2, k + 1)
            acc = 1 - acc / 7
        assert type(acc) is Q
        want = Fraction(0)
        for k in range(1, 30):
            want = (want + Fraction(1, k)) * 3 - k / Fraction(2, k + 1)
            want = 1 - want / 7
        assert_same(acc, want)
