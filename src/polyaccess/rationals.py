"""Exact rational coefficient type.

Q, a lean subclass of fractions.Fraction, is the package's one rational
type, so every numerator and denominator is a Python int; the squarefree
certificate reduces them modulo the prime poly._P.

Q keeps Fraction's normalized pair (numerator coprime to a positive
denominator).  Its ``+ - * /``, their reflected forms and unary ``-`` work
on the pairs of Q, Fraction and int operands directly, with the gcd steps of
Fraction's own arithmetic, and build the result without Fraction's operand
dispatch and constructor checks; the result is a Q.  Every other operand
type, and every other method (hash, equality, str, ordering, powers),
defers to Fraction, so a Q and a Fraction of equal value are
indistinguishable but for their type and repr.
"""

from fractions import Fraction
from math import gcd

_new = object.__new__


def _pair(n, d):
    """The Q of a pair already normalized."""
    r = _new(Q)
    r._numerator = n
    r._denominator = d
    return r


def _add(na, da, nb, db):
    """na/da + nb/db, as Fraction._add."""
    g = gcd(da, db)
    if g == 1:
        return _pair(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _pair(t, s * db)
    return _pair(t // g2, s * (db // g2))


def _mul(na, da, nb, db):
    """na/da * nb/db, as Fraction._mul."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _pair(na * nb, db * da)


def _div(na, da, nb, db):
    """na/da / (nb/db), as Fraction._div."""
    if not nb:
        raise ZeroDivisionError("division by zero")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _pair(n, d)


class Q(Fraction):
    """Fraction with direct arithmetic on Q, Fraction and int operands."""

    __slots__ = ()

    def __add__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _pair(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        t = type(a)
        if t is Q or t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _pair(a * b._denominator + b._numerator, b._denominator)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _pair(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        t = type(a)
        if t is Q or t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _pair(a * b._denominator - b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        t = type(a)
        if t is Q or t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a, 1, b._numerator, b._denominator)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _div(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        t = type(a)
        if t is Q or t is Fraction:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _div(a, 1, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _pair(-a._numerator, a._denominator)


ZERO = Q(0)
ONE = Q(1)
