"""Polynomial kernel: arithmetic, orders, parsing, printing."""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaccess import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    BlockOrder,
    ParseError,
    Polynomial,
    VarTable,
    parse_polynomial,
)
from polyaccess.poly import _coprime_by_images, poly_gcd, squarefree_part
from polyaccess.rationals import Q

V2 = VarTable(("x1", "x2"))
V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V3, order=DEGREVLEX):
    return parse_polynomial(text, vars, order)


def random_poly(rng, vars, max_deg=3, terms=4):
    acc = Polynomial.zero(vars)
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        c = Q(rng.randint(-6, 6), rng.randint(1, 4))
        acc = acc + Polynomial.from_terms(vars, [(c, tuple(mono))])
    return acc


def to_sympy(poly, syms):
    expr = sympy.Integer(0)
    for mono, c in poly.coeffs.items():
        term = sympy.Rational(str(c))
        for s, e in zip(syms, mono):
            term *= s**e
        expr += term
    return sympy.expand(expr)


class TestVarTable:
    def test_rejects_duplicates(self):
        """Duplicate names are malformed."""
        with pytest.raises(ValueError):
            VarTable(("a", "a"))

    def test_rejects_bad_names(self):
        """Names must be identifiers."""
        with pytest.raises(ValueError):
            VarTable(("2x",))

    def test_lookup(self):
        """index and containment agree with declaration order."""
        assert V3.index("x2") == 1
        assert "x3" in V3
        assert "x9" not in V3


class TestArithmetic:
    def test_ring_laws_random(self):
        """Random add/mul agree with an independent symbolic engine."""
        rng = random.Random(11)
        syms = sympy.symbols("x1 x2 x3")
        for _ in range(25):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            assert to_sympy(a + b, syms) == to_sympy(a, syms) + to_sympy(b, syms)
            assert to_sympy(a * b, syms) == sympy.expand(to_sympy(a, syms) * to_sympy(b, syms))
            assert to_sympy(a - b, syms) == to_sympy(a, syms) - to_sympy(b, syms)

    def test_pow(self):
        """Small powers match repeated multiplication."""
        a = p("x1 + 2*x2 - x3")
        assert a**3 == a * a * a
        assert a**0 == Polynomial.constant(V3, 1)

    def test_zero_identity(self):
        """Zero is absorbing for * and neutral for +."""
        a = p("x1*x2 - x3")
        z = Polynomial.zero(V3)
        assert a + z == a
        assert a * z == z
        assert not z

    def test_derivative_leibniz(self):
        """d(ab) = da b + a db on random pairs."""
        rng = random.Random(5)
        for _ in range(10):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            for i in range(3):
                lhs = (a * b).partial_derivative(i)
                rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
                assert lhs == rhs

    def test_evaluate_hom(self):
        """Evaluation is a ring morphism."""
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            pt = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)

    def test_evaluate_partial(self):
        """Partial substitution then full evaluation matches direct evaluation."""
        a = p("x1^2*x2 - 3*x3 + x2*x3")
        half = a.evaluate_partial({"x2": Q(2)})
        assert half.evaluate([Q(3), Q(0), Q(1)]) == a.evaluate([Q(3), Q(2), Q(1)])


class TestOrders:
    def test_leading_terms(self):
        """The three orders rank x1^2 vs x2^3 differently."""
        a = p("x1^2 + x2^3")
        assert p("x2^3").lt() == a.with_order(DEGREVLEX).lt()
        assert p("x2^3", order=DEGLEX).lt() == a.with_order(DEGLEX).lt()
        b = a.with_order(LEX)
        assert b.lt() == p("x1^2", order=LEX).lt()

    def test_degrevlex_tiebreak(self):
        """Same degree: degrevlex prefers the smaller last exponent."""
        a = p("x1*x2 + x2*x3")
        assert a.lt() == p("x1*x2").lt()

    def test_block_order(self):
        """A block order eliminates the head block first."""
        order = BlockOrder(1)
        a = p("x1 + x2^5", order=order)
        assert a.lt() == p("x1", order=order).lt()


class TestParsing:
    def test_round_trip_random(self):
        """str() output parses back to the same polynomial."""
        rng = random.Random(13)
        for _ in range(40):
            a = random_poly(rng, V3)
            assert parse_polynomial(str(a), V3) == a

    def test_precedence(self):
        """Standard precedence: ^ over * over binary -."""
        assert p("2*x1^2 - x2*x3") == p("2*(x1^2) - (x2*x3)")
        assert p("-x1^2") == -p("x1^2")
        assert p("(x1 - x2)^2") == p("x1^2 - 2*x1*x2 + x2^2")

    def test_rational_coefficients(self):
        """Fractions and decimal-free rationals are exact."""
        a = p("1/2*x1 + 3/4")
        assert a.coeffs[(1, 0, 0)] == Q(1, 2)
        assert a.coeffs[(0, 0, 0)] == Q(3, 4)

    def test_constant_division(self):
        """Dividing by a constant scales exactly."""
        assert p("x1/2") == p("1/2*x1")

    def test_error_positions(self):
        """Errors carry line and column."""
        with pytest.raises(ParseError) as info:
            parse_polynomial("x1 + ", V3)
        assert info.value.line == 1
        assert info.value.col == 6

    def test_unknown_variable(self):
        """Unknown names are rejected with position."""
        with pytest.raises(ParseError) as info:
            parse_polynomial("x1 + y", V3)
        assert info.value.col == 6

    def test_unknown_function(self):
        """Calls are rejected without a resolver hook."""
        with pytest.raises(ParseError, match="unknown function"):
            parse_polynomial("sin(x1)", V3)

    def test_nonconstant_division(self):
        """Division by a non-constant is rejected without a resolver hook."""
        with pytest.raises(ParseError, match="non-constant"):
            parse_polynomial("x1/(x2 + 1)", V3)

    def test_canonical_string(self):
        """Printing is deterministic and order-respecting."""
        a = p("x2 + x1^2 - 1/3")
        assert str(a) == "x1^2 + x2 - 1/3"
        assert str(Polynomial.zero(V3)) == "0"


class TestTransport:
    def test_map_vars_embeds(self):
        """map_vars transports a polynomial into a larger table."""
        big = VarTable(("x1", "x2", "x3", "z"))
        a = p("x1*x3 - 2")
        b = a.map_vars(big, [0, 1, 2])
        assert str(b) == "x1*x3 - 2"
        assert b.vars is big

    def test_map_vars_permutes(self):
        """Index maps may permute slots."""
        a = p("x1^2*x2", V2)
        b = a.map_vars(V2, [1, 0])
        assert b == p("x2^2*x1", V2)


def from_sympy(expr, vars, syms):
    poly = sympy.Poly(expr, *syms, domain=sympy.QQ)
    return Polynomial(vars, {m: Q(int(c.p), int(c.q)) for m, c in poly.terms()})


@st.composite
def small_polys(draw, n):
    """Polynomial in n variables: two to four terms, small rational
    coefficients, exponents up to 2, or up to 1 in three variables: there
    the subresultant fallback takes over 30 s on some planted pairs with
    exponents up to 2."""
    top = 2 if n < 3 else 1
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, top)] * n),
        st.tuples(st.integers(-5, 5).filter(bool), st.integers(1, 3)),
        min_size=2, max_size=4))
    return {m: Q(a, b) for m, (a, b) in terms.items()}


@st.composite
def gcd_cases(draw):
    """(vars, p, q): a pair a, b that is coprime unless by chance, or g*a
    and g*b with a planted common factor g, repeated in p.  a and b get a
    constant term, so no monomial divides both."""
    n = draw(st.integers(1, 3))
    V = VarTable(tuple(f"x{i + 1}" for i in range(n)))
    a, b = (Polynomial(V, draw(small_polys(n))) + draw(st.integers(1, 5)) for _ in range(2))
    kind = draw(st.sampled_from(("coprime", "planted", "repeated")))
    if kind != "coprime":
        g = Polynomial(V, draw(small_polys(n)))
        a, b = g * a, g * b
        if kind == "repeated":
            a = g * a
    return V, a, b


class TestGcdOracle:
    @settings(max_examples=80)
    @given(gcd_cases())
    def test_gcd_matches_sympy(self, case):
        """poly_gcd equals sympy.gcd up to a constant factor."""
        V, a, b = case
        syms = sympy.symbols(V.names)
        expected = sympy.gcd(to_sympy(a, syms), to_sympy(b, syms))
        assert poly_gcd(a, b) == from_sympy(expected, V, syms).monic()

    @settings(max_examples=60)
    @given(gcd_cases())
    def test_squarefree_part_matches_sympy(self, case):
        """squarefree_part equals sympy.sqf_part up to a constant factor."""
        V, a, _ = case
        syms = sympy.symbols(V.names)
        expected = sympy.sqf_part(to_sympy(a, syms), *syms)
        assert squarefree_part(a) == from_sympy(expected, V, syms).monic()

    def test_vanished_leading_coefficient(self):
        """The x1-leading coefficient x2 - 8 of f vanishes at the first
        image point (x1, x2, x3) = (3, 8, 15).  The next point certifies a
        coprime pair, and a common factor f, whose image at the first point
        is the constant 1, is still found."""
        f, g = p("(x2 - 8)*x1 + 1"), p("x1 + x2")
        assert _coprime_by_images(f, g)
        assert poly_gcd(f, g) == p("1")
        a, b = f * p("x1 + 1"), f * p("x1 + 2")
        assert not _coprime_by_images(a, b)
        assert poly_gcd(a, b) == f.monic()

    def test_unlucky_image_point(self):
        """x1 - x2 and x1 - 2*x2 + 8 agree at x2 = 8, so their images share
        x1 - 8 though the pair is coprime: the PRS decides."""
        f, g = p("x1 - x2"), p("x1 - 2*x2 + 8")
        assert not _coprime_by_images(f, g)
        assert poly_gcd(f, g) == p("1")
        assert poly_gcd(f * g, g * g) == g

    def test_no_shared_variable(self):
        """Polynomials in disjoint variables are coprime."""
        assert poly_gcd(p("x1^2 - 2"), p("x2*x3 + 1")) == p("1")
        assert squarefree_part(p("(x1^2 - 2)^2*(x2*x3 + 1)")) == p("(x1^2 - 2)*(x2*x3 + 1)")
