"""Polynomial kernel: arithmetic, the degrevlex order, parsing, printing."""

import random
import signal

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import polyaccess.ideals
from polyaccess import ParseError, Polynomial, VarTable, exact_index_analysis, parse_polynomial
from polyaccess.ideals import poly_gcd, squarefree_part
from polyaccess.modules import _mv_lt
from polyaccess.poly import (
    _P,
    _line,
    _squarefree_by_image,
    mono_key,
    mono_negkey,
)
from polyaccess.rationals import Q
from test_acceptance import random_system

V2 = VarTable(("x1", "x2"))
V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V3):
    return parse_polynomial(text, vars)


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

    def test_equals_polynomials_only(self):
        """A constant polynomial is not equal to the number, so equality
        agrees with hashing: a set keeps both."""
        one = Polynomial.constant(V3, 1)
        assert one != 1 and one != Q(1)
        assert len({1, one}) == 2

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

    def test_derivative_kept(self):
        """A partial is computed once, by name or index, and kept."""
        a = p("x1^2*x2 - 3*x2*x3 + 5")
        d = a.partial_derivative("x2")
        assert d == p("x1^2 - 3*x3")
        assert a.partial_derivative(1) is d
        assert a.partial_derivative(0) == p("2*x1*x2")
        assert a.partial_derivative("x2") is d

    @pytest.mark.parametrize("i", [-1, 3])
    def test_derivative_index_out_of_range(self, i):
        """An index outside the variables raises and leaves no partial behind."""
        a = p("x1^2*x2 - 3*x2*x3 + 5")
        with pytest.raises(IndexError):
            a.partial_derivative(i)
        assert a.partial_derivative(2) == p("-3*x2")

    def test_evaluate_hom(self):
        """Evaluation is a ring morphism."""
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            pt = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


class TestOrders:
    def test_degrevlex_tiebreak(self):
        """Same degree: degrevlex prefers the smaller last exponent."""
        a = p("x1*x2 + x2*x3")
        assert a.lt() == p("x1*x2").lt()


def _negkey_reference(k):
    """The nested sort key negated term by term, as the heap keys of the
    module engine were once built."""
    return tuple(-x if isinstance(x, int) else _negkey_reference(x) for x in k)


class TestNegkey:
    def test_reverses_key(self):
        """mono_negkey(a) < mono_negkey(b) exactly when mono_key(a) >
        mono_key(b), and mono_negkey is mono_key with every integer negated."""
        rng = random.Random(41)
        monos = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(60)]
        for a in monos:
            assert mono_negkey(a) == _negkey_reference(mono_key(a))
            for b in monos:
                assert (mono_negkey(a) < mono_negkey(b)) == (mono_key(a) > mono_key(b))

    def test_selection_matches_key(self):
        """lt(), terms and the module engine's leading term, all selected by
        negated keys, are the max and the descending sort by mono_key."""
        rng = random.Random(43)
        V4 = VarTable(("x1", "x2", "x3", "x4"))
        for _ in range(40):
            f = random_poly(rng, V4, max_deg=5, terms=7)
            if f:
                top = max(f.coeffs, key=mono_key)
                assert f.lt() == (f.coeffs[top], top)
                assert [m for _, m in f.terms] == sorted(f.coeffs, key=mono_key, reverse=True)
            vec = {(pos, m): c
                   for pos in rng.sample(range(3), rng.randint(1, 3))
                   for m, c in random_poly(rng, V4, max_deg=5, terms=5).coeffs.items()}
            if vec:
                top = max(vec, key=lambda t: (-t[0], mono_key(t[1])))
                assert _mv_lt(vec) == (top, vec[top])


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
    coefficients, exponents up to 2."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n),
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


def gcd_within(a, b, seconds=20):
    """poly_gcd(a, b), failing instead of hanging past a time limit."""
    def expire(signum, frame):
        raise TimeoutError(f"poly_gcd gave no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return poly_gcd(a, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SWEEP_PAIRS = (
    (  # rnd252
        'x1^3*x3^3 - 6*x1^2*x2*x3^3 + 9*x1*x2^2*x3^3 + 2*x1^2*x3^4 -'
        ' 6*x1*x2*x3^4 + 9*x3^6 + 4*x1^3*x3^2 + 9/2*x1^2*x3^3 + 6*x1*x2*x3^3'
        ' - 18*x2^2*x3^3 - 3*x1*x3^4 + 6*x2*x3^4 + 1/2*x3^5 - 3/2*x1^2*x2*x3'
        ' - 8/3*x1^2*x3^2 + 2*x1*x2*x3^2 - 11*x1*x3^3 + 9/2*x2*x3^3 + 4*x3^4'
        ' + 5/2*x1^2*x3 + 6*x1*x2*x3 - 4/3*x1*x3^2 + 5/3*x3^3 - 13/3*x1*x3 -'
        ' 11/2*x2*x3 + 7/3*x3^2 + 3/2*x3',
        '3*x1^2*x3^3 - 12*x1*x2*x3^3 + 9*x2^2*x3^3 + 4*x1*x3^4 - 6*x2*x3^4'
        ' + 12*x1^2*x3^2 + 9*x1*x3^3 + 6*x2*x3^3 - 3*x3^4 - 3*x1*x2*x3 -'
        ' 16/3*x1*x3^2 + 2*x2*x3^2 - 11*x3^3 + 5*x1*x3 + 6*x2*x3 - 4/3*x3^2'
        ' - 13/3*x3',
    ),
    (  # rnd105
        'x1*x2^4*x3^2 - 1/6*x1*x2^3*x3^3 - 3/4*x2^3*x3^4 -'
        ' 7/6*x1^2*x2^2*x3^2 - 1/2*x1*x2^3*x3^2 + 1/6*x2^4*x3^2 +'
        ' 1/4*x1^2*x2*x3^3 + 3/4*x2^3*x3^3 + 3/4*x1*x2*x3^4 + 1/6*x1*x2^3*x3'
        ' + 1/2*x2^4*x3 + 5/4*x1*x2^2*x3^2 - 3/4*x1*x2*x3^3 + 1/3*x1*x2^2*x3'
        ' - 7/4*x1^2*x3^2 - 3/4*x1*x2*x3^2 - 1/2*x1^2*x3 + 1/4*x1*x2*x3 +'
        ' 3/4*x2^2*x3 + 1/4*x1*x3^2 + 3/4*x2*x3^2 - 1/4*x1*x3 - 3/4*x2*x3',
        'x2^4*x3^2 - 1/6*x2^3*x3^3 - 7/3*x1*x2^2*x3^2 - 1/2*x2^3*x3^2 +'
        ' 1/2*x1*x2*x3^3 + 3/4*x2*x3^4 + 1/6*x2^3*x3 + 5/4*x2^2*x3^2 -'
        ' 3/4*x2*x3^3 + 1/3*x2^2*x3 - 7/2*x1*x3^2 - 3/4*x2*x3^2 - x1*x3 +'
        ' 1/4*x2*x3 + 1/4*x3^2 - 1/4*x3',
    ),
    (  # rnd331
        'x1^2*x2^2*x3^2 + 9/4*x2^2*x3^4 - 9/8*x1^2*x2^2*x3 +'
        ' 3/4*x1*x2^2*x3^2 + 3*x1*x3^4 - 3/4*x2*x3^4 + x3^5 + 3/4*x1^2*x2*x3'
        ' + 1/4*x1*x2*x3^2 - 27/8*x2^2*x3^2 - 1/2*x3^4 + 9/8*x1^2*x3 -'
        ' 33/8*x1*x3^2 - 7/8*x2*x3^2 - 3/2*x3^3 + 9/4*x2*x3 + 3/4*x3^2 -'
        ' 3/2*x3',
        '2*x1*x2^2*x3^2 - 9/4*x1*x2^2*x3 + 3/4*x2^2*x3^2 + 3*x3^4 +'
        ' 3/2*x1*x2*x3 + 1/4*x2*x3^2 + 9/4*x1*x3 - 33/8*x3^2',
    ),
)


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
        """The x1-leading coefficient x2 - t of f vanishes at x2 = t, the
        certificate line's point for x2, where f's image is constant: f and
        x1 + x2 are coprime, and f is the gcd of f*(x1 + 1) and f*(x1 + 2)."""
        t = _line(1)[0]
        f, g = p(f"(x2 - {t})*x1 + 1"), p("x1 + x2")
        assert gcd_within(f, g) == p("1")
        a, b = f * p("x1 + 1"), f * p("x1 + 2")
        assert gcd_within(a, b) == f.monic()

    def test_unlucky_image_point(self):
        """x1 - x2 and x1 - 2*x2 + t agree at x2 = t, the certificate
        line's point for x2, so their images there share x1 - t though the
        pair is coprime."""
        f, g = p("x1 - x2"), p(f"x1 - 2*x2 + {_line(1)[0]}")
        assert gcd_within(f, g) == p("1")

    def test_unlucky_evaluation_points(self):
        """f = x1 - x2 and g = x1 - 2*x2 + t agree at x2 = t, where the
        images of f*g and g^2 have the gcd (x1 - t)^2, for t the point or
        the direction of x2's certificate line; the gcd over Q is g."""
        for j in (0, 1):
            f, g = p("x1 - x2"), p(f"x1 - 2*x2 + {_line(1)[j]}")
            assert gcd_within(f * g, g * g) == g

    def test_unlucky_prime(self):
        """x1 + x2 + 1 and x1 + x2 + 1 + P are coprime over Q but equal mod
        the certificate's prime P."""
        h = p("x1 + x2")
        assert gcd_within(p("x1 + x2 + 1"), p(f"x1 + x2 + 1 + {_P}")) == p("1")
        assert gcd_within(h * p("x1 + 1"), h * p(f"x1 + 1 + {_P}")) == h

    def test_integer_content_divisible_by_first_prime(self):
        """Integer contents divisible by the certificate's prime leave the
        gcd over Q unchanged."""
        assert gcd_within(p(f"{_P}*(x1 + 1)*(x2 - 3)"), p("(x1 + 1)*(x1 - x2)")) == p("x1 + 1")
        assert gcd_within(p(f"{_P}*(x1 + 1)*(x2 - 3)"), p(f"{_P}*(x1 + 1)*x3")) == p("x1 + 1")

    def test_coefficients_beyond_one_prime(self):
        """A gcd with coefficients above the certificate's prime is exact."""
        g = p(f"x1*x2 + {2**70 + 1}*x3 - {3**50}")
        assert gcd_within(g * p("x1 - x3"), g * p("x2^2 + 1")) == g

    def test_leading_coefficient_not_constant(self):
        """The gcd x2*x1 + 1 leads with x2 in x1, and 3*x2*x1 + 2 with an
        integer 3: both come out monic."""
        for text in ("x2*x1 + 1", "3*x2*x1 + 2"):
            g = p(text)
            assert gcd_within(g * p("x1 + x2"), g * p("x1 - 2")) == g.monic()
            assert gcd_within(g * p("x2 + x3"), g * g * p("x1*x3 - 1")) == g.monic()

    def test_monomial_times_factor(self):
        """A gcd x3*(x1 - x2): a monomial times a non-monomial factor."""
        a, b = p("x3*(x1 - x2)*(x1 + 1)"), p("x3^2*(x1 - x2)*(x2 + 3)")
        assert gcd_within(a, b) == p("x3*(x1 - x2)")

    def test_sweep_pairs(self):
        """Pairs from squarefree_part on the random systems rnd252, rnd105
        and rnd331 of the exact index search: degree 6 to 7 in three
        variables, gcd x3."""
        for a, b in SWEEP_PAIRS:
            assert gcd_within(p(a), p(b)) == p("x3")

    def test_slowest_planted_pair(self):
        """The slowest of 1,200 random planted pairs g^2*a, g*b or g*a, g*b
        (one to three variables, factors of two to four terms with
        exponents up to 3): degree 23 in three variables, gcd g.  It takes
        1.3-2.2 s (2 vCPU, Python 3.11); the limit catches a blow-up."""
        g = p("x1^2*x2^3*x3^3 + 2*x1^3*x2^3 - 1/2*x1^3*x2*x3^2 - 4/3*x1^2*x2^2*x3^2")
        a = p("-5*x1^2*x2^2*x3^3 - 1/2*x1^3*x2*x3 + x1*x2^3*x3 + 2/3*x2 + 5")
        b = p("2/3*x1^3*x2^3*x3^3 - 5/3*x1^2*x2^3*x3 + 4*x1^3*x3^3 + 1")
        assert gcd_within(g * g * a, g * b, seconds=5) == g

    def test_no_shared_variable(self):
        """Polynomials in disjoint variables are coprime."""
        assert poly_gcd(p("x1^2 - 2"), p("x2*x3 + 1")) == p("1")
        assert squarefree_part(p("(x1^2 - 2)^2*(x2*x3 + 1)")) == p("(x1^2 - 2)*(x2*x3 + 1)")

    def assert_fallback(self, f):
        """The line image decides nothing for f, and the gcd chain gives
        sympy's squarefree part."""
        assert not _squarefree_by_image(f)
        syms = sympy.symbols(V3.names)
        expected = sympy.sqf_part(to_sympy(f, syms), *syms)
        assert squarefree_part(f) == from_sympy(expected, V3, syms).monic()

    def test_image_degree_drops(self):
        """An affine form whose linear part vanishes on the line's direction
        b is constant on the line, so its square, alone or times x3, loses
        degree there: the image of L^2 is a nonzero constant, coprime to its
        derivative, yet L^2 is not squarefree."""
        (_, b1), (_, b2), _ = map(_line, range(3))
        L = p(f"{b2}*x1 - {b1}*x2 + 1")
        self.assert_fallback(L * L)
        self.assert_fallback(L * L * p("x3"))

    def test_image_square_in_one_variable(self):
        """The square factor (x2 - 3)^2 keeps its degree on the line, and
        its image divides the image's gcd with its derivative."""
        self.assert_fallback(p("x1*(x2 - 3)^2"))
        assert _squarefree_by_image(p("x1*(x2 - 3)"))

    def test_image_squarefree_only_over_q(self):
        """x1*(x1 + P) is squarefree over Q but x1^2 modulo the image's
        prime P."""
        self.assert_fallback(p(f"x1*(x1 + {_P})"))


def test_squarefree_image_reach(monkeypatch):
    """Over the random systems of seeds 0-399, the exact index search
    without rerouting tries the line image on 425 content-free polynomials,
    and the image proves 419 of them squarefree."""
    decided = []

    def counted(f):
        decided.append(_squarefree_by_image(f))
        return decided[-1]

    monkeypatch.setattr(polyaccess.ideals, "_squarefree_by_image", counted)
    for seed in range(400):
        exact_index_analysis(random_system(seed), auto_route=False)
    assert (sum(decided), len(decided)) == (419, 425)
