"""Ideal engine: Groebner bases, membership, radicals, invariance."""

import itertools
import random
import signal
import time

import pytest
import sympy
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from sympy.solvers.simplex import InfeasibleLPError, linprog

from polyaccess import (
    CapReached,
    Ideal,
    Polynomial,
    Unsupported,
    VarTable,
    VectorField,
    ideal_intersect,
    ideal_sum,
    in_radical,
    invariant_closure,
    is_invariant,
    parse_polynomial,
    real_radical_restricted,
)
from polyaccess.analysis import AnalysisSession
from polyaccess.ideals import _structural_real_radical_shape
from polyaccess.rationals import Q
from test_acceptance import random_system

V2 = VarTable(("x1", "x2"))
V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V2):
    return parse_polynomial(text, vars)


def ideal(texts, vars=V2):
    return Ideal(vars, [p(t, vars) for t in texts])


def random_poly(rng, vars, max_deg=3, terms=3):
    acc = Polynomial.zero(vars)
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        acc = acc + Polynomial.from_terms(
            vars, [(Q(rng.randint(-5, 5)), tuple(mono))])
    return acc


class TestGroebner:
    def test_generators_reduce_to_zero(self):
        """Every generator has normal form 0 against the basis."""
        rng = random.Random(41)
        for _ in range(10):
            gens = [random_poly(rng, V3) for _ in range(3)]
            I = Ideal(V3, gens)
            for g in gens:
                assert I.normal_form(g).is_zero()

    def test_normal_form_idempotent(self):
        """NF(NF(p)) = NF(p) and NF is linear."""
        rng = random.Random(43)
        I = ideal(("x1^2 - x2", "x1*x2 - 1"))
        for _ in range(10):
            a = random_poly(rng, V2)
            b = random_poly(rng, V2)
            na, nb = I.normal_form(a), I.normal_form(b)
            assert I.normal_form(na) == na
            assert I.normal_form(a + b) == I.normal_form(na + nb)

    def test_membership_matches_independent_engine(self):
        """Ideal membership agrees with an independent Groebner engine."""
        rng = random.Random(47)
        syms = sympy.symbols("x1 x2 x3")
        for _ in range(8):
            gens = [random_poly(rng, V3, max_deg=2) for _ in range(2)]
            if all(g.is_zero() for g in gens):
                continue
            I = Ideal(V3, gens)
            sgens = [sympy.sympify(str(g).replace("^", "**")) for g in gens
                     if not g.is_zero()]
            G = sympy.groebner(sgens, *syms, order="grevlex")
            for _ in range(5):
                mixed = random_poly(rng, V3, max_deg=2) * gens[0] \
                    + random_poly(rng, V3, max_deg=1) * gens[-1]
                probe = random_poly(rng, V3, max_deg=2)
                for q in (mixed, probe, mixed + probe):
                    sq = sympy.sympify(str(q).replace("^", "**"))
                    assert I.member(q) == (G.reduce(sq)[1] == 0)

    def test_reduced_basis_is_canonical(self):
        """Same ideal from different generators gives the same reduced basis."""
        a = ideal(("x1^2 - x2", "x1*x2 - 1"))
        b = ideal(("x1*x2 - 1", "x1^2 - x2", "x1^3 - 1"))
        assert [str(g) for g in a.groebner_basis()] == \
            [str(g) for g in b.groebner_basis()]
        assert a.equals(b)

    def test_proper(self):
        """is_proper detects when 1 is a member."""
        assert not ideal(("x1", "x1 - 1")).is_proper()
        assert ideal(("x1", "x2")).is_proper()


def to_sympy(g, syms):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.prod(s ** e for s, e in zip(syms, m)) for m, c in g.coeffs.items())


def term_sets(polys):
    """Our polynomials as a set of term sets, for comparing bases."""
    return {frozenset(g.coeffs.items()) for g in polys}


def sympy_term_sets(G):
    """The nonzero polynomials of a sympy Groebner basis as term sets."""
    return {frozenset((m, Q(int(c.p), int(c.q))) for m, c in g.terms())
            for g in G.polys if not g.is_zero}


@st.composite
def generator_lists(draw):
    """Random 2-4-variable ideals as lists of {monomial: coefficient}, with
    a duplicate, a constant or a coprime pure power thrown in at times."""
    n = draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 2)] * n)
    poly = st.dictionaries(mono, st.integers(-5, 5).filter(bool), min_size=1, max_size=3)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    extra = draw(st.sampled_from(("none", "duplicate", "constant", "coprime")))
    if extra == "duplicate":
        gens.append({m: 3 * c for m, c in gens[0].items()})
        gens.append(dict(gens[-1]))
    elif extra == "constant":
        gens.append({(0,) * n: draw(st.integers(1, 5))})
    elif extra == "coprime":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
            gens.append({tuple(3 if k == i else 0 for k in range(n)): 1})
    return n, gens


class TestBuchbergerOracle:
    @settings(max_examples=120)
    @given(generator_lists())
    def test_reduced_basis_matches_sympy(self, case):
        """The reduced basis equals sympy's, both in degrevlex (grevlex)."""
        n, gens = case
        V = VarTable(tuple(f"x{i + 1}" for i in range(n)))
        polys = [Polynomial(V, {m: Q(c) for m, c in g.items()}) for g in gens]
        syms = sympy.symbols(" ".join(V.names))
        G = sympy.groebner([to_sympy(g, syms) for g in polys], *syms, order="grevlex",
                           domain=sympy.QQ, method="f5b")
        assert term_sets(Ideal(V, polys).groebner_basis()) == sympy_term_sets(G)


@st.composite
def small_polys(draw, V, max_deg=2, max_terms=3):
    """A nonzero polynomial over V with small integer coefficients."""
    mono = st.tuples(*[st.integers(0, max_deg)] * len(V))
    terms = draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=max_terms))
    return Polynomial(V, {m: Q(c) for m, c in terms.items()})


@st.composite
def intersection_cases(draw):
    """Two ideals of Q[x1, x2(, x3)] with planted structure: monomial
    ideals, generators sharing a factor, coprime principal ideals in
    disjoint variables, or the unit ideal on one side."""
    V = VarTable(("x1", "x2", "x3")[:draw(st.integers(2, 3))])
    n = len(V)
    some = st.lists(small_polys(V), min_size=1, max_size=2)
    kind = draw(st.sampled_from(("monomial", "shared", "coprime", "unit")))
    if kind == "monomial":
        mono = st.tuples(*[st.integers(0, 3)] * n)
        a, b = ([Polynomial(V, {m: Q(1)}) for m in draw(st.lists(mono, min_size=1, max_size=3))]
                for _ in range(2))
    elif kind == "shared":
        h = draw(small_polys(V, max_deg=1))
        a, b = ([h * f for f in draw(some)] for _ in range(2))
    elif kind == "coprime":
        # f in x1 alone, g free of x1: the intersection is <f*g>
        f = draw(small_polys(VarTable(("x1",)), max_deg=3))
        g = draw(small_polys(VarTable(V.names[1:])))
        a = [f.map_vars(V, [0])]
        b = [g.map_vars(V, range(1, n))]
    else:
        a = [Polynomial.constant(V, draw(st.integers(1, 5)))] + draw(some)
        b = draw(some)
    if draw(st.booleans()):
        a, b = b, a
    return V, a, b


class TestIntersectOracle:
    def test_pinned(self):
        """<x1^2*x2, x2^2> meets <x1*x2, x1^3> in <x1^2*x2, x1*x2^2>."""
        c = ideal_intersect(ideal(("x1^2*x2", "x2^2")), ideal(("x1*x2", "x1^3")))
        assert [str(g) for g in c.groebner_basis()] == ["x1^2*x2", "x1*x2^2"]

    @settings(max_examples=80)
    @given(intersection_cases())
    def test_matches_sympy(self, case):
        """The reduced basis of ideal_intersect equals the grevlex reduced
        basis of sympy's intersection, and lies in both ideals."""
        V, a, b = case
        A, B = Ideal(V, a), Ideal(V, b)
        ours = ideal_intersect(A, B).groebner_basis()
        syms = sympy.symbols(" ".join(V.names))
        R = sympy.QQ.old_poly_ring(*syms)
        meet = R.ideal(*(to_sympy(f, syms) for f in a)).intersect(
            R.ideal(*(to_sympy(g, syms) for g in b)))
        G = sympy.groebner([R.to_sympy(g) for g in meet.gens], *syms, order="grevlex",
                           domain=sympy.QQ)
        assert term_sets(ours) == sympy_term_sets(G)
        assert all(A.member(u) and B.member(u) for u in ours)


@st.composite
def radical_cases(draw):
    """An ideal <(q*a)^2, extra...> with a affine-linear, its planted
    member q*a, and a probe: a random polynomial, or q*a plus a nonzero
    constant, which is never a member."""
    V = VarTable(("x1", "x2", "x3")[:draw(st.integers(2, 3))])
    q = draw(small_polys(V, max_deg=1))
    a = draw(small_polys(V, max_deg=1, max_terms=len(V) + 1).filter(
        lambda f: f.total_degree() == 1))
    gens = [(q * a) ** 2] + draw(st.lists(small_polys(V), max_size=1))
    if draw(st.booleans()):
        probe = draw(small_polys(V))
    else:
        probe = q * a + draw(st.sampled_from((Q(-1), Q(2), Q(1, 2), Q(3))))
    return V, gens, q * a, probe


def rabinowitsch(p, gens, syms):
    """p is in the radical of <gens> exactly when <gens, 1 - t*p> is the
    unit ideal, decided by sympy's f5b engine."""
    t = sympy.Symbol("t_")
    G = sympy.groebner([to_sympy(g, syms) for g in gens] + [1 - t * to_sympy(p, syms)],
                       t, *syms, order="grevlex", domain=sympy.QQ, method="f5b")
    return list(G.exprs) == [1]


class TestRadicalOracle:
    @settings(max_examples=60)
    @given(radical_cases())
    def test_matches_rabinowitsch(self, case):
        """in_radical agrees with Rabinowitsch in sympy, on planted members
        and on probes."""
        V, gens, member, probe = case
        I = Ideal(V, gens)
        syms = sympy.symbols(" ".join(V.names))
        assert in_radical(member, I)
        assert in_radical(member, I) == rabinowitsch(member, gens, syms)
        assert in_radical(probe, I) == rabinowitsch(probe, gens, syms)


@st.composite
def planted_factors(draw, V):
    """A planted square or affine-linear factor, a variable power (monomial
    content), a combination of even monomials (mostly positive), or any
    small polynomial."""
    n = len(V)
    kind = draw(st.sampled_from(("square", "affine", "content", "even", "any")))
    if kind in ("square", "affine"):
        linear = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
        terms = {tuple(int(k == i) for k in range(n)): Q(c) for i, c in enumerate(linear)}
        a = Polynomial(V, {**terms, (0,) * n: Q(draw(st.integers(-3, 3)))})
        return a * a if kind == "square" else a
    if kind == "content":
        mono = [0] * n
        mono[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
        return Polynomial(V, {tuple(mono): Q(1)})
    if kind == "even":
        mono = st.tuples(*[st.sampled_from((0, 2))] * n)
        terms = draw(st.dictionaries(mono, st.sampled_from((1, 2, 3, -1)),
                                     min_size=1, max_size=2))
        return Polynomial(V, {m: Q(c) for m, c in terms.items()})
    return draw(small_polys(V))


@st.composite
def real_radical_cases(draw):
    """One to three generators over 2-3 variables, each a product of one
    or two planted factors."""
    V = VarTable(("x1", "x2", "x3")[:draw(st.integers(2, 3))])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = Polynomial.constant(V, 1)
        for f in draw(st.lists(planted_factors(V), min_size=1, max_size=2)):
            g = g * f
        gens.append(g)
    return V, gens


def _positive_even(expr, syms):
    """expr is zero or a positive combination of even monomials."""
    return expr == 0 or all(c > 0 and not any(e % 2 for e in m)
                            for m, c in sympy.Poly(expr, *syms).terms())


def even_power_by_reduction(r, G, syms):
    """Some r^(2m), m <= 3, reduces modulo the sympy basis G to minus a
    positive combination of even monomials."""
    return any(_positive_even(-G.reduce(to_sympy(r, syms) ** (2 * m))[1], syms)
               for m in (1, 2, 3))


def even_power_by_lp(r, G, syms, top):
    """r^(2m) + P lies in the ideal of G for some m <= 3 and some
    nonnegative combination P of even monomials of degree at most
    2m*deg(r) + top: an exact linear program on normal forms, for
    identities whose P is not itself in normal form."""
    for m in (1, 2, 3):
        half = (2 * m * r.total_degree() + top) // 2
        evens = [h for h in itertools.product(range(half + 1), repeat=len(syms))
                 if sum(h) <= half]
        cols = [sympy.Poly(G.reduce(sympy.prod(s ** (2 * e) for s, e in zip(syms, h)))[1],
                           *syms).as_dict() for h in evens]
        target = sympy.Poly(G.reduce(to_sympy(r, syms) ** (2 * m))[1], *syms).as_dict()
        monos = sorted(set(target).union(*cols))
        A = sympy.Matrix([[c.get(mono, 0) for c in cols] for mono in monos])
        b = sympy.Matrix([-target.get(mono, 0) for mono in monos])
        try:
            # each equation as two inequalities: sympy 1.14's linprog fails
            # when given equations alone
            linprog([0] * len(cols), A=A.col_join(-A), b=b.col_join(-b))
            return True
        except InfeasibleLPError:
            pass
    return False


class TestRealRadicalOracle:
    @settings(max_examples=60)
    @given(real_radical_cases())
    @example((V2, [p("x1^2 - x2^2")]))  # even exponents, mixed signs: Unsupported
    @example((V2, [p("x1*x2^2 + x1")]))  # <x1>, by x1^2 + x1^2*x2^2 in I
    @example((V3, [p("x1^2 + x2^2", V3), p("x3", V3)]))  # <x1, x2, x3>
    @example((V3, [p("x1*x2^2 + x1", V3), p("x3^2", V3)]))  # <x1, x3>
    def test_returned_ideal_is_certified(self, case):
        """A returned J contains I, has the certified shape when I has
        several basis elements, and each of its generators passes
        Rabinowitsch or an even-power identity checked in sympy.
        Unsupported claims nothing and is only counted."""
        V, gens = case
        I = Ideal(V, gens)
        J = real_radical_restricted(I)
        syms = sympy.symbols(" ".join(V.names))
        G = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order="grevlex",
                           domain=sympy.QQ)
        supported = isinstance(J, Ideal)
        event("ideal" if supported else "Unsupported")
        if not supported:
            return
        basis = J.groebner_basis()
        assert all(J.member(g) for g in gens)
        if len(I.groebner_basis()) > 1:
            # a principal ideal's real radical is an intersection, not of this shape
            assert _structural_real_radical_shape(J.groebner_basis())
        top = max(g.total_degree() for g in gens)
        for r in basis:
            assert (rabinowitsch(r, gens, syms) or even_power_by_reduction(r, G, syms)
                    or even_power_by_lp(r, G, syms, top)), r


@st.composite
def closure_cases(draw):
    """One or two planted generators over 2-3 variables (planted_factors),
    and one or two fields whose components are each a constant (zero
    included), a variable plus a constant, or a product of two variables,
    so that most closures end within a few rounds."""
    V = VarTable(("x1", "x2", "x3")[:draw(st.integers(2, 3))])
    n = len(V)
    gens = draw(st.lists(planted_factors(V), min_size=1, max_size=2))
    variable = st.integers(0, n - 1).map(lambda i: Polynomial.variable(V, i))
    constant = st.integers(-2, 2).map(lambda c: Polynomial.constant(V, c))
    component = st.one_of(
        constant,
        st.tuples(variable, constant).map(sum),
        st.tuples(variable, variable).map(lambda xy: xy[0] * xy[1]),
    )
    fields = [VectorField(draw(st.lists(component, min_size=n, max_size=n)), f"g{j + 1}")
              for j in range(draw(st.integers(1, 2)))]
    return V, gens, fields


def lie_sympy(X, g, syms):
    """L_X g in sympy, for a field X of ours and a sympy expression g."""
    return sympy.expand(sum(to_sympy(c, syms) * sympy.diff(g, s)
                            for c, s in zip(X.components, syms)))


def from_sympy(expr, V, syms):
    poly = sympy.Poly(expr, *syms, domain=sympy.QQ)
    return Polynomial(V, {m: Q(int(c.p), int(c.q)) for m, c in poly.terms()})


class TestClosureOracle:
    @settings(max_examples=40)
    @given(closure_cases())
    @example((V2, [p("x1")], [VectorField([p("x2"), p("0")], "g1"),
                              VectorField([p("0"), p("x1^2")], "g2")]))  # planar: 1 round
    def test_rounds_match_sympy(self, case):
        """The closure contains its input, and each of its basis elements
        has every L_X g in the ideal, by sympy's reduction.  Every generator
        added in a round is the monic normal form, modulo the ideal before
        that round, of some L_X g with g in that ideal's basis or added in
        the round before (the input, for round 1)."""
        V, gens, fields = case
        try:
            result = invariant_closure(Ideal(V, gens), fields, max_rounds=6)
        except CapReached:
            event("capped")
            return
        event(f"{len(result.rounds)} rounds")
        syms = sympy.symbols(" ".join(V.names))

        def basis(polys):
            return sympy.groebner([to_sympy(g, syms) for g in polys], *syms,
                                  order="grevlex", domain=sympy.QQ)

        final = basis(result.ideal.groebner_basis())
        assert all(final.contains(to_sympy(g, syms)) for g in gens)
        for g in final.exprs:
            for X in fields:
                assert final.reduce(lie_sympy(X, g, syms))[1] == 0, (g, X.label)
        before, last = list(gens), list(gens)
        for added in result.rounds:
            G = basis(before)
            nfs = {from_sympy(G.reduce(lie_sympy(X, g, syms))[1], V, syms).monic()
                   for g in list(G.exprs) + [to_sympy(h, syms) for h in last]
                   for X in fields}
            assert added and set(added) <= nfs - {Polynomial.zero(V)}
            before, last = before + list(added), list(added)


class TestIdealOps:
    def test_sum(self):
        """The sum contains both summands and is the smallest such ideal."""
        a = ideal(("x1^2",))
        b = ideal(("x2 - 1",))
        s = ideal_sum(a, b)
        assert s.member(p("x1^2"))
        assert s.member(p("x2 - 1"))
        assert not s.member(p("x1"))

    def test_intersect_coprime(self):
        """For coprime principal ideals the intersection is the product."""
        a = ideal(("x1",))
        b = ideal(("x2 - 1",))
        c = ideal_intersect(a, b)
        assert c.equals(ideal(("x1*x2 - x1",)))

    def test_intersect_membership(self):
        """Membership in the intersection means membership in both."""
        a = ideal(("x1*x2", "x1^2"))
        b = ideal(("x2",))
        c = ideal_intersect(a, b)
        for g in c.groebner_basis():
            assert a.member(g) and b.member(g)

    def test_equal_vs_different(self):
        """Ideal.equals distinguishes genuinely different ideals."""
        assert ideal(("x1", "x2")).equals(ideal(("x2", "x1 + x2")))
        assert not ideal(("x1",)).equals(ideal(("x1^2",)))


class TestRadicals:
    def test_in_radical(self):
        """Rabinowitsch membership in the radical."""
        assert in_radical(p("x1"), ideal(("x1^3",)))
        assert in_radical(p("x1*x2"), ideal(("x1^2*x2^4",)))
        assert not in_radical(p("x1 + x2"), ideal(("x1^2",)))

    def test_zero_inputs(self):
        """Zero lies in every radical, and the zero ideal is its own
        restricted real radical."""
        assert in_radical(p("0"), ideal(("x1^2 + 1",)))
        zero = Ideal(V2, ())
        r = real_radical_restricted(zero)
        assert r.groebner_basis() == ()
        assert r.equals(zero)

    def test_radical_monomial(self):
        """Monomial radicals drop exponents to 1."""
        r = real_radical_restricted(ideal(("x1^2*x2", "x2^3")))
        assert r.equals(ideal(("x1*x2", "x2")))


class TestRealRadical:
    def test_monomial_ideal(self):
        """Monomial ideals: real radical equals the monomial radical."""
        r = real_radical_restricted(ideal(("x1^2*x2",)))
        assert r.equals(ideal(("x1*x2",)))

    def test_principal_affine_power(self):
        """Powers of an affine form reduce to the form."""
        r = real_radical_restricted(ideal(("x1^2 + 2*x1*x2 + x2^2",)))
        assert r.equals(ideal(("x1 + x2",)))

    def test_principal_monomial_times_affine(self):
        """Content splits off and the pieces recombine by intersection."""
        r = real_radical_restricted(ideal(("x1^2*x2 - x1^2",)))
        assert r.equals(ideal(("x1*x2 - x1",)))

    def test_principal_even_powers(self):
        """Positive combinations of even powers vanish on a coordinate set."""
        r = real_radical_restricted(ideal(("x1^2 + x2^4",)))
        assert r.equals(ideal(("x1", "x2")))
        r = real_radical_restricted(ideal(("2*x1^2 + 3/2*x2^2*x1^2",)))
        assert isinstance(r, Ideal)

    def test_unsupported_principal(self):
        """Mixed-sign non-even generators are refused, with a reason."""
        r = real_radical_restricted(ideal(("x1^3 - x2^2",)))
        assert isinstance(r, Unsupported)
        assert r.reason

    def test_combined_generators(self):
        """Per-generator reduction then recombination."""
        r = real_radical_restricted(ideal(("x1^2*x2", "x1*x2^2", "x1^4")))
        assert r.equals(ideal(("x1",)))

    def test_unsupported_generator_passes_through(self):
        """A generator outside the principal classes joins the combination raw."""
        r = real_radical_restricted(ideal(("x1^2", "x1*x2 - x1^3")))
        assert r.equals(ideal(("x1",)))

    def test_certified_shape_required(self):
        """A raw passthrough that stays non-monomial blocks the combination."""
        r = real_radical_restricted(ideal(("x1^3 - x2^2", "x3"), V3))
        assert isinstance(r, Unsupported)
        assert "squarefree monomials" in r.reason

    def test_combination_with_certificates(self):
        """Recombined generators are certified by real-radical witnesses."""
        r = real_radical_restricted(ideal(("x1*x2", "x1 - x2")))
        assert r.equals(ideal(("x1", "x2")))
        r = real_radical_restricted(ideal(("x1*(x1^2 + 1)", "x2")))
        assert r.equals(ideal(("x1", "x2")))

    def test_sum_of_supported_pieces(self):
        """Each generator's real radical is supported alone, and their sum
        has the certified shape, so it is the answer: the sum lies between
        the ideal and its real radical."""
        r = real_radical_restricted(ideal(("x1^2 + x2^2", "x3"), V3))
        assert r.equals(ideal(("x1", "x2", "x3"), V3))
        r = real_radical_restricted(ideal(("x1*x2^2 + x1", "x3^2"), V3))
        assert r.equals(ideal(("x1", "x3"), V3))

    def test_random_system_359(self):
        """The depth-0 minor ideal of random system 359 of the exact index
        search: x1*(x2^2 + 1/3) gives <x1>, x2*(x2^2 + 1/3) gives <x2>, and
        the third generator passes raw into <x1, x2>."""
        r = real_radical_restricted(
            ideal(("x1*x2^2 + 1/3*x1", "x2^3 + 1/3*x2", "x1^2 - 2/3*x1 + x2")))
        assert r.equals(ideal(("x1", "x2")))

    def test_sum_built_on_the_input_basis(self):
        """J's basis is I's basis with the supported pieces inserted, not a
        basis built from scratch."""
        I = ideal(("x1^2*x2", "x1*x2^2", "x1^4"))
        r = real_radical_restricted(I)
        assert r.equals(ideal(("x1",)))
        assert r._seed is I._basis()

    def test_improper_passes(self):
        """The unit ideal is its own real radical."""
        r = real_radical_restricted(ideal(("x1", "x1 - 1")))
        assert isinstance(r, Ideal)
        assert not r.is_proper()


class TestInvariance:
    def fields(self):
        g1 = VectorField([p("x2"), p("0")], "g1")
        g2 = VectorField([p("0"), p("x1^2")], "g2")
        return [g1, g2]

    def test_invariant(self):
        """The origin ideal is invariant for the planar pair."""
        res = is_invariant(ideal(("x1", "x2")), self.fields())
        assert res.invariant

    def test_witness(self):
        """A failure reports the generator, the field, and the residue."""
        res = is_invariant(ideal(("x1",)), self.fields())
        assert not res.invariant
        assert str(res.generator) == "x1"
        assert res.field_label == "g1"
        assert str(res.residue) == "x2"

    def test_closure(self):
        """The closure is invariant and contains the seed."""
        seed = ideal(("x1",))
        result = invariant_closure(seed, self.fields())
        assert is_invariant(result.ideal, self.fields()).invariant
        for g in seed.groebner_basis():
            assert result.ideal.member(g)
        assert result.ideal.equals(ideal(("x1", "x2")))
        assert len(result.rounds) == 1

    def test_frontier_random_system_5(self):
        """The closure of random system 5's k* minor ideal reaches the unit
        ideal after 2 rounds, well within the ceiling.  Differentiating the
        whole basis every round ran past 25 s on it."""
        session = AnalysisSession(random_system(5))
        k = session.generic("accessibility").k_star
        minors = session.minors("accessibility", k, session.system.dimension)

        def expire(signum, frame):
            raise TimeoutError("the closure ran past its 5 s ceiling")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        start = time.monotonic()
        try:
            result = invariant_closure(minors, session.system.operators())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 2.0
        assert len(result.rounds) == 2
        assert not result.ideal.is_proper()
