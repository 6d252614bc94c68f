"""Matrices of polynomial columns: minors, ranks, column reduction."""

import random
from itertools import combinations
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grevlex

from polyaccess import (
    Ideal,
    PolySubmodule,
    Polynomial,
    SystemSpec,
    VarTable,
    VectorField,
    build_matrix,
    generic_rank,
    minor_ideal,
    parse_polynomial,
    rational_rank,
)
from polyaccess.analysis import AnalysisSession
from polyaccess.rationals import Q

V2 = VarTable(("x1", "x2"))


def p(text, vars=V2):
    return parse_polynomial(text, vars)


def vf(texts, label, vars=V2):
    return VectorField([p(t, vars) for t in texts], label)


def random_poly(rng, max_deg=2, terms=2):
    acc = Polynomial.zero(V2)
    for _ in range(terms):
        mono = [0, 0]
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(2)] += 1
        acc = acc + Polynomial.from_terms(V2, [(Q(rng.randint(-3, 3)), tuple(mono))])
    return acc


def planar_columns():
    return [
        vf(("x2", "0"), "g1"),
        vf(("0", "x1^2"), "g2"),
        vf(("-x1^2", "2*x1*x2"), "b"),
    ]


class TestDeterminant:
    def test_matches_independent_engine(self):
        """The one minor of a square matrix is its determinant made monic,
        as a symbolic engine computes it, or no generator when that is zero,
        up to 5 x 5, past the 4 x 4 minors of the cart-pole's rank-4 locus."""
        rng = random.Random(61)
        syms = sympy.symbols("x1 x2")
        for size in (2, 3, 4, 5):
            for _ in range(6):
                rows = []
                for _ in range(size):
                    row = []
                    for _ in range(size):
                        deg = rng.randint(0, 2)
                        mono = [0, 0]
                        for _ in range(deg):
                            mono[rng.randrange(2)] += 1
                        row.append(Polynomial.from_terms(
                            V2, [(Q(rng.randint(-3, 3)), tuple(mono))]))
                    rows.append(row)
                cols = [VectorField([row[j] for row in rows], f"c{j}") for j in range(size)]
                ours = minor_ideal(build_matrix(cols), size).gens
                mat = sympy.Matrix(
                    [[sympy.sympify(str(e).replace("^", "**")) for e in row]
                     for row in rows])
                det = sympy.Poly(mat.det(method="berkowitz"), *syms)
                if det.is_zero:
                    assert ours == ()
                    continue
                lc = max(det.terms(), key=lambda t: grevlex(t[0]))[1]
                (g,) = ours
                assert sympy.expand(
                    sympy.sympify(str(g).replace("^", "**")) - det.as_expr() / lc) == 0

    def test_rational_rows(self):
        """rational_rank matches a symbolic engine on rows with mixed
        denominators and on integer rows, in every shape up to 5 x 5, with
        rank deficits and zero columns."""
        rng = random.Random(83)
        for trial in range(150):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            base = [[Q(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(m)]
                    for _ in range(rng.randint(1, min(n, m)))]
            zero = set(rng.sample(range(m), rng.randint(0, m - 1)))
            rows = [[Q(0) if j in zero else
                     sum(Q(rng.randint(-2, 2), rng.randint(1, 5)) * b[j] for b in base)
                     for j in range(m)] for _ in range(n)]
            if trial % 2:  # the same ranks on integer rows
                rows = [[int(v * lcm(*(u.denominator for u in row))) for v in row]
                        for row in rows]
            mat = sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in rows])
            assert rational_rank(rows) == mat.rank()


@st.composite
def sparse_matrices(draw):
    """A minor size k <= 4 and a random n x m matrix over Q[x1, x2],
    k <= n <= 5 and k <= m <= 7, as rows of {monomial: coefficient}: zero or
    one or two terms per entry, with a zero row, a zero column or a repeated
    column thrown in at times."""
    size = draw(st.integers(1, 4))
    n = draw(st.integers(size, 5))
    m = draw(st.integers(size, 7))
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    entry = st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=2)
    rows = [[draw(entry) for _ in range(m)] for _ in range(n)]
    extra = draw(st.sampled_from(("none", "zero row", "zero column", "repeated column")))
    if extra == "zero row":
        rows[draw(st.integers(0, n - 1))] = [{}] * m
    elif extra == "zero column":
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = {}
    elif extra == "repeated column" and m > 1:
        j, k = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        for row in rows:
            row[k] = row[j]
    return rows, size


class TestMinorIdeal:
    @settings(max_examples=60)
    @given(sparse_matrices())
    def test_minors_match_sympy(self, case):
        """The generators are exactly the distinct monic nonzero minors that
        sympy computes, each once and each monic."""
        rows, size = case
        n, m = len(rows), len(rows[0])
        cols = [VectorField([Polynomial(V2, {mo: Q(c) for mo, c in rows[i][j].items()})
                             for i in range(n)], f"c{j}") for j in range(m)]
        gens = minor_ideal(build_matrix(cols), size).gens
        ours = {frozenset(g.coeffs.items()) for g in gens}
        assert len(ours) == len(gens)
        assert all(g.lt()[0] == 1 for g in gens)
        R = sympy.QQ[sympy.symbols("x1 x2")]
        D = DomainMatrix([[R.ring.from_dict(e) for e in row] for row in rows], (n, m), R)
        theirs = set()
        for rs in combinations(range(n), size):
            for cs in combinations(range(m), size):
                d = D.extract(list(rs), list(cs)).det()
                if not d:
                    continue
                terms = [(mo, Q(int(c.numerator), int(c.denominator)))
                         for mo, c in d.items()]
                lc = max(terms, key=lambda t: grevlex(t[0]))[1]
                theirs.add(frozenset((mo, c / lc) for mo, c in terms))
        assert ours == theirs

    def test_planar_top_minors(self):
        """2x2 minors of the planar depth-1 matrix."""
        M = build_matrix(planar_columns()[:2])
        I = minor_ideal(M, 2)
        assert I.equals(Ideal(V2, [p("x1^2*x2")]))

    def test_size_one(self):
        """1x1 minors are the entries."""
        M = build_matrix(planar_columns()[:1])
        I = minor_ideal(M, 1)
        assert I.equals(Ideal(V2, [p("x2")]))

    def test_oversized_rejected(self):
        """Minor sizes beyond the matrix shape are errors."""
        M = build_matrix(planar_columns()[:1])
        with pytest.raises(ValueError):
            minor_ideal(M, 3)


def raw_family(session, mode, depth):
    """Members of the session's bracket family through `depth`, unreduced."""
    return [v for generation in session.family(mode, depth) for v in generation]


def chain_systems():
    """The planar system and three random ones whose raw families' minor
    ideals have bases small enough to compute in milliseconds."""
    zero = vf(("0", "0"), "f")
    systems = [SystemSpec(V2, zero, planar_columns()[:2])]
    for seed in range(3):
        rng = random.Random(seed)
        systems.append(SystemSpec(V2, VectorField([random_poly(rng) for _ in "fx"], "f"),
                                  [VectorField([random_poly(rng) for _ in "gx"], "g")]))
    return systems


class TestReduceColumns:
    """The module chain reduces the bracket family: through r-hat + 1 its
    columns span what the raw family spans, which the session relies on
    when it reads minors and ranks off the chain."""

    def test_dependent_columns_dropped(self):
        """A bracket in the span of the columns so far is not a column."""
        session = AnalysisSession(chain_systems()[0])
        raw = raw_family(session, "accessibility", 2)
        cols = session.matrix("accessibility", 2).labels
        assert [v.label for v in raw] == list(cols) + ["[g2,[g1,g2]]"]
        assert session.chain("accessibility").r_hat == 2
        assert session.chain("accessibility").module.member(raw[-1])

    def test_pointwise_rank_preserved(self):
        """Chain columns and raw family have equal ranks at sampled points."""
        rng = random.Random(71)
        for system in chain_systems():
            for mode in ("accessibility", "strong"):
                session = AnalysisSession(system)
                for depth in range(session.chain(mode).r_hat + 2):
                    M0 = build_matrix(raw_family(session, mode, depth))
                    M1 = session.matrix(mode, depth)
                    for _ in range(8):
                        pt = [Q(rng.randint(-6, 6)) for _ in range(2)]
                        assert rational_rank(M0.evaluate(pt)) == rational_rank(M1.evaluate(pt))

    def test_minor_ideals_preserved(self):
        """Chain columns and raw family have equal minor ideals of each size."""
        for system in chain_systems():
            for mode in ("accessibility", "strong"):
                session = AnalysisSession(system)
                for depth in range(session.chain(mode).r_hat + 2):
                    raw = build_matrix(raw_family(session, mode, depth))
                    for size in range(1, min(2, raw.ncols) + 1):
                        assert minor_ideal(raw, size).equals(session.minors(mode, depth, size))


class TestGenericRank:
    def test_full_rank_certified(self):
        """Generic rank of the planar matrix is 2."""
        assert generic_rank(build_matrix(planar_columns())) == 2

    def test_degenerate_matrix(self):
        """A rank-1 column set is certified at 1 despite sampling."""
        cols = [vf(("x1", "x2"), "v"), vf(("2*x1", "2*x2"), "w"),
                vf(("x1^2", "x1*x2"), "u")]
        assert generic_rank(build_matrix(cols)) == 1

    @settings(max_examples=60)
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_rank_matches_minors(self, n, m, k, seed):
        """The certified rank equals the minor rank: some r x r minor is
        nonzero and every (r+1) x (r+1) minor vanishes.  The columns are
        polynomial combinations of k random vectors, so whenever k is below
        min(n, m) the matrix is rank-deficient."""
        rng = random.Random(seed)
        base = [[random_poly(rng, terms=rng.randint(1, 2)) for _ in range(n)]
                for _ in range(k)]
        cols = []
        for j in range(m):
            comps = [Polynomial.zero(V2)] * n
            for b in base:
                f = random_poly(rng, max_deg=1)
                comps = [c + f * e for c, e in zip(comps, b)]
            cols.append(VectorField(comps, f"c{j}"))
        M = build_matrix(cols)

        def some_minor_nonzero(r):
            return r == 0 or bool(minor_ideal(M, r).gens)

        r = min(n, m)
        while not some_minor_nonzero(r):
            r -= 1
        assert generic_rank(M) == r
        # no samples: the rank comes from the column module alone
        assert PolySubmodule(M.vars, n, cols).rank() == r

    @pytest.mark.parametrize("columns", [
        (("x1/2", "1/3"), ("x2/5", "-x1*x2/7")),
        (("x1/2", "1/3"), ("x1^2/3", "2*x1/9")),  # second = 2/3 x1 times first
        (("x1/2", "1/3", "-x2/4"), ("x2/5", "-x1*x2/7", "3/2"), ("x1/6", "x1/9", "-x1*x2/12")),
    ])
    def test_fractional_coefficients(self, columns):
        """With fractional coefficients, sampling in integers finds the rank
        that sampling the rational matrix at the same points finds, for
        seeds 0-20: full size as soon as a point reaches it, else the
        certified rank of the column module."""
        cols = [vf(texts, f"c{j}") for j, texts in enumerate(columns)]
        M = build_matrix(cols)
        cap = min(M.nrows, M.ncols)
        certified = PolySubmodule(M.vars, M.nrows, cols).rank()
        for seed in range(21):
            rng = random.Random(seed)
            best = 0
            for _ in range(5):
                point = tuple(Q(rng.randint(-1000, 1000)) for _ in M.vars)
                best = max(best, sympy.Matrix([[sympy.Rational(str(v)) for v in row]
                                               for row in M.evaluate(point)]).rank())
                if best == cap:
                    break
            assert generic_rank(M, seed=seed) == (cap if best == cap else certified)

    def test_seed_stability(self):
        """The certified rank does not depend on the seed."""
        M = build_matrix(planar_columns())
        assert generic_rank(M, seed=0) == generic_rank(M, seed=99)
