"""Polynomial submodules and the ascending bracket-module chain."""

import random

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyaccess import (
    Ideal,
    Polynomial,
    PolySubmodule,
    SystemSpec,
    VarTable,
    VectorField,
    lie_bracket,
    parse_polynomial,
    stabilize_chain,
)
from polyaccess.analysis import AnalysisSession
from polyaccess.modules import field_to_dict, module_buchberger
from polyaccess.poly import mono_div, mono_divides, mono_key, mono_lcm
from polyaccess.rationals import Q

V2 = VarTable(("x1", "x2"))
V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V2):
    return parse_polynomial(text, vars)


def vf(texts, label, vars=V2):
    return VectorField([p(t, vars) for t in texts], label)


def random_field(rng, vars, label):
    comps = []
    for _ in range(len(vars)):
        acc = Polynomial.zero(vars)
        for _ in range(2):
            mono = [0] * len(vars)
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(len(vars))] += 1
            acc = acc + Polynomial.from_terms(
                vars, [(Q(rng.randint(-3, 3)), tuple(mono))])
        comps.append(acc)
    return VectorField(comps, label)


class TestPolySubmodule:
    def test_generators_are_members(self):
        """Every generator reduces to zero."""
        rng = random.Random(53)
        gens = [random_field(rng, V2, f"v{i}") for i in range(3)]
        mod = PolySubmodule(V2, 2, gens)
        for g in gens:
            assert mod.member(g)

    def test_polynomial_combinations_are_members(self):
        """Module closure under polynomial coefficients."""
        rng = random.Random(59)
        gens = [random_field(rng, V2, f"v{i}") for i in range(2)]
        mod = PolySubmodule(V2, 2, gens)
        for _ in range(10):
            a, b = p("x1^2 - x2"), p(str(rng.randint(-3, 3)))
            combo = VectorField(
                [a * u + b * w for u, w in zip(gens[0].components,
                                               gens[1].components)], "combo")
            assert mod.member(combo)

    def test_nonmember_detected(self):
        """A direction outside the span is rejected."""
        mod = PolySubmodule(V2, 2, [vf(("x1", "0"), "v")])
        assert not mod.member(vf(("0", "1"), "w"))
        assert not mod.member(vf(("1", "0"), "w"))
        assert mod.member(vf(("x1^2", "0"), "w"))

    def test_equals_is_generator_independent(self):
        """Equality compares the canonical bases."""
        a = PolySubmodule(V2, 2, [vf(("x1", "0"), "u"), vf(("0", "x2"), "v")])
        b = PolySubmodule(V2, 2, [vf(("x1", "x2"), "u"), vf(("0", "x2"), "v"),
                                  vf(("x1^2", "0"), "w")])
        assert a.equals(b)
        c = PolySubmodule(V2, 2, [vf(("x1", "0"), "u")])
        assert not a.equals(c)

    def test_extended(self):
        """Extension adds new directions."""
        a = PolySubmodule(V2, 2, [vf(("x1", "0"), "u")])
        b = a.extended([vf(("0", "1"), "w")])
        assert b.member(vf(("x1", "5"), "q"))
        assert not a.member(vf(("x1", "5"), "q"))


@st.composite
def submodules(draw, dims=st.integers(1, 3)):
    """Random submodules of Q[x1, x2]^d as 1-5 generators, each a list of d
    {monomial: coefficient} dicts of up to two terms (zero entries and zero
    vectors included), plus at times a scaled copy of the first."""
    d = draw(dims)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=2)
    gens = draw(st.lists(st.lists(poly, min_size=d, max_size=d), min_size=1, max_size=5))
    if draw(st.booleans()):
        gens.append([{m: 2 * c for m, c in comp.items()} for comp in gens[0]])
    return d, gens


def as_field(vec, label="v"):
    return VectorField([Polynomial(V2, {m: Q(c) for m, c in comp.items()})
                        for comp in vec], label)


def basis_of(mod):
    return [field_to_dict(f) for f in mod.groebner_basis()]


def leading(field):
    """(position, monomial, coefficient) of the leading term: the lowest
    nonzero component, position over term."""
    for pos, comp in enumerate(field.components):
        if not comp.is_zero():
            c, m = comp.lt()
            return pos, m, c


def shifted(field, mono):
    mul = Polynomial(V2, {mono: Q(1)})
    return [comp * mul for comp in field.components]


def sympy_vector(vec):
    x1, x2 = sympy.symbols("x1 x2")
    return [sum((c * x1 ** a * x2 ** b for (a, b), c in comp.items()), sympy.Integer(0))
            for comp in vec]


class TestModuleOracle:
    @settings(max_examples=60)
    @given(submodules(), st.data())
    def test_extension_matches_scratch(self, case, data):
        """Growing a basis one vector at a time gives the from-scratch basis,
        in any generator order."""
        d, gens = case
        fields = [as_field(v) for v in gens]
        scratch = basis_of(PolySubmodule(V2, d, fields))
        perm = data.draw(st.permutations(range(len(fields))))
        assert basis_of(PolySubmodule(V2, d, [fields[i] for i in perm])) == scratch
        grown = PolySubmodule(V2, d, [])
        for i in perm:
            grown = grown.extended([fields[i]])
        assert basis_of(grown) == scratch

    @settings(max_examples=60)
    @given(submodules())
    def test_basis_is_reduced_groebner(self, case):
        """Every same-position S-pair reduces to zero, and the basis is
        reduced: monic, and no term divisible by another element's leading
        term in its position."""
        d, gens = case
        mod = PolySubmodule(V2, d, [as_field(v) for v in gens])
        gb = mod.groebner_basis()
        lts = [leading(f) for f in gb]
        for i, f in enumerate(gb):
            assert lts[i][2] == 1
            for pos, m in field_to_dict(f):
                for j, (pj, mj, _) in enumerate(lts):
                    assert j == i or pj != pos or not mono_divides(mj, m)
            for j in range(i):
                (pi, mi, _), (pj, mj, _) = lts[i], lts[j]
                if pi != pj:
                    continue
                L = mono_lcm(mi, mj)
                a, b = shifted(f, mono_div(L, mi)), shifted(gb[j], mono_div(L, mj))
                assert mod.member(VectorField([u - v for u, v in zip(a, b)], "s"))

    @settings(max_examples=40)
    @given(submodules(), st.data())
    def test_membership_matches_sympy(self, case, data):
        """Membership of a random combination of the generators, of a random
        vector and of each unit vector agrees with sympy's submodule test."""
        d, gens = case
        mod = PolySubmodule(V2, d, [as_field(v) for v in gens])
        x1, x2 = sympy.symbols("x1 x2")
        theirs = sympy.QQ.old_poly_ring(x1, x2).free_module(d).submodule(
            *[sympy_vector(v) for v in gens if any(v)])
        mono = st.tuples(st.integers(0, 1), st.integers(0, 1))
        poly = st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=2)
        multipliers = data.draw(st.lists(poly, min_size=len(gens), max_size=len(gens)))
        combo = [{} for _ in range(d)]
        for mult, vec in zip(multipliers, gens):
            for k, comp in enumerate(vec):
                for (a1, a2), c in mult.items():
                    for (b1, b2), e in comp.items():
                        m = (a1 + b1, a2 + b2)
                        combo[k][m] = combo[k].get(m, 0) + c * e
        combo = [{m: c for m, c in comp.items() if c} for comp in combo]
        assert mod.member(as_field(combo))
        assert theirs.contains(sympy_vector(combo))
        others = [data.draw(st.lists(poly, min_size=d, max_size=d))]
        others += [[{(0, 0): 1} if k == j else {} for k in range(d)] for j in range(d)]
        for vec in others:
            assert mod.member(as_field(vec)) == theirs.contains(sympy_vector(vec))

    @settings(max_examples=40)
    @given(submodules(dims=st.just(1)), st.data())
    def test_rank_one_views_agree(self, case, data):
        """An Ideal and a PolySubmodule of Q[x]^1 on the same generators give
        the same reduced basis, and the same normal form and membership for a
        drawn polynomial: a multiple of the first generator plus a remainder."""
        _, gens = case
        polys = [Polynomial(V2, {m: Q(c) for m, c in vec[0].items()}) for vec in gens]
        ideal = Ideal(V2, polys)
        module = PolySubmodule(V2, 1, [as_field(v) for v in gens])
        as_vec = lambda g: {(0, m): c for m, c in g.coeffs.items()}
        assert [as_vec(g) for g in ideal.groebner_basis()] == basis_of(module)
        assert ideal.equals(module) and module.equals(ideal)
        mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
        poly = st.dictionaries(mono, st.integers(-3, 3).filter(bool), max_size=2)
        mult, rest = data.draw(poly), data.draw(poly)
        f = (Polynomial(V2, {m: Q(c) for m, c in mult.items()}) * polys[0]
             + Polynomial(V2, {m: Q(c) for m, c in rest.items()}))
        assert as_vec(ideal.normal_form(f)) == module.normal_form(as_field([f.coeffs]))
        assert ideal.member(f) == module.member(as_field([f.coeffs]))

    @settings(max_examples=60)
    @given(submodules(), st.data())
    def test_one_generator_basis(self, case, data):
        """A lone nonzero vector d is its own basis: module_buchberger([d])
        equals the general path's module_buchberger([d, m*d]) for a drawn
        nonzero polynomial m, as dicts in the same key order.  Its element
        is monic, its terms descending, position over term."""
        dim, gens = case
        d = {(pos, mono): Q(c) for pos, comp in enumerate(gens[0]) for mono, c in comp.items()}
        assume(d)
        mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
        m = data.draw(st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                                      min_size=1, max_size=2))
        md = {}
        for (pos, a), c in d.items():
            for b, e in m.items():
                t = (pos, (a[0] + b[0], a[1] + b[1]))
                md[t] = md.get(t, 0) + c * e
        one = module_buchberger([d], dim)
        general = module_buchberger([d, {t: c for t, c in md.items() if c}], dim)
        assert [list(e.items()) for e in one] == [list(e.items()) for e in general]
        assert len(one) == 1 and next(iter(one[0].values())) == 1
        order = [(-pos, mono_key(mono)) for pos, mono in one[0]]
        assert order == sorted(order, reverse=True)


class TestStabilizeChain:
    def planar(self):
        zero = VectorField([Polynomial.zero(V2)] * 2, "f")
        return SystemSpec(V2, zero, [vf(("x2", "0"), "g1"), vf(("0", "x1^2"), "g2")])

    def test_planar_chain(self):
        """The planar example stabilizes at depth 2."""
        chain = stabilize_chain(self.planar())
        assert chain.r_hat == 2
        assert chain.mode == "accessibility"
        labels = [tuple(f.label for f in gen) for gen in chain.rounds]
        assert labels[0] == ("g1", "g2")
        assert labels[1] == ("[g1,g2]",)

    def test_stabilized_module_absorbs_brackets(self):
        """At the fixed point, brackets of columns by operators stay inside."""
        sys_ = self.planar()
        chain = stabilize_chain(sys_)
        mod = chain.module
        for op in sys_.operators():
            for col in chain.columns:
                assert mod.member(lie_bracket(op, col))

    def test_chain_monotone(self):
        """Each round's columns extend the previous module."""
        sys_ = self.planar()
        chain = stabilize_chain(sys_)
        for k in range(1, len(chain.rounds)):
            prev = PolySubmodule(V2, 2, chain.columns_at(k - 1))
            for f in chain.rounds[k]:
                assert not prev.member(f)

    def test_module_is_column_span(self):
        """The stabilized module is spanned by exactly the chain's columns,
        so its rank is the limit matrix's generic rank; at every depth the
        recorded basis size is that of the columns retained so far, and
        the columns span the same module as the whole bracket family
        through that depth, so either gives the same minor ideals."""
        systems = [self.planar()]
        for seed in range(10):
            rng = random.Random(seed)
            systems.append(SystemSpec(V2, random_field(rng, V2, "f"),
                                      [random_field(rng, V2, "g")]))
        for sys_ in systems:
            for mode in ("accessibility", "strong"):
                session = AnalysisSession(sys_)
                chain = session.chain(mode)
                # the family adjoined one field at a time: a basis built from
                # all the raw brackets at once is far slower for the same module
                family = PolySubmodule(V2, 2, [])
                for depth in range(chain.r_hat + 2):
                    for field in session.family(mode, depth)[depth]:
                        family = family.adjoin(field)[1]
                    span = PolySubmodule(V2, 2, chain.columns_at(depth))
                    if depth <= chain.r_hat:
                        assert len(span.groebner_basis()) == chain.basis_sizes[depth]
                    assert span.equals(family)
                assert span.equals(chain.module)

    def test_strong_mode_smaller_start(self):
        """Strong mode seeds without the drift but brackets with it."""
        f = vf(("0", "x2^2 + x3^2 - 1", "0"), "f", V3)
        g = vf(("x2", "x2*x3", "-x2^2"), "g", V3)
        sys_ = SystemSpec(V3, f, [g])
        strong = stabilize_chain(sys_, mode="strong")
        assert strong.mode == "strong"
        assert [x.label for x in strong.rounds[0]] == ["g"]
        plain = stabilize_chain(sys_)
        assert [x.label for x in plain.rounds[0]] == ["f", "g"]
