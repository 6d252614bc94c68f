"""Vector fields, Lie operations, and the new-ray bracket step."""

import random

import pytest
import sympy

from polyaccess import (
    Polynomial,
    SystemSpec,
    VarTable,
    VectorField,
    lie_bracket,
    lie_derivative,
    parse_polynomial,
)
from polyaccess.rationals import Q
from polyaccess.vectorfields import new_brackets, ray_key

V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V3):
    return parse_polynomial(text, vars)


def vf(texts, label, vars=V3):
    return VectorField([p(t, vars) for t in texts], label)


def random_field(rng, vars, label, max_deg=3):
    comps = []
    for _ in range(len(vars)):
        acc = Polynomial.zero(vars)
        for _ in range(3):
            mono = [0] * len(vars)
            for _ in range(rng.randint(0, max_deg)):
                mono[rng.randrange(len(vars))] += 1
            acc = acc + Polynomial.from_terms(
                vars, [(Q(rng.randint(-4, 4)), tuple(mono))])
        comps.append(acc)
    return VectorField(comps, label)


def sympy_bracket(f, g, syms):
    """Independent bracket oracle: Jacobian form [f,g] = Dg f - Df g."""
    fs = [sympy.sympify(str(c).replace("^", "**")) for c in f.components]
    gs = [sympy.sympify(str(c).replace("^", "**")) for c in g.components]
    out = []
    for j in range(len(syms)):
        expr = sympy.Integer(0)
        for i, s in enumerate(syms):
            expr += sympy.diff(gs[j], s) * fs[i] - sympy.diff(fs[j], s) * gs[i]
        out.append(sympy.expand(expr))
    return out


class TestLieDerivative:
    def test_directional(self):
        """L_f of a scalar is the gradient paired with f."""
        f = vf(("x2", "-x1", "0"), "f")
        assert lie_derivative(f, p("x1^2 + x2^2")) == Polynomial.zero(V3)
        assert lie_derivative(f, p("x1")) == p("x2")

    def test_product_rule(self):
        """L_f(ab) = (L_f a) b + a (L_f b)."""
        rng = random.Random(3)
        f = random_field(rng, V3, "f")
        a, b = p("x1*x3 - x2"), p("x2^2 + 1")
        assert lie_derivative(f, a * b) == \
            lie_derivative(f, a) * b + a * lie_derivative(f, b)


def _lie_derivative_reference(field, q):
    """sum_i dq/dx_i * field_i by polynomial arithmetic, term by term."""
    total = Polynomial.zero(q.vars)
    for i, comp in enumerate(field.components):
        total = total + q.partial_derivative(i) * comp
    return total


class TestLieBracket:
    def test_matches_unfused_formula(self):
        """The summed bracket equals L_f(g_j) - L_g(f_j) built from separate
        products, and lie_derivative equals its term-by-term sum."""
        rng = random.Random(17)
        for _ in range(20):
            f = random_field(rng, V3, "f")
            g = random_field(rng, V3, "g")
            fg = lie_bracket(f, g)
            for fj, gj, b in zip(f, g, fg):
                assert b == lie_derivative(f, gj) - lie_derivative(g, fj)
                assert b == _lie_derivative_reference(f, gj) - _lie_derivative_reference(g, fj)
            for q in list(f) + list(g):
                assert lie_derivative(g, q) == _lie_derivative_reference(g, q)

    def test_antisymmetry_random(self):
        """[f,g] = -[g,f] on random fields."""
        rng = random.Random(17)
        for _ in range(20):
            f = random_field(rng, V3, "f")
            g = random_field(rng, V3, "g")
            fg = lie_bracket(f, g)
            gf = lie_bracket(g, f)
            for a, b in zip(fg.components, gf.components):
                assert a == -b

    def test_self_bracket_vanishes(self):
        """[f,f] = 0."""
        rng = random.Random(23)
        f = random_field(rng, V3, "f")
        assert lie_bracket(f, f).is_zero()

    def test_bilinearity(self):
        """[f, g+h] = [f,g] + [f,h]."""
        rng = random.Random(29)
        f = random_field(rng, V3, "f")
        g = random_field(rng, V3, "g")
        h = random_field(rng, V3, "h")
        gh = VectorField([a + b for a, b in zip(g.components, h.components)], "g+h")
        lhs = lie_bracket(f, gh)
        rhs1 = lie_bracket(f, g)
        rhs2 = lie_bracket(f, h)
        for a, b, c in zip(lhs.components, rhs1.components, rhs2.components):
            assert a == b + c

    def test_jacobi_random(self):
        """[f,[g,h]] + [g,[h,f]] + [h,[f,g]] = 0 on random triples."""
        rng = random.Random(31)
        for _ in range(10):
            f = random_field(rng, V3, "f", max_deg=2)
            g = random_field(rng, V3, "g", max_deg=2)
            h = random_field(rng, V3, "h", max_deg=2)
            total = [
                a + b + c
                for a, b, c in zip(
                    lie_bracket(f, lie_bracket(g, h)).components,
                    lie_bracket(g, lie_bracket(h, f)).components,
                    lie_bracket(h, lie_bracket(f, g)).components,
                )
            ]
            assert all(t.is_zero() for t in total)

    def test_matches_independent_oracle(self):
        """Brackets agree with a Jacobian-based symbolic engine."""
        rng = random.Random(37)
        syms = sympy.symbols("x1 x2 x3")
        for _ in range(10):
            f = random_field(rng, V3, "f")
            g = random_field(rng, V3, "g")
            ours = lie_bracket(f, g)
            theirs = sympy_bracket(f, g, syms)
            for comp, expect in zip(ours.components, theirs):
                got = sympy.sympify(str(comp).replace("^", "**"))
                assert sympy.expand(got - expect) == 0


class TestSystemSpec:
    def test_generators_by_mode(self):
        """Accessibility includes the drift; strong accessibility does not."""
        f = vf(("0", "x2^2 + x3^2 - 1", "0"), "f")
        g = vf(("x2", "x2*x3", "-x2^2"), "g")
        sys_ = SystemSpec(V3, f, [g])
        assert [x.label for x in sys_.generators("accessibility")] == ["f", "g"]
        assert [x.label for x in sys_.generators("strong")] == ["g"]
        assert [x.label for x in sys_.operators()] == ["f", "g"]

    def test_zero_drift_skipped(self):
        """A zero drift stays a depth-0 generator but is not an operator."""
        zero = VectorField([Polynomial.zero(V3)] * 3, "f")
        g = vf(("1", "0", "0"), "g")
        sys_ = SystemSpec(V3, zero, [g])
        assert [x.label for x in sys_.generators("accessibility")] == ["f", "g"]
        assert [x.label for x in sys_.operators()] == ["g"]

    def test_requires_input(self):
        """At least one input field is required."""
        zero = VectorField([Polynomial.zero(V3)] * 3, "f")
        with pytest.raises(ValueError):
            SystemSpec(V3, zero, [])


class TestBracketFamily:
    """new_brackets, the one step that grows the bracket family and the
    module chain."""

    V2 = VarTable(("x1", "x2"))

    def test_depth_growth(self):
        """Each generation holds exactly the new depth's brackets, operator
        by operator, in the order of the generation before."""
        g1 = vf(("x2", "0"), "g1", self.V2)
        g2 = vf(("0", "x1^2"), "g2", self.V2)
        ops = (g1, g2)
        rays = {ray_key(g1), ray_key(g2)}
        gen1 = list(new_brackets(ops, ops, rays).values())
        assert [x.label for x in gen1] == ["[g1,g2]"]
        assert [str(c) for c in gen1[0].components] == ["-x1^2", "2*x1*x2"]
        gen2 = list(new_brackets(ops, gen1, rays).values())
        assert [x.label for x in gen2] == ["[g1,[g1,g2]]", "[g2,[g1,g2]]"]
        assert [[str(c) for c in x.components] for x in gen2] == \
            [["-4*x1*x2", "2*x2^2"], ["0", "4*x1^3"]]

    def test_scalar_duplicates_pruned(self):
        """Brackets equal to a prior field up to a rational scale are dropped,
        and of two brackets on one new ray only the first is kept."""
        g1 = vf(("x2", "0"), "g1", self.V2)
        g2 = vf(("0", "x2"), "g2", self.V2)
        # [g1,g2] = (-x2, 0) = -g1 and [g2,g1] = g1: both land on g1's ray.
        assert new_brackets((g1, g2), (g1, g2), {ray_key(g1), ray_key(g2)}) == {}
        rays = {ray_key(g2)}
        fresh = new_brackets((g1, g2), (g1, g2), rays)
        assert [x.label for x in fresh.values()] == ["[g1,g2]"]
        assert list(fresh) == [ray_key(g1)]

    def test_zero_brackets_skipped(self):
        """Vanishing brackets are not kept and add no ray."""
        g1 = vf(("1", "0"), "g1", self.V2)
        g2 = vf(("0", "1"), "g2", self.V2)
        rays = set()
        assert new_brackets((g1, g2), (g1, g2), rays) == {}
        assert rays == set()

    def test_rays_updated(self):
        """The kept brackets' rays are added to the set passed in, and are
        the keys of the result."""
        g1 = vf(("x2", "0"), "g1", self.V2)
        g2 = vf(("0", "x1^2"), "g2", self.V2)
        before = {ray_key(g1), ray_key(g2)}
        rays = set(before)
        fresh = new_brackets((g1, g2), (g1, g2), rays)
        assert list(fresh) == [ray_key(v) for v in fresh.values()]
        assert rays == before | set(fresh)
        assert new_brackets((g1, g2), (g1, g2), rays) == {}


def _ray_key_reference(field):
    """Key by the field scaled so its first nonzero component is monic, as
    brackets were once keyed."""
    for comp in field.components:
        if not comp.is_zero():
            inv = 1 / comp.lt()[0]
            return tuple(frozenset((c * inv).coeffs.items()) for c in field.components)


def random_rational_field(rng, vars, label):
    """A nonzero field with non-integral coefficients of both signs, and
    zero components at times."""
    while True:
        comps = []
        for _ in range(len(vars)):
            acc = Polynomial.zero(vars)
            for _ in range(rng.randint(0, 3)):
                mono = tuple(rng.randint(0, 2) for _ in vars)
                c = Q(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 9))
                acc = acc + Polynomial.from_terms(vars, [(c, mono)])
            comps.append(acc)
        field = VectorField(comps, label)
        if not field.is_zero():
            return field


def scaled(field, c):
    return VectorField([comp * c for comp in field.components], field.label)


class TestRayKey:
    def test_scaling_invariant(self):
        """Every nonzero rational multiple of a field has the field's key."""
        rng = random.Random(73)
        for _ in range(200):
            v = random_rational_field(rng, V3, "v")
            c = Q(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))
            assert ray_key(scaled(v, c)) == ray_key(v)

    def test_matches_reference(self):
        """Two fields share a key exactly when they share the reference key,
        over a pool of random fields, their multiples, and near misses that
        keep the support and change one coefficient."""
        rng = random.Random(79)
        pool = []
        for _ in range(40):
            v = random_rational_field(rng, V3, "v")
            pool.append(v)
            pool.append(scaled(v, Q(-2, 3)))
            comps = list(v.components)
            i = next(k for k, comp in enumerate(comps) if comp)
            mono = max(comps[i].coeffs)
            comps[i] = comps[i] + Polynomial.from_terms(V3, [(Q(1, 7), mono)])
            pool.append(VectorField(comps, "near"))
        keys = [ray_key(v) for v in pool]
        refs = [_ray_key_reference(v) for v in pool]
        same = 0
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                assert (keys[a] == keys[b]) == (refs[a] == refs[b])
                same += refs[a] == refs[b]
        assert 40 <= same < len(pool) * (len(pool) - 1) // 2

    def test_sign_and_support(self):
        """Opposite fields share a key; fields that differ only in which
        component holds a term do not."""
        v = vf(("x1/2", "-x2/3", "0"), "v")
        assert ray_key(v) == ray_key(vf(("-3*x1", "2*x2", "0"), "w"))
        assert ray_key(vf(("x1", "0", "0"), "a")) != ray_key(vf(("0", "x1", "0"), "b"))
