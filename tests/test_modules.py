"""Polynomial submodules and the ascending bracket-module chain."""

import random

from polyaccess import (
    Polynomial,
    PolySubmodule,
    SystemSpec,
    VarTable,
    VectorField,
    lie_bracket,
    parse_polynomial,
    stabilize_chain,
)
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
        so generic_rank may read the column rank off it."""
        systems = [self.planar()]
        for seed in (0, 2, 5, 6, 8):  # up to ten columns, each under 0.3 s
            rng = random.Random(seed)
            systems.append(SystemSpec(V2, random_field(rng, V2, "f"),
                                      [random_field(rng, V2, "g")]))
        for sys_ in systems:
            for mode in ("accessibility", "strong"):
                chain = stabilize_chain(sys_, mode=mode)
                span = PolySubmodule(V2, 2, chain.columns)
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
