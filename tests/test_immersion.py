"""Polynomial lifts of systems with sines, cosines, and reciprocals."""

import pytest

from polyaccess import (
    AnalyticSystem,
    ClosureError,
    Entry,
    Ideal,
    ImmersedSystem,
    ImmersionMap,
    Polynomial,
    SystemSpec,
    VarTable,
    VectorField,
    build_matrix,
    derive_immersed,
    lie_bracket,
    lie_derivative,
    minor_ideal,
    parse_polynomial,
    pull_back_singular,
    rank_l_analysis,
    real_radical_restricted,
    stabilize_chain,
    vanishing_coordinates,
    verify_immersion,
)
from polyaccess.immersion import jacobian, pushforward
from polyaccess.rationals import Q


def p(text, vars):
    return parse_polynomial(text, vars)


def angle_map(source_names, target_names, angle):
    """Map appending sin/cos of one source coordinate."""
    src = VarTable(source_names)
    tgt = VarTable(target_names)
    n = len(src)
    entries = [Entry("coordinate", j) for j in range(n)]
    entries.append(Entry("sin", src.index(angle)))
    entries.append(Entry("cos", src.index(angle)))
    return src, tgt, ImmersionMap(src, tgt, entries)


def intro_system():
    """x1' = u sin(x2), x2' = x1 lifted through (x1, x2, sin x2, cos x2)."""
    src, tgt, imap = angle_map(("x1", "x2"), ("z1", "z2", "z3", "z4"), "x2")
    drift = VectorField([p("0", tgt), p("z1", tgt)], "f")
    g = VectorField([p("z3", tgt), p("0", tgt)], "g")
    return AnalyticSystem(imap, drift, [g])


def unicycle_system():
    src, tgt, imap = angle_map(("x1", "x2", "x3"),
                               ("z1", "z2", "z3", "z4", "z5"), "x3")
    zero = Polynomial.zero(tgt)
    drift = VectorField([zero] * 3, "f")
    g1 = VectorField([p("z5", tgt), p("z4", tgt), zero], "g1")
    g2 = VectorField([zero, zero, p("1", tgt)], "g2")
    return AnalyticSystem(imap, drift, [g1, g2])


def pendulum_system():
    src = VarTable(("x1", "x2", "x3", "x4"))
    tgt = VarTable(("z1", "z2", "z3", "z4", "z5", "z6", "z7"))
    entries = [Entry("coordinate", j) for j in range(4)]
    entries.append(Entry("sin", 2))
    entries.append(Entry("cos", 2))
    entries.append(Entry("reciprocal", expr=p("2 - z5^2", tgt)))
    imap = ImmersionMap(src, tgt, entries)
    drift = VectorField(
        [p("z2", tgt), p("z4^2*z6*z7 - 10", tgt), p("z4", tgt),
         p("z4^2*z5*z6*z7", tgt)], "f")
    g = VectorField([p("0", tgt), p("z7", tgt), p("0", tgt), p("z5*z7", tgt)], "g")
    return AnalyticSystem(imap, drift, [g])


class TestImmersionMap:
    def test_identity_prefix_required(self):
        """The first n targets must copy the source coordinates."""
        src = VarTable(("x1",))
        tgt = VarTable(("z1", "z2"))
        with pytest.raises(ValueError, match="source coordinate"):
            ImmersionMap(src, tgt, [Entry("sin", 0), Entry("cos", 0)])

    def test_duplicate_atom_rejected(self):
        """Two sin entries for the same angle are redundant and rejected."""
        src = VarTable(("x1",))
        tgt = VarTable(("z1", "z2", "z3"))
        with pytest.raises(ValueError):
            ImmersionMap(src, tgt, [Entry("coordinate", 0),
                                    Entry("sin", 0), Entry("sin", 0)])

    def test_reciprocal_needs_earlier_support(self):
        """A reciprocal may only reference strictly earlier targets."""
        src = VarTable(("x1",))
        tgt = VarTable(("z1", "z2"))
        bad = p("2 - z2^2", tgt)
        with pytest.raises(ValueError):
            ImmersionMap(src, tgt, [Entry("coordinate", 0),
                                    Entry("reciprocal", expr=bad)])

    def test_relation_generators(self):
        """One circle relation per paired angle, one per reciprocal."""
        asys = pendulum_system()
        rels = [str(r) for r in asys.map.relation_generators()]
        assert rels == ["z5^2 + z6^2 - 1", "-z5^2*z7 + 2*z7 - 1"]

    def test_algebra_built_once_per_map(self):
        """The relations, their ideal (so its basis) and the Jacobian rows
        are built once per map and shared by every caller."""
        m = pendulum_system().map
        assert m.relation_generators() is m.relation_generators()
        assert m.relation_ideal() is m.relation_ideal()
        assert jacobian(m) is jacobian(m)


class TestDerive:
    def test_intro_lift(self):
        """Chain rule pushes the drift through sin/cos atoms."""
        imm = derive_immersed(intro_system())
        assert [str(c) for c in imm.system.drift.components] == \
            ["0", "z1", "z1*z4", "-z1*z3"]
        assert [str(c) for c in imm.system.inputs[0].components] == \
            ["z3", "0", "0", "0"]

    def test_unicycle_lift(self):
        """The unicycle lift matches the known polynomial system."""
        imm = derive_immersed(unicycle_system())
        assert [str(c) for c in imm.system.inputs[0].components] == \
            ["z5", "z4", "0", "0", "0"]
        assert [str(c) for c in imm.system.inputs[1].components] == \
            ["0", "0", "1", "z5", "-z4"]

    def test_pendulum_lift(self):
        """Sin, cos, and reciprocal atoms all propagate."""
        imm = derive_immersed(pendulum_system())
        assert [str(c) for c in imm.system.drift.components] == \
            ["z2", "z4^2*z6*z7 - 10", "z4", "z4^2*z5*z6*z7",
             "z4*z6", "-z4*z5", "2*z4*z5*z6*z7^2"]
        assert [str(c) for c in imm.system.inputs[0].components] == \
            ["0", "z7", "0", "z5*z7", "0", "0", "0"]

    def test_sin_without_cos(self):
        """Deriving sin needs the companion cos entry."""
        src = VarTable(("x1",))
        tgt = VarTable(("z1", "z2"))
        imap = ImmersionMap(src, tgt, [Entry("coordinate", 0), Entry("sin", 0)])
        drift = VectorField([p("z2", tgt)], "f")
        g = VectorField([p("1", tgt)], "g")
        with pytest.raises(ClosureError) as info:
            derive_immersed(AnalyticSystem(imap, drift, [g]))
        assert "cos(x1)" in str(info.value.residue)


class TestVerify:
    def test_derived_lifts_verify(self):
        """All three reference lifts pass tangency and pushforward checks."""
        for make in (intro_system, unicycle_system, pendulum_system):
            asys = make()
            assert verify_immersion(asys, derive_immersed(asys)).ok

    def test_corrupted_lift_detected(self):
        """A sign flip in one component is caught with a residue."""
        asys = intro_system()
        imm = derive_immersed(asys)
        bad_g = VectorField(
            [-imm.system.inputs[0].components[0]]
            + list(imm.system.inputs[0].components[1:]), "g")
        broken = SystemSpec(imm.system.vars, imm.system.drift, [bad_g])
        res = verify_immersion(asys, ImmersedSystem(broken, asys))
        assert not res.ok
        assert res.kind == "pushforward"
        assert str(res.residue) == "2*z3"

    def test_broken_circle_relation_detected(self):
        """A lifted sin component that breaks sin^2 + cos^2 = 1 fails the
        tangency check, on the first relation, with the residue of L_g."""
        asys = pendulum_system()
        imm = derive_immersed(asys)
        tgt = imm.system.vars
        comps = list(imm.system.inputs[0].components)
        comps[4] = p("z6", tgt)  # d(sin x3) along g, although g moves no angle
        broken = SystemSpec(tgt, imm.system.drift, [VectorField(comps, "g")])
        res = verify_immersion(asys, ImmersedSystem(broken, asys))
        assert (res.ok, res.kind, res.index, res.field_label, str(res.residue)) == \
            (False, "tangency", 0, "g", "2*z5*z6")

    def test_bracket_commutation_depth_two(self):
        """Lifting commutes with brackets to depth 2 modulo the relations."""

        def source_bracket(rows, a, b):
            # [a, b] on the source, each component differentiated through
            # the atoms: L_a(b_i) - L_b(a_i), with a and b pushed forward
            lift_a, lift_b = pushforward(rows, a), pushforward(rows, b)
            return VectorField(
                [lie_derivative(lift_a, bi) - lie_derivative(lift_b, ai)
                 for ai, bi in zip(a.components, b.components)],
                f"[{a.label},{b.label}]")

        for make in (intro_system, unicycle_system, pendulum_system):
            asys = make()
            rows = jacobian(asys.map)
            R = asys.map.relation_ideal()
            fields = [asys.drift] + list(asys.inputs)
            fields = [f for f in fields if not f.is_zero()]
            lifted = {f.label: pushforward(rows, f) for f in fields}
            pairs = [(a, b) for a in fields for b in fields if a.label < b.label]
            for a, b in pairs:
                depth1 = source_bracket(rows, a, b)
                check = lie_bracket(lifted[a.label], lifted[b.label])
                want = pushforward(rows, depth1)
                for u, w in zip(check.components, want.components):
                    assert R.normal_form(u - w).is_zero()
                for c in fields:
                    depth2 = source_bracket(rows, c, depth1)
                    check2 = lie_bracket(lifted[c.label], check)
                    want2 = pushforward(rows, depth2)
                    for u, w in zip(check2.components, want2.components):
                        assert R.normal_form(u - w).is_zero()


class TestPullBack:
    def test_unicycle_empty_intersection(self):
        """The rank-3 locus misses the image variety, provably."""
        asys = unicycle_system()
        imm = derive_immersed(asys)
        chain = stabilize_chain(imm.system)
        assert chain.r_hat == 1
        I = minor_ideal(build_matrix(chain.columns), 3)
        assert I.equals(Ideal(imm.system.vars, [p("z4^2 + z5^2", imm.system.vars)]))
        rad = real_radical_restricted(I)
        assert [str(g) for g in rad.groebner_basis()] == ["z4", "z5"]
        pull = pull_back_singular(imm, I)
        assert pull.empty
        assert pull.grade == "algebraic proof"

    def test_pendulum_witness(self):
        """The pendulum singular set meets im T at the upright rest points."""
        asys = pendulum_system()
        imm = derive_immersed(asys)
        report = rank_l_analysis(imm.system, 4)
        pull = pull_back_singular(imm, report.singular_ideal)
        assert not pull.empty
        assert pull.grade == "sampled"
        assert pull.witness == (Q(0), Q(0), Q(0), Q(0), Q(0), Q(1), Q(1, 2))
        vanish = vanishing_coordinates(pull.ideal)
        assert "z4" in vanish and "z5" in vanish

    def test_positive_definite_grade(self):
        """A positively definite generator proves emptiness without sampling."""
        asys = unicycle_system()
        imm = derive_immersed(asys)
        tgt = imm.system.vars
        singular = Ideal(tgt, [p("z1^2 + 1", tgt)])
        pull = pull_back_singular(imm, singular)
        assert pull.empty
        assert pull.grade == "algebraic proof"

    def test_sampled_emptiness(self):
        """Without a proof the verdict downgrades to sampling evidence."""
        asys = intro_system()
        imm = derive_immersed(asys)
        tgt = imm.system.vars
        # z2 - 7 misses every sampled image point but is not refutable
        # by the positivity or unit tests
        singular = Ideal(tgt, [p("z2 - 7", tgt)])
        pull = pull_back_singular(imm, singular)
        assert pull.empty
        assert pull.grade == "sampled"
