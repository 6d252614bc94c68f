"""Acceptance gate: one end-to-end check per shipped guarantee, each pinning
exact symbolic output, certified emptiness grades, bound dominance, algebraic
identities, numeric cross-validation, and runtime ceilings."""

import random
import time
from pathlib import Path

from polyaccess import (
    Ideal,
    Polynomial,
    SystemSpec,
    Unsupported,
    VarTable,
    VectorField,
    build_matrix,
    closure_singular_analysis,
    exact_index_analysis,
    ideal_sum,
    in_radical,
    invariant_closure,
    is_invariant,
    lie_bracket,
    lie_derivative,
    minor_ideal,
    parse_file,
    parse_polynomial,
    pull_back_singular,
    radical_monomial,
    rank_l_analysis,
    real_radical_restricted,
    sample_check,
    stabilize_chain,
    vanishing_coordinates,
    verify_immersion,
)
from polyaccess.analysis import AnalysisSession
from polyaccess.cli import main as cli_main
from polyaccess.rationals import Q

SYSTEMS = Path(__file__).resolve().parents[1] / "demos" / "systems"


def load(name):
    return parse_file((SYSTEMS / f"{name}.sys").read_text(), name)


def ideal_of(vars, *texts):
    return Ideal(vars, tuple(parse_polynomial(t, vars) for t in texts))


def random_poly(rng, vars, max_deg, terms):
    acc = Polynomial.zero(vars)
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        acc = acc + Polynomial.from_terms(vars, [(Q(rng.randint(-3, 3)), tuple(mono))])
    return acc


def random_field(rng, vars, label, max_deg=3):
    return VectorField([random_poly(rng, vars, max_deg, 2) for _ in vars.names], label)


def random_system(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 2, 3))
    vars = VarTable(tuple(f"x{i + 1}" for i in range(n)))
    m = rng.choice((1, 2))
    if rng.random() < 0.5:
        drift = VectorField([Polynomial.zero(vars)] * n, "f")
    else:
        drift = VectorField([random_poly(rng, vars, 2, 2) for _ in range(n)], "f")
    inputs = [VectorField([random_poly(rng, vars, rng.randint(1, 3), 2)
                           for _ in range(n)], f"g{j + 1}") for j in range(m)]
    return SystemSpec(vars, drift, inputs, name=f"rnd{seed}")


def scaled(p, field):
    return VectorField([p * c for c in field.components], field.label)


def added(a, b):
    return VectorField([x + y for x, y in zip(a.components, b.components)], a.label)


def same_field(a, b):
    return all((x - y).is_zero() for x, y in zip(a.components, b.components))


def test_criterion_01_planar_exact_index():
    """Planar two-input system: exact index 2, singular set exactly the origin."""
    start = time.monotonic()
    report = exact_index_analysis(load("planar").system)
    elapsed = time.monotonic() - start
    assert report.index_kind == "exact r*"
    assert report.index_value == 2
    assert sorted(str(g) for g in report.singular_generators()) == ["x1", "x2"]
    assert elapsed < 1.0


def test_criterion_02_planar_intermediate_ideals():
    """Planar minor ideals and their restricted real radicals, depth by depth."""
    system = load("planar").system
    V = system.vars
    expected = (
        (ideal_of(V, "x1^2*x2"), ideal_of(V, "x1*x2")),
        (ideal_of(V, "x1^2*x2", "x1*x2^2", "x1^4"), ideal_of(V, "x1")),
        (None, ideal_of(V, "x1", "x2")),
    )
    session = AnalysisSession(system)
    for depth, (minor_expected, radical_expected) in enumerate(expected):
        I = session.minors("accessibility", depth, 2)
        if minor_expected is not None:
            assert I.equals(minor_expected)
        rr = real_radical_restricted(I)
        assert not isinstance(rr, Unsupported)
        assert rr.equals(radical_expected)


def test_criterion_03_planar_invariant_closure():
    """Planar depth-0 seed closes in exactly two rounds to an invariant ideal."""
    system = load("planar").system
    V = system.vars
    seed = AnalysisSession(system).minors("accessibility", 0, 2)
    result = invariant_closure(seed, system.operators())
    assert len(result.rounds) == 2
    assert result.ideal.equals(ideal_of(V, "x1^2*x2", "x1*x2^2", "x1^4", "x2^3"))
    assert is_invariant(result.ideal, system.operators()).invariant


def test_criterion_04_circle_closure_variety():
    """Closure singular set of the 3-state system is the cylinder x2^2+x3^2=1."""
    start = time.monotonic()
    system = load("circle3d").system
    report = closure_singular_analysis(system)
    c = parse_polynomial("x2^2 + x3^2 - 1", system.vars)
    rr = real_radical_restricted(report.singular_ideal)
    if not isinstance(rr, Unsupported):
        assert rr.equals(Ideal(system.vars, (c,)))
    else:
        # mutual containment: V(closure) inside V(c) by radical membership,
        # and every closure generator vanishing on 225 rational points of
        # the cylinder x2 = (1-t^2)/(1+t^2), x3 = 2t/(1+t^2), x1 free
        assert in_radical(c, report.singular_ideal)
        gens = report.singular_generators()
        points = 0
        for s in range(-7, 8):
            for tn in range(-7, 8):
                t = Q(tn, 4)
                den = 1 + t * t
                pt = [Q(s), (1 - t * t) / den, 2 * t / den]
                points += 1
                assert all(g.evaluate(pt) == 0 for g in gens)
        assert points >= 200
    assert time.monotonic() - start < 10.0


def test_criterion_05_unicycle_lift(capsys):
    """Unicycle lift verifies; rank-3 locus z4^2+z5^2 never meets the image."""
    start = time.monotonic()
    parsed = load("unicycle")
    imm = parsed.immersed
    assert verify_immersion(parsed.analytic, imm).ok
    chain = stabilize_chain(imm.system)
    assert chain.r_hat == 1
    report = rank_l_analysis(imm.system, 3)
    assert report.singular_ideal.equals(ideal_of(imm.system.vars, "z4^2 + z5^2"))
    pulled = pull_back_singular(imm, report.singular_ideal)
    assert pulled.empty
    assert pulled.grade == "algebraic proof"
    assert time.monotonic() - start < 5.0
    assert cli_main(["rank", str(SYSTEMS / "unicycle.sys")]) == 0
    out = capsys.readouterr().out
    assert "empty intersection with im T; accessible everywhere" in out


def test_criterion_06_pendulum_rank_locus():
    """Pendulum chain stabilizes by depth 6; rank-4 locus pulls back to
    vanishing angular velocity and sine."""
    start = time.monotonic()
    parsed = load("pendulum")
    imm = parsed.immersed
    system = imm.system
    V = system.vars
    chain = stabilize_chain(system)
    assert chain.r_hat <= 6
    assert chain.r_hat == 5
    assert len(chain.rounds) == chain.r_hat + 1
    # explicit fixed point: bracketing any stabilized column with any
    # generating field stays inside the module, so no later depth grows
    for X in system.operators():
        for column in chain.columns:
            assert chain.module.member(lie_bracket(X, column))
    I4 = minor_ideal(build_matrix(chain.columns), 4)
    # pinned counts: an enumeration that drops or repeats minors fails here
    # even when the radical below still matches
    assert len(I4.gens) == 360
    assert len(I4.groebner_basis()) == 23
    rr = real_radical_restricted(I4)
    assert not isinstance(rr, Unsupported)
    assert rr.equals(radical_monomial(ideal_of(V, "z4*z6*z7", "z5*z7")))
    pulled = pull_back_singular(imm, I4)
    assert not pulled.empty
    names = vanishing_coordinates(pulled.ideal)
    assert "z4" in names and "z5" in names
    hull = ideal_sum(ideal_of(V, "z4", "z5"), imm.map.relation_ideal())
    assert all(hull.member(g) for g in pulled.ideal.groebner_basis())
    assert time.monotonic() - start < 15.0


def test_criterion_07_bound_dominates_exact_index():
    """Module-chain bound r-hat >= exact r* on the planar system and at least
    twenty fixed-seed random systems where the exact search completes."""
    start = time.monotonic()
    planar = load("planar").system
    exact = exact_index_analysis(planar)
    assert stabilize_chain(planar).r_hat >= exact.index_value
    completed = 0
    for seed in range(400):
        system = random_system(seed)
        report = exact_index_analysis(system, auto_route=False)
        if report.index_kind != "exact r*":
            continue
        assert stabilize_chain(system).r_hat >= report.index_value
        completed += 1
    elapsed = time.monotonic() - start
    assert completed >= 20
    assert elapsed < 10.0


def test_criterion_08_planar_depth_bound():
    """Exact index 2 sits far below the degree-2 planar depth bound of 22."""
    report = exact_index_analysis(load("planar").system)
    assert report.planar_depth_bound == 22
    assert report.index_value <= report.planar_depth_bound


def test_criterion_09_bracket_identities():
    """Antisymmetry, bilinearity, the Leibniz exchange rule, and the Jacobi
    identity hold exactly on a hundred random field triples."""
    triples = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        vars = VarTable(tuple(f"x{i + 1}" for i in range(n)))
        f = random_field(rng, vars, "f")
        g = random_field(rng, vars, "g")
        h = random_field(rng, vars, "h")
        p1 = random_poly(rng, vars, 3, 2)
        p2 = random_poly(rng, vars, 3, 2)
        r = Polynomial.from_terms(
            vars, [(Q(rng.randint(-5, 5), rng.randint(1, 4)), (0,) * n)])
        fg = lie_bracket(f, g)
        assert all((a + b).is_zero()
                   for a, b in zip(fg.components, lie_bracket(g, f).components))
        assert same_field(lie_bracket(added(scaled(r, f), h), g),
                          added(scaled(r, fg), lie_bracket(h, g)))
        left = lie_bracket(scaled(p1, f), scaled(p2, g))
        right = VectorField(
            [p1 * p2 * fg.components[j]
             + lie_derivative(f, p2) * p1 * g.components[j]
             - lie_derivative(g, p1) * p2 * f.components[j]
             for j in range(n)], "rhs")
        assert same_field(left, right)
        jacobi = [lie_bracket(f, lie_bracket(g, h)).components[j]
                  + lie_bracket(g, lie_bracket(h, f)).components[j]
                  + lie_bracket(h, fg).components[j]
                  for j in range(n)]
        assert all(c.is_zero() for c in jacobi)
        triples += 1
    assert triples >= 100


def test_criterion_10_sampled_rank_consistency():
    """On every regression system the evaluated bracket matrix drops rank
    exactly where the singular generators vanish, with on-variety probes."""
    session = AnalysisSession(load("planar").system)
    planar = session.index("accessibility")
    diag = sample_check(planar, session.matrix("accessibility", planar.index_value),
                        trials=50, seed=2, extra_points=((0, 0),))
    assert diag.checked >= 50 and diag.mismatches == ()
    assert diag.on_variety >= 1

    session = AnalysisSession(load("circle3d").system)
    circle = session.closure("accessibility")
    on_cylinder = []
    for s, tn in ((0, 0), (3, 1), (-2, 2), (5, -3)):
        t = Q(tn, 2)
        den = 1 + t * t
        on_cylinder.append((Q(s), (1 - t * t) / den, 2 * t / den))
    diag = sample_check(circle, session.limit_matrix("accessibility"),
                        trials=50, seed=3, extra_points=on_cylinder)
    assert diag.checked >= 50 and diag.mismatches == ()
    assert diag.on_variety >= len(on_cylinder)

    session = AnalysisSession(load("unicycle").immersed.system)
    unicycle = session.rank_l("accessibility", 3)
    diag = sample_check(unicycle, session.limit_matrix("accessibility"), trials=50, seed=4,
                        extra_points=((1, 2, 3, 0, 0), (-2, 5, 0, 0, 0)))
    assert diag.checked >= 50 and diag.mismatches == ()
    assert diag.on_variety >= 2

    session = AnalysisSession(load("pendulum").immersed.system)
    pendulum = session.rank_l("accessibility", 4)
    probes = ((0, 0, 0, 0, 0, 1, Q(1, 2)), (1, -2, 3, 0, 0, 4, 5),
              (1, 1, 1, 2, 3, 4, 0), (0, 1, 0, 5, 0, 0, 7))
    diag = sample_check(pendulum, session.limit_matrix("accessibility"),
                        trials=50, seed=5, extra_points=probes)
    assert diag.checked >= 50 and diag.mismatches == ()
    assert diag.on_variety >= len(probes)
