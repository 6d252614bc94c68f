"""End-to-end analyses: generic test, exact index, closure, bounds, ranks."""

import pytest

import polyaccess.analysis
import polyaccess.minors
from polyaccess import (
    CapReached,
    Ideal,
    Polynomial,
    SystemSpec,
    VarTable,
    VectorField,
    bound_analysis,
    closure_singular_analysis,
    exact_index_analysis,
    generic_test,
    in_radical,
    minor_ideal,
    parse_polynomial,
    planar_depth_bound,
    rank_l_analysis,
    sample_check,
    strong_analysis,
)
from polyaccess.analysis import AnalysisSession
from polyaccess.vectorfields import new_brackets, ray_key
from polyaccess.rationals import Q
from test_acceptance import load, random_system

V2 = VarTable(("x1", "x2"))
V3 = VarTable(("x1", "x2", "x3"))


def p(text, vars=V2):
    return parse_polynomial(text, vars)


def vf(texts, label, vars=V2):
    return VectorField([p(t, vars) for t in texts], label)


def planar():
    zero = VectorField([Polynomial.zero(V2)] * 2, "f")
    return SystemSpec(V2, zero, [vf(("x2", "0"), "g1"), vf(("0", "x1^2"), "g2")])


def circle():
    f = vf(("0", "x2^2 + x3^2 - 1", "0"), "f", V3)
    g = vf(("x2", "x2*x3", "-x2^2"), "g", V3)
    return SystemSpec(V3, f, [g])


def rank_deficient():
    zero = VectorField([Polynomial.zero(V2)] * 2, "f")
    return SystemSpec(V2, zero, [vf(("x1", "0"), "g")])


def all_zero():
    zero = VectorField([Polynomial.zero(V2)] * 2, "f")
    return SystemSpec(V2, zero, [VectorField(zero.components, "g")])


class TestGenericTest:
    def test_planar_full_at_depth_zero(self):
        """Two independent inputs already span the plane generically."""
        res = generic_test(planar())
        assert res.rank == 2
        assert res.k_star == 0
        assert res.verdict == "generically accessible"

    def test_circle_needs_one_bracket(self):
        """The 3-state example reaches full rank at depth 1."""
        res = generic_test(circle())
        assert res.rank == 3
        assert res.k_star == 1

    def test_rank_deficient(self):
        """Rank below n means nowhere accessible, k* undefined."""
        res = generic_test(rank_deficient())
        assert res.rank == 1
        assert res.k_star is None
        assert res.verdict == "nowhere accessible"

    def test_all_zero_fields(self):
        """An empty bracket family has generic rank 0 at every depth."""
        res = generic_test(all_zero())
        assert res.rank == 0
        assert res.verdict == "nowhere accessible"
        assert [(r.family_size, r.generic_rank) for r in res.records] == [(0, 0), (0, 0)]

    def test_stable_depths_reuse_the_rank(self, monkeypatch):
        """Past a depth that retains no column the matrix is the one before,
        so its rank is reused, not sampled again: the unicycle lift samples
        depths 0 and 1 only, and every depth still reports its family size."""
        calls = 0
        original = polyaccess.analysis.generic_rank

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(polyaccess.analysis, "generic_rank", counted)
        res = AnalysisSession(load("unicycle").system).generic("accessibility")
        assert [(r.depth, r.family_size, r.generic_rank) for r in res.records] == [
            (0, 2, 2), (1, 3, 3), (2, 3, 3), (3, 3, 3), (4, 3, 3)]
        assert calls == 2


class TestExactIndex:
    def test_planar(self):
        """Exact index 2 with the origin as the only singular point."""
        report = exact_index_analysis(planar())
        assert report.index_kind == "exact r*"
        assert report.index_value == 2
        assert report.route == "exact-index"
        assert report.verdict == "generically accessible"
        assert [str(g) for g in report.singular_generators()] == ["x1", "x2"]
        assert report.planar_depth_bound == 22

    def test_planar_trace_witnesses(self):
        """Non-invariance witnesses appear at depths 0 and 1."""
        report = exact_index_analysis(planar())
        witnesses = [r.invariance_witness for r in report.chain_trace
                     if r.invariance_witness]
        assert any("residue x2^2" in w for w in witnesses)
        assert any("residue x2" in w for w in witnesses)

    def test_nowhere(self):
        """Rank-deficient systems short-circuit to the whole space."""
        report = exact_index_analysis(rank_deficient())
        assert report.verdict == "nowhere accessible"
        assert report.index_kind == "undecided"
        assert report.singular_generators() == ()

    def test_auto_route_to_closure(self):
        """An unsupported radical reroutes to the invariant closure."""
        report = exact_index_analysis(circle())
        assert report.route == "invariant-closure"
        assert report.index_kind == "undecided"
        assert any("real radical unsupported" in n for n in report.notes)
        assert any("invariant closure" in n for n in report.notes)
        c = p("x2^2 + x3^2 - 1", V3)
        assert in_radical(c, report.singular_ideal)

    def test_auto_route_lists_each_record_once(self):
        """The closure route adds its rounds after the unsupported radical,
        not a second copy of the generic test or of the minors at k*."""
        trace = exact_index_analysis(circle()).chain_trace
        assert all(a != b for i, a in enumerate(trace) for b in trace[i + 1:])
        assert [r.generic_rank for r in trace[:2]] == [2, 3]
        assert all(r.generic_rank is None for r in trace[2:])
        minors = trace[2].minor_generators
        assert trace[2].radical_status != "supported"
        assert [r.minor_generators for r in trace].count(minors) == 1
        assert [r.invariance_witness for r in trace[3:]] == ["closure round 1", "closure round 2"]

    def test_no_auto_route(self):
        """With rerouting off the report stays undecided with no singular set."""
        report = exact_index_analysis(circle(), auto_route=False)
        assert report.route == "exact-index"
        assert report.index_kind == "undecided"
        assert report.singular_ideal is None

    def test_all_zero_fields(self):
        """Zero drift and inputs: nowhere accessible, not a matrix error."""
        report = exact_index_analysis(all_zero())
        assert report.verdict == "nowhere accessible"
        assert report.generic_rank == 0
        assert report.singular_generators() == ()

    def test_cap(self):
        """A too-small depth cap raises instead of guessing."""
        with pytest.raises(CapReached):
            exact_index_analysis(planar(), max_depth=1)


class TestClosure:
    def test_circle_singular_set(self):
        """The closure cuts out exactly the circle cylinder."""
        report = closure_singular_analysis(circle())
        assert report.route == "invariant-closure"
        c = p("x2^2 + x3^2 - 1", V3)
        assert in_radical(c, report.singular_ideal)
        # converse: every generator vanishes on V(c), where the variety
        # admits the rational parametrization x2 = (1-t^2)/(1+t^2),
        # x3 = 2t/(1+t^2)
        for t_num, t_den in ((0, 1), (1, 2), (2, 3), (-1, 3), (5, 1)):
            t = Q(t_num, t_den)
            den = 1 + t * t
            pt = [Q(7), (1 - t * t) / den, 2 * t / den]
            for g in report.singular_generators():
                assert g.evaluate(pt) == 0

    def test_planar_two_rounds(self):
        """The planar depth-0 seed closes in two enlargement rounds."""
        seed_note = closure_singular_analysis(planar()).notes
        assert any("2 enlargement rounds" in n for n in seed_note)

    def test_reads_no_stable_chain(self, monkeypatch):
        """The closure, and the index search when it routes to the closure,
        never run the module chain to r-hat: with chain raising, each gives
        the report it gives without.  rnd95's chain does not stabilize
        within seconds; its closure takes well under one."""
        circle3d = load("circle3d").system
        cases = [(closure_singular_analysis, circle3d),
                 (closure_singular_analysis, random_system(5)),
                 (exact_index_analysis, circle3d),
                 (exact_index_analysis, random_system(95))]
        expected = [analyse(system) for analyse, system in cases]

        def refuse(self, mode):
            raise AssertionError("the closure route read the stable chain")

        monkeypatch.setattr(AnalysisSession, "chain", refuse)
        for (analyse, system), before in zip(cases, expected):
            after = analyse(system)
            assert after.route == "invariant-closure"
            assert after._replace(singular_ideal=None) == before._replace(singular_ideal=None)
            assert after.singular_generators() == before.singular_generators()


    def test_improper_minor_ideal(self):
        """Constant inputs e1 and e2 have the unit 2x2 minor: no real point
        drops rank, and the closure is the unit ideal."""
        zero = VectorField([Polynomial.zero(V2)] * 2, "f")
        system = SystemSpec(V2, zero, [vf(("1", "0"), "g1"), vf(("0", "1"), "g2")])
        report = closure_singular_analysis(system)
        assert [str(g) for g in report.singular_generators()] == ["1"]
        assert report.notes == (
            "minor ideal improper: no real point drops rank; empty singular set",)


class TestBound:
    def test_planar(self):
        """Module chain bound r-hat = 2 matching the exact index."""
        report = bound_analysis(planar())
        assert report.index_kind == "upper bound r-hat"
        assert report.index_value == 2
        assert report.route == "module-bound"
        gb = [str(g) for g in report.singular_generators()]
        assert gb == ["x1^4", "x1^2*x2", "x1*x2^2", "x2^3"]

    def test_trace_labels(self):
        """Retained columns are recorded per depth."""
        report = bound_analysis(planar())
        labels = [rec.retained_labels for rec in report.chain_trace]
        assert labels[0] == ("g1", "g2")
        assert labels[1] == ("[g1,g2]",)

    def test_nowhere(self):
        """Deficient generic rank yields the zero ideal (all points)."""
        report = bound_analysis(rank_deficient())
        assert report.verdict == "nowhere accessible"
        assert report.singular_generators() == ()

    def test_all_zero_fields(self):
        """Zero drift and inputs span the zero module, stable at depth 0:
        nowhere accessible, not a chain error."""
        report = bound_analysis(all_zero())
        assert report.verdict == "nowhere accessible"
        assert report.generic_rank == 0
        assert report.singular_generators() == ()
        assert (report.index_kind, report.index_value) == ("upper bound r-hat", 0)
        assert [rec.module_gb_size for rec in report.chain_trace] == [0]

    def test_generator_on_an_earlier_ray(self):
        """A generator on an earlier generator's ray is not a column: the
        depth-0 columns are f, g1, g3, and with g2 put back after g1 every
        depth's minor ideals are the same."""
        sys_ = proportional_inputs()
        report = bound_analysis(sys_)
        assert report.chain_trace[0].retained_labels == ("f", "g1", "g3")
        session = AnalysisSession(sys_)
        chain = session.chain("accessibility")
        g2 = sys_.inputs[1]
        for depth in range(chain.r_hat + 1):
            cols = chain.columns_at(depth)
            with_g2 = cols[:2] + (g2,) + cols[2:]
            for size in (1, 2):
                assert minor_ideal(with_g2, size).equals(
                    session.minors("accessibility", depth, size))


class TestStrong:
    def test_planar_strong(self):
        """Driftless: strong and plain analyses coincide at l* = 2."""
        report = strong_analysis(planar())
        assert report.mode == "strong"
        assert report.index_kind == "exact l*"
        assert report.index_value == 2
        assert [str(g) for g in report.singular_generators()] == ["x1", "x2"]
        assert any("expected in {2, 3}" in n for n in report.notes)

    def test_strong_nowhere(self):
        """Strong rank deficiency reports nowhere strongly accessible."""
        report = strong_analysis(rank_deficient())
        assert report.verdict == "nowhere accessible"


class TestSession:
    def test_shared_session_matches_fresh_ones(self):
        """Routes run in one session report what each public function does
        in its own, in whatever order they run."""
        session = AnalysisSession(circle())
        shared = [session.strong(), session.bound("accessibility"),
                  session.index("accessibility"), session.closure("accessibility"),
                  session.rank_l("accessibility", 2)]
        fresh = [strong_analysis(circle()), bound_analysis(circle()),
                 exact_index_analysis(circle()), closure_singular_analysis(circle()),
                 rank_l_analysis(circle(), 2)]
        for a, b in zip(shared, fresh):
            assert a._replace(singular_ideal=None) == b._replace(singular_ideal=None)
            assert a.singular_generators() == b.singular_generators()


def proportional_inputs():
    f = vf(("x2^2", "x1"), "f")
    g1 = vf(("x1/2", "-x2/3"), "g1")
    g2 = VectorField([c * Q(-2, 3) for c in g1.components], "g2")  # on g1's ray
    return SystemSpec(V2, f, [g1, g2, vf(("x1*x2", "1/5"), "g3")])


def zero_input():
    zero = VectorField([Polynomial.zero(V3)] * 3, "g0")
    f = vf(("x2", "x3^2/2", "-x1"), "f", V3)
    return SystemSpec(V3, f, [zero, vf(("1", "x1", "0"), "g1", V3),
                              vf(("-2", "-2*x1", "0"), "g2", V3)])


def zero_drift():
    zero = VectorField([Polynomial.zero(V3)] * 3, "f")
    return SystemSpec(V3, zero, [vf(("x2", "0", "x1/3"), "g1", V3),
                                 vf(("0", "x3", "-x2"), "g2", V3)])


def extend_family(system, mode, generations, rays):
    """The reference family one generation deeper, grown from scratch:
    generation 0 is the nonzero generators, first of each ray, and each
    later one is new_brackets of the one before."""
    if generations:
        fresh = new_brackets(system.operators(), generations[-1], rays)
    else:
        fresh = {}
        for g in system.generators(mode):
            if not g.is_zero():
                fresh.setdefault(ray_key(g), g)
        rays.update(fresh)
    return generations + [list(fresh.values())]


class TestFamily:
    @pytest.mark.parametrize("system", [planar, circle, proportional_inputs, zero_input,
                                        zero_drift, rank_deficient, all_zero])
    @pytest.mark.parametrize("mode", ["accessibility", "strong"])
    def test_matches_extend_family(self, system, mode):
        """The session's family, with generations 0 and 1 taken from the
        chain, has the labels and components of the reference family grown
        by extend_family, at every depth, asked shallow first or deep first."""
        sys_ = system()
        expected, rays = [], set()
        for _ in range(4):
            expected = extend_family(sys_, mode, expected, rays)
        session = AnalysisSession(sys_)
        got = [session.family(mode, depth) for depth in range(4)]
        got.append(AnalysisSession(sys_).family(mode, 3))  # asked deep first
        for gens, depth in zip(got, (0, 1, 2, 3, 3), strict=True):
            ref = expected[: depth + 1]
            assert [[v.label for v in g] for g in gens] == [[v.label for v in g] for g in ref]
            assert gens == ref


class TestRankThreshold:
    def test_validates_threshold(self):
        """Thresholds outside 1..n are rejected."""
        with pytest.raises(ValueError):
            rank_l_analysis(planar(), 0)
        with pytest.raises(ValueError):
            rank_l_analysis(planar(), 3)

    def test_planar_rank_one(self):
        """The rank-1 locus of the planar system is both axes' intersection."""
        session = AnalysisSession(planar())
        report = session.rank_l("accessibility", 1)
        assert report.threshold == 1
        assert report.route == "rank-threshold"
        diag = sample_check(report, session.limit_matrix("accessibility"), trials=40, seed=3,
                            extra_points=((Q(0), Q(0)), (Q(0), Q(5))))
        assert diag.mismatches == ()

    def test_all_zero_fields(self):
        """Every point of an all-zero system has rank 0, below every threshold."""
        for l in (1, 2):
            report = rank_l_analysis(all_zero(), l)
            assert report.verdict == "nowhere accessible"
            assert report.generic_rank == 0
            assert report.threshold == l
            assert report.singular_generators() == ()
            assert [(rec.depth, rec.retained_labels) for rec in report.chain_trace] == [(0, ())]

    def test_planar_rank_full(self):
        """Threshold n reproduces the bound-route singular ideal."""
        full = rank_l_analysis(planar(), 2)
        bound = bound_analysis(planar())
        assert full.singular_ideal.equals(bound.singular_ideal)

    def test_rank_below_threshold_builds_no_minors(self, monkeypatch):
        """Inputs x2*e1 and x1*x2*e1 span rank 1 everywhere, so every 2x2
        minor is zero: the rank-below-2 locus is the whole plane, and no
        minor ideal is built for it."""
        zero = VectorField([Polynomial.zero(V2)] * 2, "f")
        system = SystemSpec(V2, zero, [vf(("x2", "0"), "g1"), vf(("x1*x2", "0"), "g2")])

        def refuse(matrix, size):
            raise AssertionError("rank_l built minors of a rank-deficient matrix")

        monkeypatch.setattr(polyaccess.analysis, "minor_ideal", refuse)
        report = rank_l_analysis(system, 2)
        assert report.generic_rank == 1
        assert report.singular_generators() == ()

    def test_limit_rank_samples_nothing(self, monkeypatch):
        """Once the chain stands, the bound and rank routes read the limit
        rank off its module and evaluate no matrix: with sampling refused,
        the lifted pendulum's rank-4 locus and the circle3d bound give the
        answers of an unpatched session."""
        def refuse(rows):
            raise AssertionError("the limit rank sampled a matrix")

        cases = [(load("pendulum").immersed.system, lambda s: s.rank_l("accessibility", 4), 4),
                 (load("circle3d").system, lambda s: s.bound("accessibility"), 3)]
        for system, route, rank in cases:
            session = AnalysisSession(system)
            session.chain("accessibility")
            with monkeypatch.context() as m:
                m.setattr(polyaccess.minors, "rational_rank", refuse)
                report = route(session)
            expected = route(AnalysisSession(system))
            assert report.generic_rank == rank
            assert report._replace(singular_ideal=None) == expected._replace(singular_ideal=None)
            assert report.singular_generators() == expected.singular_generators()


class TestSampleCheck:
    def test_planar_clean(self):
        """Vanishing generators exactly track rank drops on samples."""
        session = AnalysisSession(planar())
        report = session.index("accessibility")
        diag = sample_check(report, session.matrix("accessibility", report.index_value),
                            trials=60, seed=1,
                            extra_points=((Q(0), Q(0)), (Q(0), Q(7)), (Q(5), Q(0))))
        assert diag.mismatches == ()
        assert diag.checked >= 60
        # only the origin lies on V(x1, x2); the axis points probe consistency
        # off the variety
        assert diag.on_variety >= 1

    def test_requires_matrix(self):
        """A zero chain has no limit matrix, so its report cannot be sampled."""
        session = AnalysisSession(all_zero())
        report = session.bound("accessibility")
        assert session.limit_matrix("accessibility") is None
        with pytest.raises(ValueError):
            sample_check(report, session.limit_matrix("accessibility"))

    def test_requires_singular_ideal(self):
        """An undecided index has no singular ideal, so no generator to test:
        circle3d's index search without the closure cannot be sampled."""
        session = AnalysisSession(load("circle3d").system)
        report = session.index("accessibility", auto_route=False)
        assert report.index_kind == "undecided" and report.singular_ideal is None
        with pytest.raises(ValueError):
            sample_check(report, session.limit_matrix("accessibility"), trials=20)

    def test_nowhere_accessible_samples(self):
        """A nowhere-accessible report carries the zero ideal: every point is
        on its variety and drops rank, so sampling finds no mismatch."""
        zero = VectorField([Polynomial.zero(V2)] * 2, "f")
        system = SystemSpec(V2, zero, [vf(("x2", "0"), "g1"), vf(("x1*x2", "0"), "g2")])
        session = AnalysisSession(system)
        report = session.index("accessibility")
        assert report.verdict == "nowhere accessible"
        diag = sample_check(report, session.limit_matrix("accessibility"), trials=20)
        assert diag == (20, 20, ())


class TestPlanarBound:
    def test_formula(self):
        """Depth bound 6d^2 - 2d + 2 for planar systems."""
        assert planar_depth_bound(2) == 22
        assert planar_depth_bound(1) == 6
        assert planar_depth_bound(3) == 50

    def test_only_planar(self):
        """The bound is attached only to 2-state systems."""
        assert exact_index_analysis(circle()).planar_depth_bound is None
