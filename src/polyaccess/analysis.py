"""End-to-end analyses: generic accessibility pretest, exact index search,
invariant-closure singular sets, module-chain upper bounds, strong
accessibility, and restricted-rank singular loci."""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from .errors import CapReached
from .ideals import (
    Ideal,
    Unsupported,
    invariant_closure,
    is_invariant,
    real_radical_restricted,
)
from .minors import build_matrix, generic_rank, minor_ideal, rational_rank, reduce_columns
from .modules import stabilize_chain
from .rationals import Q
from .vectorfields import BracketFamily, extend_family

VERDICT_GENERIC = "generically accessible"
VERDICT_NOWHERE = "nowhere accessible"

INDEX_EXACT_R = "exact r*"
INDEX_EXACT_L = "exact l*"
INDEX_BOUND_R = "upper bound r-hat"
INDEX_BOUND_L = "upper bound l-hat"
INDEX_UNDECIDED = "undecided"

ROUTE_GENERIC = "generic-test"
ROUTE_EXACT = "exact-index"
ROUTE_CLOSURE = "invariant-closure"
ROUTE_MODULE = "module-bound"
ROUTE_RANK_L = "rank-threshold"


@dataclass
class ChainRecord:
    """One depth of a chain trace; fields are filled by whichever route ran."""

    depth: int
    family_size: int = None
    generic_rank: int = None
    minor_generators: tuple = ()
    radical_status: str = None  # "supported" or the Unsupported reason
    invariance_witness: str = None  # residue description when not invariant
    module_gb_size: int = None
    retained_labels: tuple = ()


@dataclass
class GenericTestResult:
    mode: str
    rank: int
    verdict: str
    depth: int  # depth at which the rank was reached / search stopped
    k_star: int  # first depth of full generic rank; None if never full
    records: tuple


@dataclass
class AnalysisReport:
    mode: str
    route: str
    generic_rank: int
    verdict: str
    singular_ideal: Ideal
    index_kind: str
    index_value: int
    chain_trace: tuple
    threshold: int = None  # minor size for rank-threshold analyses
    planar_depth_bound: int = None  # 6d^2 - 2d + 2 when n = 2
    capped: bool = False
    notes: tuple = ()
    matrix: object = field(default=None, repr=False, compare=False)

    def singular_generators(self):
        if self.singular_ideal is None:
            return ()
        return self.singular_ideal.groebner_basis()


def system_degree(system):
    """Largest total degree among all drift and input components."""
    d = 0
    for f in (system.drift,) + system.inputs:
        for comp in f.components:
            d = max(d, comp.total_degree())
    return d


def planar_depth_bound(degree):
    """Bracket-depth bound sufficient for planar systems of this degree."""
    return 6 * degree * degree - 2 * degree + 2


def _planar_bound_for(system):
    if system.dimension != 2:
        return None
    return planar_depth_bound(max(system_degree(system), 1))


def _family_to_depth(system, mode, depth):
    fam = BracketFamily.initial(system, mode)
    for _ in range(depth):
        fam = extend_family(fam)
    return fam


def _matrix_for(fam, depth=None):
    cols = reduce_columns(fam.members(depth))
    return build_matrix(cols)


def generic_test(system, mode="accessibility", seed=0):
    """Generic rank of the depth-(n-1) bracket family, with early exit the
    moment the rank reaches the state dimension."""
    n = system.dimension
    fam = BracketFamily.initial(system, mode)
    records = []
    rank = 0
    for depth in range(n):
        M = _matrix_for(fam)
        gr = generic_rank(M, seed=seed)
        rank = max(rank, gr.rank)
        records.append(
            ChainRecord(depth=depth, family_size=len(fam.members()), generic_rank=gr.rank)
        )
        if gr.rank == n:
            return GenericTestResult(mode, n, VERDICT_GENERIC, depth, depth, tuple(records))
        if depth < n - 1:
            fam = extend_family(fam)
    return GenericTestResult(mode, rank, VERDICT_NOWHERE, n - 1, None, tuple(records))


def _nowhere_report(system, mode, route, gt):
    # rank below n on a dense open set means rank below n everywhere, so the
    # singular locus is the whole space: the zero ideal cuts it out
    return AnalysisReport(
        mode=mode,
        route=route,
        generic_rank=gt.rank,
        verdict=gt.verdict,
        singular_ideal=Ideal(system.vars, ()),
        index_kind=INDEX_UNDECIDED,
        index_value=None,
        chain_trace=gt.records,
        planar_depth_bound=_planar_bound_for(system),
        notes=("generic rank below the state dimension; every point is singular",),
    )


def exact_index_analysis(system, mode="accessibility", max_depth=None, seed=0,
                         auto_route=True):
    """Smallest depth whose singular set already equals the limit set, found
    by testing the restricted real radical of each minor ideal for
    invariance.  An unsupported radical leaves the index undecided; the
    singular set then comes from the invariant-closure route when
    auto_route is set."""
    n = system.dimension
    if max_depth is None:
        max_depth = max(2 * n, 8)
    gt = generic_test(system, mode, seed)
    if gt.verdict != VERDICT_GENERIC:
        return _nowhere_report(system, mode, ROUTE_EXACT, gt)
    exact_kind = INDEX_EXACT_R if mode == "accessibility" else INDEX_EXACT_L
    ops = system.operators()
    trace = list(gt.records)
    fam = _family_to_depth(system, mode, gt.k_star)
    k = gt.k_star
    while k <= max_depth:
        M = _matrix_for(fam)
        I_k = minor_ideal(M, n)
        rr = real_radical_restricted(I_k)
        if isinstance(rr, Unsupported):
            trace.append(
                ChainRecord(
                    depth=k,
                    family_size=len(fam.members()),
                    minor_generators=I_k.groebner_basis(),
                    radical_status=rr.reason,
                )
            )
            notes = (
                f"real radical unsupported at depth {k}: {rr.reason}",
                "index undecided; singular set computed by invariant closure",
            )
            if not auto_route:
                return AnalysisReport(
                    mode=mode,
                    route=ROUTE_EXACT,
                    generic_rank=n,
                    verdict=VERDICT_GENERIC,
                    singular_ideal=None,
                    index_kind=INDEX_UNDECIDED,
                    index_value=None,
                    chain_trace=tuple(trace),
                    planar_depth_bound=_planar_bound_for(system),
                    notes=notes[:1],
                    matrix=M,
                )
            closure = closure_singular_analysis(system, mode, max_depth, seed)
            return AnalysisReport(
                mode=mode,
                route=ROUTE_CLOSURE,
                generic_rank=n,
                verdict=VERDICT_GENERIC,
                singular_ideal=closure.singular_ideal,
                index_kind=INDEX_UNDECIDED,
                index_value=None,
                chain_trace=tuple(trace) + closure.chain_trace,
                planar_depth_bound=_planar_bound_for(system),
                notes=notes,
                matrix=closure.matrix,
            )
        inv = is_invariant(rr, ops)
        record = ChainRecord(
            depth=k,
            family_size=len(fam.members()),
            minor_generators=I_k.groebner_basis(),
            radical_status="supported",
        )
        if inv.invariant:
            trace.append(record)
            return AnalysisReport(
                mode=mode,
                route=ROUTE_EXACT,
                generic_rank=n,
                verdict=VERDICT_GENERIC,
                singular_ideal=rr,
                index_kind=exact_kind,
                index_value=k,
                chain_trace=tuple(trace),
                planar_depth_bound=_planar_bound_for(system),
                matrix=M,
            )
        record.invariance_witness = (
            f"L along {inv.field_label} of {inv.generator} leaves the ideal "
            f"(residue {inv.residue})"
        )
        trace.append(record)
        fam = extend_family(fam)
        k += 1
    raise CapReached("exact index search", max_depth)


def closure_singular_analysis(system, mode="accessibility", max_depth=None, seed=0):
    """Singular set as the variety of the invariant closure of the minor
    ideal at the first full-generic-rank depth; makes no index claim."""
    n = system.dimension
    if max_depth is None:
        max_depth = max(2 * n, 8)
    gt = generic_test(system, mode, seed)
    if gt.verdict != VERDICT_GENERIC:
        return _nowhere_report(system, mode, ROUTE_CLOSURE, gt)
    q = gt.k_star
    fam = _family_to_depth(system, mode, q)
    M = _matrix_for(fam)
    I_q = minor_ideal(M, n)
    # the singular ideal describes the limit locus, so the matrix shipped for
    # sampling must realize the limit distribution, not the depth-q family:
    # the stabilized module columns span exactly the limit fiber pointwise
    try:
        M_limit = build_matrix(stabilize_chain(system, mode, max_depth).columns)
    except CapReached:
        M_limit = None
    trace = list(gt.records)
    notes = ()
    if not I_q.is_proper():
        singular = I_q
        notes = ("minor ideal improper: no real point drops rank; empty singular set",)
        trace.append(
            ChainRecord(depth=q, family_size=len(fam.members()),
                        minor_generators=I_q.groebner_basis())
        )
    else:
        result = invariant_closure(I_q, system.operators(), max_rounds=max_depth * 8)
        singular = result.ideal
        trace.append(
            ChainRecord(depth=q, family_size=len(fam.members()),
                        minor_generators=I_q.groebner_basis())
        )
        for i, added in enumerate(result.rounds, start=1):
            trace.append(
                ChainRecord(depth=q, radical_status=None,
                            minor_generators=tuple(added),
                            invariance_witness=f"closure round {i}")
            )
        notes = (f"invariant closure stabilized after {len(result.rounds)} "
                 f"enlargement rounds",)
    return AnalysisReport(
        mode=mode,
        route=ROUTE_CLOSURE,
        generic_rank=n,
        verdict=VERDICT_GENERIC,
        singular_ideal=singular,
        index_kind=INDEX_UNDECIDED,
        index_value=None,
        chain_trace=tuple(trace),
        planar_depth_bound=_planar_bound_for(system),
        notes=notes,
        matrix=M_limit,
    )


def bound_analysis(system, mode="accessibility", max_depth=None, seed=0):
    """Upper bound on the index from the stabilized module chain; the minor
    ideal of the stabilized columns cuts out the limit singular set."""
    n = system.dimension
    chain = stabilize_chain(system, mode, max_depth)
    M = build_matrix(chain.columns)
    gr = generic_rank(M, seed=seed, module=chain.module)
    verdict = VERDICT_GENERIC if gr.rank == n else VERDICT_NOWHERE
    singular = minor_ideal(M, n) if gr.rank == n else Ideal(system.vars, ())
    trace = []
    for depth, gen in enumerate(chain.rounds):
        trace.append(
            ChainRecord(
                depth=depth,
                retained_labels=tuple(v.label for v in gen),
                module_gb_size=chain.basis_sizes[depth],
            )
        )
    kind = INDEX_BOUND_R if mode == "accessibility" else INDEX_BOUND_L
    notes = ()
    if verdict == VERDICT_NOWHERE:
        notes = ("generic rank below the state dimension; every point is singular",)
    return AnalysisReport(
        mode=mode,
        route=ROUTE_MODULE,
        generic_rank=gr.rank,
        verdict=verdict,
        singular_ideal=singular,
        index_kind=kind,
        index_value=chain.r_hat,
        chain_trace=tuple(trace),
        planar_depth_bound=_planar_bound_for(system),
        matrix=M,
    )


def rank_l_analysis(system, l, mode="accessibility", max_depth=None, seed=0):
    """Locus where the bracket family's rank stays below l, taken at the
    stabilized module chain (the chain limit makes this the depth-infinity
    locus, not just a finite-depth one)."""
    n = system.dimension
    if not 1 <= l <= n:
        raise ValueError(f"rank threshold {l} outside 1..{n}")
    chain = stabilize_chain(system, mode, max_depth)
    M = build_matrix(chain.columns)
    gr = generic_rank(M, seed=seed, module=chain.module)
    singular = minor_ideal(M, l) if min(M.nrows, M.ncols) >= l else Ideal(system.vars, ())
    trace = [
        ChainRecord(depth=depth, retained_labels=tuple(v.label for v in gen))
        for depth, gen in enumerate(chain.rounds)
    ]
    kind = INDEX_BOUND_R if mode == "accessibility" else INDEX_BOUND_L
    return AnalysisReport(
        mode=mode,
        route=ROUTE_RANK_L,
        generic_rank=gr.rank,
        verdict=VERDICT_GENERIC if gr.rank == n else VERDICT_NOWHERE,
        singular_ideal=singular,
        index_kind=kind,
        index_value=chain.r_hat,
        chain_trace=tuple(trace),
        threshold=l,
        planar_depth_bound=_planar_bound_for(system),
        matrix=M,
    )


def strong_analysis(system, max_depth=None, seed=0):
    """Strong accessibility: strong-mode generic test and index, with the
    singular set shared with the plain analysis (the two limit sets agree
    wherever the strong generic test passes)."""
    n = system.dimension
    gt = generic_test(system, "strong", seed)
    if gt.verdict != VERDICT_GENERIC:
        report = _nowhere_report(system, "strong", ROUTE_EXACT, gt)
        return report
    plain = exact_index_analysis(system, "accessibility", max_depth, seed)
    strong = exact_index_analysis(system, "strong", max_depth, seed, auto_route=False)
    chain = stabilize_chain(system, "strong", max_depth)
    notes = [
        "strong singular set taken from the accessibility analysis; the two "
        "limit sets coincide under generic strong accessibility",
        f"module-chain bound l-hat = {chain.r_hat}",
    ]
    if strong.index_kind == INDEX_EXACT_L:
        index_kind, index_value = INDEX_EXACT_L, strong.index_value
        if plain.index_kind == INDEX_EXACT_R:
            lo, hi = plain.index_value, plain.index_value + 1
            notes.append(
                f"strong index {strong.index_value} vs accessibility index "
                f"{plain.index_value}: expected in {{{lo}, {hi}}}"
            )
        singular = strong.singular_ideal
    else:
        index_kind, index_value = INDEX_BOUND_L, chain.r_hat
        singular = plain.singular_ideal
    return AnalysisReport(
        mode="strong",
        route=strong.route if strong.index_kind == INDEX_EXACT_L else ROUTE_MODULE,
        generic_rank=n,
        verdict=VERDICT_GENERIC,
        singular_ideal=singular,
        index_kind=index_kind,
        index_value=index_value,
        chain_trace=strong.chain_trace,
        planar_depth_bound=_planar_bound_for(system),
        notes=tuple(notes),
        matrix=strong.matrix if strong.matrix is not None else plain.matrix,
    )


class SampleDiagnostics(NamedTuple):
    checked: int
    on_variety: int
    mismatches: tuple  # points where vanishing and low rank disagree


def sample_check(report, trials=50, seed=1, span=50, extra_points=()):
    """Numeric cross-validation: at sampled points the evaluated bracket
    matrix drops below the rank threshold exactly where every singular
    generator vanishes.  Extra points let callers probe the variety itself."""
    if report.matrix is None:
        raise ValueError("report carries no bracket matrix to sample")
    M = report.matrix
    threshold = report.threshold or M.nrows
    gens = report.singular_generators()
    rng = Random(seed)
    points = [tuple(rng.randint(-span, span) for _ in range(len(M.vars)))
              for _ in range(trials)]
    points.extend(tuple(p) for p in extra_points)
    mismatches = []
    on_variety = 0
    for p in points:
        point = [Q(v) for v in p]
        vanish = all(g.evaluate(point) == 0 for g in gens)
        low = rational_rank(M.evaluate(point)) < threshold
        if vanish:
            on_variety += 1
        if vanish != low:
            mismatches.append(p)
    return SampleDiagnostics(len(points), on_variety, tuple(mismatches))
