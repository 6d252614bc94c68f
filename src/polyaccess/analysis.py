"""End-to-end analyses: generic accessibility pretest, exact index search,
invariant-closure singular sets, module-chain upper bounds, strong
accessibility, and restricted-rank singular loci."""

from __future__ import annotations

from functools import wraps
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
from .minors import build_matrix, generic_rank, minor_ideal, rational_rank
from .modules import chain_depths
from .rationals import Q
from .vectorfields import new_brackets

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


class ChainRecord(NamedTuple):
    """One depth of a chain trace; fields are filled by whichever route ran."""

    depth: int
    family_size: int = None
    generic_rank: int = None
    minor_generators: tuple = ()
    radical_status: str = None  # "supported" or the Unsupported reason
    invariance_witness: str = None  # residue description when not invariant
    module_gb_size: int = None
    retained_labels: tuple = ()


class ChainResult(NamedTuple):
    mode: str
    r_hat: int
    rounds: tuple  # rounds[k] = retained generator fields of depth k
    module: object  # the stabilized submodule
    basis_sizes: tuple  # basis_sizes[k] = basis size of the depth-k module

    @property
    def columns(self):
        return self.columns_at(self.r_hat)

    def columns_at(self, depth):
        out = []
        for gen in self.rounds[: depth + 1]:
            out.extend(gen)
        return tuple(out)


class GenericTestResult(NamedTuple):
    mode: str
    rank: int
    verdict: str
    k_star: int  # first depth of full generic rank; None if never full
    records: tuple


class AnalysisReport(NamedTuple):
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
    notes: tuple = ()

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


def depth_cap(system, max_depth=None):
    """The bracket-depth cap: max_depth, or max(2n, 8) for n states."""
    return max(2 * system.dimension, 8) if max_depth is None else max_depth


def _once(method):
    """Compute a session method once per argument tuple.  A CapReached is
    kept as well and raised again, so a capped computation is not rerun."""

    @wraps(method)
    def cached(self, *args):
        key = (method.__name__,) + args
        if key not in self._memo:
            try:
                self._memo[key] = (method(self, *args), None)
            except CapReached as e:
                self._memo[key] = (None, e)
        result, error = self._memo[key]
        if error is not None:
            raise error
        return result

    return cached


class AnalysisSession:
    """Every analysis of one system at one seed and one depth cap.

    The routes share their work.  Each mode has one module chain, read from
    chain_depths only as deep as some route asks: its columns and modules
    through each depth give the generic test, the index search and the
    closure their matrices and ranks.  At its stable depth r-hat, its module
    gives the bound and rank routes the generic rank, with no sampling, and
    its columns give their minors.  The generic test, minor ideals, index
    search and invariant closure are each computed on first use and kept.
    Routes that build on one another (strong on the index search, the index
    search on the closure) read the same objects.  The bracket family is
    kept only to report its size per depth, as its generations and their ray
    set.  Its generations 0 and 1 are the fields the chain found on new rays
    at those depths, so no bracket is formed twice; deeper generations come
    from the chain's own step, new_brackets, applied to the family's last
    generation.
    """

    def __init__(self, system, max_depth=None, seed=0):
        self.system = system
        self.seed = seed
        self.max_depth = depth_cap(system, max_depth)
        self.planar_bound = (planar_depth_bound(max(system_degree(system), 1))
                             if system.dimension == 2 else None)
        self._families = {}  # mode -> (generations so far, their rays)
        self._chains = {}  # mode -> (depths read so far, chain_depths generator)
        self._memo = {}

    def family(self, mode, depth):
        """Generations 0..depth of the bracket family.  Generations 0 and 1
        are the chain's new-ray fields at depths 0 and 1: the chain brackets
        the same operators against its seeds in the same order.  Each deeper
        generation is new_brackets of the one before."""
        fam = self._families.get(mode)
        if fam is None or len(fam[0]) <= min(depth, 1):
            fresh = [self._depth(mode, k)[2] for k in range(min(depth, 1) + 1)]
            fam = ([list(f.values()) for f in fresh], {ray for f in fresh for ray in f})
            self._families[mode] = fam
        gens, rays = fam
        ops = self.system.operators()
        while len(gens) <= depth:
            gens.append(list(new_brackets(ops, gens[-1], rays).values()))
        return gens[: depth + 1]

    def _family_size(self, mode, depth):
        return sum(map(len, self.family(mode, depth)))

    def _depth(self, mode, depth):
        """Retained fields, module and new-ray fields at depth `depth` of the
        mode's chain, read on first use; past the first depth that retains
        nothing, the chain is stable."""
        if mode not in self._chains:
            self._chains[mode] = ([], chain_depths(self.system, mode))
        depths, rest = self._chains[mode]
        while len(depths) <= depth:
            if len(depths) > 1 and not depths[-1][0]:
                return depths[-1]
            depths.append(next(rest))
        return depths[depth]

    @_once
    def matrix(self, mode, depth):
        """Matrix of the chain columns through depth `depth`; None when there
        are none."""
        cols = [f for k in range(depth + 1) for f in self._depth(mode, k)[0]]
        return build_matrix(cols) if cols else None

    @_once
    def chain(self, mode):
        """The chain up to its stable depth r-hat, the last that retains a
        field (0 for the zero module)."""
        for depth in range(1, self.max_depth + 1):
            if not self._depth(mode, depth)[0]:
                steps = [self._depth(mode, k) for k in range(depth)]
                return ChainResult(mode, depth - 1, tuple(s[0] for s in steps), steps[-1][1],
                                   tuple(len(s[1]._basis()) for s in steps))
        raise CapReached("module chain", self.max_depth)

    def limit_matrix(self, mode):
        """Matrix of the stabilized chain's columns; None for a zero chain."""
        return self.matrix(mode, self.chain(mode).r_hat)

    def limit_rank(self, mode):
        """Generic rank of the stabilized chain: the rank of its module, whose
        basis the chain has built."""
        return self.chain(mode).module.rank()

    @_once
    def minors(self, mode, depth, size):
        """Ideal of the size x size minors of the depth-`depth` matrix."""
        return minor_ideal(self.matrix(mode, depth), size)

    def _report(self, mode, route, singular, kind=INDEX_UNDECIDED, value=None,
                trace=(), rank=None, **extra):
        # rank defaults to full, which every route reaches past the generic test
        n = self.system.dimension
        rank = n if rank is None else rank
        return AnalysisReport(
            mode=mode,
            route=route,
            generic_rank=rank,
            verdict=VERDICT_GENERIC if rank == n else VERDICT_NOWHERE,
            singular_ideal=singular,
            index_kind=kind,
            index_value=value,
            chain_trace=tuple(trace),
            planar_depth_bound=self.planar_bound,
            **extra,
        )

    def _nowhere(self, mode, route, gt):
        # rank below n on a dense open set means rank below n everywhere, so
        # the singular locus is the whole space: the zero ideal cuts it out
        return self._report(
            mode, route, Ideal(self.system.vars, ()), trace=gt.records, rank=gt.rank,
            notes=("generic rank below the state dimension; every point is singular",))

    @_once
    def generic(self, mode):
        """Generic rank of the depth-(n-1) bracket family, with early exit the
        moment the rank reaches the state dimension.  An empty family (all
        fields zero) has rank 0."""
        n = self.system.dimension
        records = []
        rank = 0
        for depth in range(n):
            # a depth past 0 that retains nothing has the columns, so the
            # rank, of the depth before
            if depth == 0 or self._depth(mode, depth)[0]:
                M = self.matrix(mode, depth)
                rank = 0 if M is None else generic_rank(
                    M, seed=self.seed, module=self._depth(mode, depth)[1])
            records.append(ChainRecord(depth=depth, family_size=self._family_size(mode, depth),
                                       generic_rank=rank))
            if rank == n:
                return GenericTestResult(mode, n, VERDICT_GENERIC, depth, tuple(records))
        # the columns, so the ranks, only grow with depth: the last is the best
        return GenericTestResult(mode, rank, VERDICT_NOWHERE, None, tuple(records))

    @_once
    def _index_search(self, mode):
        # the search from k*; an unsupported radical ends it with the index
        # undecided and no singular ideal
        n = self.system.dimension
        gt = self.generic(mode)
        ops = self.system.operators()
        trace = list(gt.records)
        for k in range(gt.k_star, self.max_depth + 1):
            I_k = self.minors(mode, k, n)
            rr = real_radical_restricted(I_k)
            unsupported = isinstance(rr, Unsupported)
            record = ChainRecord(depth=k, family_size=self._family_size(mode, k),
                                 minor_generators=I_k.groebner_basis(),
                                 radical_status=rr.reason if unsupported else "supported")
            if unsupported:
                trace.append(record)
                return self._report(
                    mode, ROUTE_EXACT, None, trace=trace,
                    notes=(f"real radical unsupported at depth {k}: {rr.reason}",))
            inv = is_invariant(rr, ops)
            if inv.invariant:
                trace.append(record)
                kind = INDEX_EXACT_R if mode == "accessibility" else INDEX_EXACT_L
                return self._report(mode, ROUTE_EXACT, rr, kind, k, trace)
            trace.append(record._replace(invariance_witness=(
                f"L along {inv.field_label} of {inv.generator} leaves the ideal "
                f"(residue {inv.residue})"
            )))
        raise CapReached("exact index search", self.max_depth)

    def index(self, mode, auto_route=True):
        """Smallest depth whose singular set already equals the limit set,
        found by testing the restricted real radical of each minor ideal for
        invariance.  An unsupported radical leaves the index undecided; the
        singular set then comes from the invariant closure when auto_route
        is set, and the trace goes on with the closure rounds."""
        gt = self.generic(mode)
        if gt.verdict != VERDICT_GENERIC:
            return self._nowhere(mode, ROUTE_EXACT, gt)
        report = self._index_search(mode)
        if report.singular_ideal is not None or not auto_route:
            return report
        singular, rounds, _ = self._closure(mode)
        return report._replace(
            route=ROUTE_CLOSURE,
            singular_ideal=singular,
            chain_trace=report.chain_trace + rounds,
            notes=report.notes + ("index undecided; singular set computed by invariant closure",),
        )

    @_once
    def _closure(self, mode):
        # the closure route's singular ideal, its round records and its note
        q = self.generic(mode).k_star
        I_q = self.minors(mode, q, self.system.dimension)
        if not I_q.is_proper():
            return I_q, (), ("minor ideal improper: no real point drops rank; empty singular set",)
        result = invariant_closure(I_q, self.system.operators(), max_rounds=self.max_depth * 8)
        rounds = tuple(
            ChainRecord(depth=q, minor_generators=tuple(added),
                        invariance_witness=f"closure round {i}")
            for i, added in enumerate(result.rounds, start=1)
        )
        return result.ideal, rounds, (
            f"invariant closure stabilized after {len(result.rounds)} enlargement rounds",)

    def closure(self, mode):
        """Singular set as the variety of the invariant closure of the minor
        ideal at the first full-generic-rank depth; makes no index claim."""
        gt = self.generic(mode)
        if gt.verdict != VERDICT_GENERIC:
            return self._nowhere(mode, ROUTE_CLOSURE, gt)
        q = gt.k_star
        I_q = self.minors(mode, q, self.system.dimension)
        head = ChainRecord(depth=q, family_size=self._family_size(mode, q),
                           minor_generators=I_q.groebner_basis())
        singular, rounds, notes = self._closure(mode)
        return self._report(mode, ROUTE_CLOSURE, singular, trace=gt.records + (head,) + rounds,
                            notes=notes)

    def bound(self, mode):
        """Upper bound on the index from the stabilized module chain; the
        minor ideal of the stabilized columns cuts out the limit singular set."""
        n = self.system.dimension
        chain = self.chain(mode)
        rank = self.limit_rank(mode)
        singular = self.minors(mode, chain.r_hat, n) if rank == n else Ideal(self.system.vars, ())
        trace = [ChainRecord(depth=depth, retained_labels=tuple(v.label for v in gen),
                             module_gb_size=chain.basis_sizes[depth])
                 for depth, gen in enumerate(chain.rounds)]
        return self._report(mode, ROUTE_MODULE, singular, _bound_kind(mode), chain.r_hat, trace,
                            rank=rank)

    def rank_l(self, mode, l):
        """Locus where the bracket family's rank stays below l, taken at the
        stabilized module chain (the chain limit makes this the depth-infinity
        locus, not just a finite-depth one)."""
        n = self.system.dimension
        if not 1 <= l <= n:
            raise ValueError(f"rank threshold {l} outside 1..{n}")
        chain = self.chain(mode)
        rank = self.limit_rank(mode)
        singular = self.minors(mode, chain.r_hat, l) if rank >= l else Ideal(self.system.vars, ())
        trace = [ChainRecord(depth=depth, retained_labels=tuple(v.label for v in gen))
                 for depth, gen in enumerate(chain.rounds)]
        return self._report(mode, ROUTE_RANK_L, singular, _bound_kind(mode), chain.r_hat, trace,
                            rank=rank, threshold=l)

    def strong(self):
        """Strong accessibility: strong-mode generic test and index, with the
        singular set shared with the plain analysis (the two limit sets agree
        wherever the strong generic test passes)."""
        gt = self.generic("strong")
        if gt.verdict != VERDICT_GENERIC:
            return self._nowhere("strong", ROUTE_EXACT, gt)
        plain = self.index("accessibility")
        strong = self.index("strong", auto_route=False)
        chain = self.chain("strong")
        notes = [
            "strong singular set taken from the accessibility analysis; the two "
            "limit sets coincide under generic strong accessibility",
            f"module-chain bound l-hat = {chain.r_hat}",
        ]
        if strong.index_kind == INDEX_EXACT_L:
            index_kind, index_value, route = INDEX_EXACT_L, strong.index_value, strong.route
            if plain.index_kind == INDEX_EXACT_R:
                lo, hi = plain.index_value, plain.index_value + 1
                notes.append(
                    f"strong index {strong.index_value} vs accessibility index "
                    f"{plain.index_value}: expected in {{{lo}, {hi}}}"
                )
            singular = strong.singular_ideal
        else:
            index_kind, index_value, route = INDEX_BOUND_L, chain.r_hat, ROUTE_MODULE
            singular = plain.singular_ideal
        return self._report(
            "strong", route, singular, index_kind, index_value, strong.chain_trace,
            notes=tuple(notes))


def _bound_kind(mode):
    return INDEX_BOUND_R if mode == "accessibility" else INDEX_BOUND_L


def stabilize_chain(system, mode="accessibility", max_depth=None):
    """Module chain to its stable depth in a fresh session; see
    AnalysisSession.chain."""
    return AnalysisSession(system, max_depth).chain(mode)


def generic_test(system, mode="accessibility", seed=0):
    """Generic rank test in a fresh session; see AnalysisSession.generic."""
    return AnalysisSession(system, seed=seed).generic(mode)


def exact_index_analysis(system, mode="accessibility", max_depth=None, seed=0,
                         auto_route=True):
    """Exact index search in a fresh session; see AnalysisSession.index."""
    return AnalysisSession(system, max_depth, seed).index(mode, auto_route)


def closure_singular_analysis(system, mode="accessibility", max_depth=None, seed=0):
    """Invariant-closure singular set in a fresh session; see AnalysisSession.closure."""
    return AnalysisSession(system, max_depth, seed).closure(mode)


def bound_analysis(system, mode="accessibility", max_depth=None, seed=0):
    """Module-chain bound in a fresh session; see AnalysisSession.bound."""
    return AnalysisSession(system, max_depth, seed).bound(mode)


def rank_l_analysis(system, l, mode="accessibility", max_depth=None, seed=0):
    """Rank-below-l locus in a fresh session; see AnalysisSession.rank_l."""
    return AnalysisSession(system, max_depth, seed).rank_l(mode, l)


def strong_analysis(system, max_depth=None, seed=0):
    """Strong accessibility in a fresh session; see AnalysisSession.strong."""
    return AnalysisSession(system, max_depth, seed).strong()


class SampleDiagnostics(NamedTuple):
    checked: int
    on_variety: int
    mismatches: tuple  # points where vanishing and low rank disagree


def sample_check(report, matrix, trials=50, seed=1, extra_points=()):
    """Numeric cross-validation: at integer points sampled from [-50, 50]
    the evaluated bracket matrix drops below the rank threshold exactly
    where every singular generator vanishes.  Extra points let callers
    probe the variety itself.

    The matrix must be one whose rank drops exactly on the report's set.
    Every route's singular ideal describes the limit locus, so the
    stabilized chain's matrix, session.limit_matrix(mode), serves for all
    of them: its columns span the limit fiber pointwise.  At an exact index
    k the depth-k matrix, session.matrix(mode, k), serves as well."""
    if matrix is None:
        raise ValueError("no bracket matrix to sample")
    threshold = report.threshold or matrix.nrows
    gens = report.singular_generators()
    rng = Random(seed)
    points = [tuple(rng.randint(-50, 50) for _ in range(len(matrix.vars)))
              for _ in range(trials)]
    points.extend(tuple(p) for p in extra_points)
    mismatches = []
    on_variety = 0
    for p in points:
        point = [Q(v) for v in p]
        vanish = all(g.evaluate(point) == 0 for g in gens)
        low = rational_rank(matrix.evaluate(point)) < threshold
        if vanish:
            on_variety += 1
        if vanish != low:
            mismatches.append(p)
    return SampleDiagnostics(len(points), on_variety, tuple(mismatches))
