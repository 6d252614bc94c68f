"""Submodules of Q[x]^n and the saturation that stabilizes the ascending
chain of bracket-generated modules.

Vectors are flat dicts {(position, monomial): coefficient}; the term order
is position-over-term with earlier positions larger, so leading terms sit
in the lowest occupied component.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import CapReached
from .ideals import _negkey, pair_update
from .poly import DEGREVLEX, Polynomial, mono_div, mono_divides, mono_mul
from .rationals import ONE, ZERO
from .vectorfields import VectorField, lie_bracket


def field_to_dict(field):
    d = {}
    for pos, comp in enumerate(field.components):
        for m, c in comp.coeffs.items():
            d[(pos, m)] = c
    return d


def dict_to_field(vars, dim, d, label, order=DEGREVLEX):
    comps = [{} for _ in range(dim)]
    for (pos, m), c in d.items():
        comps[pos][m] = c
    polys = [Polynomial(vars, comp, order, _clean=False) for comp in comps]
    return VectorField(polys, label)


def _mv_key(order):
    key = order.key

    def keyf(term):
        pos, mono = term
        return (-pos, key(mono))

    return keyf


def _mv_negkey(order):
    key = order.key
    return lambda term: (term[0], _negkey(key(term[1])))


def _mv_lt(d, keyf):
    term = max(d, key=keyf)
    return term, d[term]


def _mv_monic(d, keyf):
    _, lc = _mv_lt(d, keyf)
    if lc == ONE:
        return d
    inv = ONE / lc
    return {t: c * inv for t, c in d.items()}


def _mv_shift(d, mono):
    return {(p, mono_mul(m, mono)): c for (p, m), c in d.items()}


def _mv_reduce(d, reducers, order):
    """Normal form of a vector dict modulo monic reducers, given as
    {position: [(leading monomial, vector dict)]}."""
    negf = _mv_negkey(order)
    work = dict(d)
    remainder = {}
    heap = [(negf(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        pos, mono = t
        for lm, rd in reducers.get(pos, ()):
            if mono_divides(lm, mono):
                break
        else:
            remainder[t] = c
            continue
        shift = mono_div(mono, lm)
        for (bp, bm), bc in rd.items():
            if bp == pos and bm == lm:
                continue
            tt = (bp, mono_mul(bm, shift))
            v = work.get(tt)
            if v is None:
                work[tt] = -c * bc
                heapq.heappush(heap, (negf(tt), tt))
            else:
                v = v - c * bc
                if v:
                    work[tt] = v
                else:
                    del work[tt]
    return remainder


def _make_mv_reducers(basis, keyf):
    out = {}
    for d in basis:
        (pos, lm), _ = _mv_lt(d, keyf)
        out.setdefault(pos, []).append((lm, d))
    return out


def module_buchberger(gens, order=DEGREVLEX, basis=()):
    """Reduced monic Groebner basis of a reduced basis plus more vectors.

    The elements of basis, a reduced Groebner basis (empty for a build from
    scratch), start in the basis with no pairs among them; the vectors of
    gens are made monic and inserted.  S-pairs only arise between elements
    sharing a leading position, and each insertion prunes that position's
    pairs by ideals.pair_update without the product criterion, which does
    not hold for vectors.  The pair with the smallest lcm goes first, so
    the last position's pairs precede the others.
    """
    keyf = _mv_key(order)
    key = order.key
    G = []  # every element ever added; retired ones stay for the pair indices
    lms = []
    active = {}  # position -> indices of G still in the basis
    pairs = {}  # position -> heap of (key(lcm), i, j, lcm)
    reducers = {}  # position -> [(lm, element)] of the active elements

    def insert(h):
        d = _mv_monic(h, keyf)
        (pos, lm), _ = _mv_lt(d, keyf)
        G.append(d)
        lms.append(lm)
        active[pos], pairs[pos] = pair_update(
            lms, active.get(pos, []), pairs.get(pos, []), key, product=False)
        reducers[pos] = [(lms[i], G[i]) for i in active[pos]]

    for d in basis:
        (pos, lm), _ = _mv_lt(d, keyf)
        G.append(d)
        lms.append(lm)
        active.setdefault(pos, []).append(len(G) - 1)
        reducers.setdefault(pos, []).append((lm, d))
    for d in gens:
        if d:
            insert(d)
    while True:
        live = [p for p, heap in pairs.items() if heap]
        if not live:
            break
        pos = max(live)
        _, i, j, L = heapq.heappop(pairs[pos])
        s = _mv_shift(G[i], mono_div(L, lms[i]))
        for t, c in _mv_shift(G[j], mono_div(L, lms[j])).items():
            v = s.get(t, ZERO) - c
            if v:
                s[t] = v
            else:
                del s[t]
        h = _mv_reduce(s, reducers, order)
        if h:
            insert(h)
    # an input may be led by a multiple of another element's leading term,
    # and is dropped here; a tail term lies below its own leading term, so
    # reducing the tails against all elements at once reduces each against
    # the others
    out = []
    for pos, held in reducers.items():
        for lm, d in held:
            if any(m != lm and mono_divides(m, lm) for m, _ in held):
                continue
            tail = {t: c for t, c in d.items() if t != (pos, lm)}
            out.append({(pos, lm): ONE, **_mv_reduce(tail, reducers, order)})
    out.sort(key=lambda d: keyf(_mv_lt(d, keyf)[0]), reverse=True)
    return tuple(out)


def _as_dict(vec):
    if isinstance(vec, VectorField):
        return field_to_dict(vec)
    if isinstance(vec, dict):
        return vec
    raise TypeError("expected a VectorField or vector dict")


class PolySubmodule:
    """Finitely generated submodule of Q[x]^dim with a cached reduced basis."""

    __slots__ = ("vars", "dim", "order", "gens", "_seed", "_gb", "_reducers")

    def __init__(self, vars, dim, gens, order=DEGREVLEX):
        self.vars = vars
        self.dim = dim
        self.order = order
        cleaned = []
        for g in gens:
            d = _as_dict(g)
            if d:
                cleaned.append(d)
        self.gens = tuple(cleaned)
        self._seed = ()  # the reduced basis that the first gens form, if any
        self._gb = None
        self._reducers = None

    def _basis(self):
        if self._gb is None:
            extra = self.gens[len(self._seed):]
            self._gb = module_buchberger(extra, self.order, self._seed)
            self._reducers = _make_mv_reducers(self._gb, _mv_key(self.order))
        return self._gb

    def groebner_basis(self):
        gb = self._basis()
        return tuple(
            dict_to_field(self.vars, self.dim, d, f"m{i}", self.order)
            for i, d in enumerate(gb)
        )

    def normal_form(self, vec):
        d = _as_dict(vec)
        gb = self._basis()
        if not d or not gb:
            return d
        return _mv_reduce(d, self._reducers, self.order)

    def member(self, vec):
        return not self.normal_form(vec)

    def rank(self):
        """Rank over Q(x): the number of distinct leading positions in the
        position-over-term basis.  The basis elements led in position p
        project onto a nonzero ideal of Q[x] in coordinate p, and each such
        coordinate adds one to the rank."""
        self._basis()
        return len(self._reducers)

    def equals(self, other):
        if self.vars != other.vars or self.dim != other.dim:
            return False
        a = self._basis()
        b = other._basis()
        sig = lambda gb: frozenset(frozenset(d.items()) for d in gb)
        return sig(a) == sig(b)

    def extended(self, vectors):
        """Submodule spanned by this one plus the given vectors.  Its basis
        is built by inserting the vectors into this module's basis."""
        seed = self._basis()
        extra = tuple(_as_dict(v) for v in vectors)
        out = PolySubmodule(self.vars, self.dim, seed + extra, self.order)
        out._seed = seed
        return out

    def adjoin(self, vec):
        """The monic normal form of vec and the module extended by it, or an
        empty dict and this module when vec is already a member."""
        nf = self.normal_form(vec)
        if not nf:
            return nf, self
        nf = _mv_monic(nf, _mv_key(self.order))
        return nf, self.extended([nf])

    def __repr__(self):
        return f"PolySubmodule(dim={self.dim}, gens={len(self.gens)})"


class ChainResult(NamedTuple):
    mode: str
    r_hat: int
    rounds: tuple  # rounds[k] = retained generator fields of depth k
    module: object  # the stabilized submodule
    basis_sizes: tuple  # basis_sizes[k] = basis size of the depth-k module

    @property
    def columns(self):
        out = []
        for gen in self.rounds:
            out.extend(gen)
        return tuple(out)

    def columns_at(self, depth):
        out = []
        for gen in self.rounds[: depth + 1]:
            out.extend(gen)
        return tuple(out)


def stabilize_chain(system, mode="accessibility", max_depth=None):
    """Saturate the ascending chain of bracket-generated submodules.

    Depth k+1 only brackets the generators retained at depth k: brackets of
    module combinations split into combinations of the retained brackets and
    of lower-depth generators, so nothing else can enlarge the module.
    Returns the first depth where nothing new appears, the retained
    generators per depth, the stabilized module, and the size of the
    module's basis at the end of each depth.
    """
    vars = system.vars
    dim = system.dimension
    if max_depth is None:
        max_depth = max(2 * dim, 8)
    seeds = []
    seen = set()
    for g in system.generators(mode):
        if g.is_zero():
            continue
        k = frozenset(field_to_dict(g).items())
        if k not in seen:
            seen.add(k)
            seeds.append(g)
    if not seeds:
        raise ValueError("no nonzero generators at depth zero")
    ops = system.operators()
    module = PolySubmodule(vars, dim, seeds, seeds[0].components[0].order)
    rounds = [tuple(seeds)]
    sizes = []
    frontier = list(seeds)
    for depth in range(1, max_depth + 1):
        sizes.append(len(module._basis()))
        retained = []
        for X in ops:
            for e in frontier:
                br = lie_bracket(X, e)
                nf, module = module.adjoin(br)
                if nf:
                    retained.append(dict_to_field(vars, dim, nf, br.label, module.order))
        if not retained:
            return ChainResult(mode, depth - 1, tuple(rounds), module, tuple(sizes))
        rounds.append(tuple(retained))
        frontier = retained
    raise CapReached("module chain", max_depth)
