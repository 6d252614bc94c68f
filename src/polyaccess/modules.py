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
from .poly import DEGREVLEX, Polynomial, mono_div, mono_divides, mono_lcm, mono_mul
from .rationals import ONE
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

    def negf(term):
        pos, mono = term
        k = key(mono)
        return (pos, _neg(k))

    return negf


def _neg(k):
    return tuple(-x if isinstance(x, int) else _neg(x) for x in k)


def _mv_lt(d, keyf):
    term = max(d, key=keyf)
    return term, d[term]


def _mv_monic(d, keyf):
    _, lc = _mv_lt(d, keyf)
    if lc == ONE:
        return d
    inv = ONE / lc
    return {t: c * inv for t, c in d.items()}


def _mv_shift_scale(d, mono, coeff):
    return {(p, mono_mul(m, mono)): c * coeff for (p, m), c in d.items()}


def _mv_reduce(d, reducers, order):
    """Normal form of a vector dict modulo reducers [((pos, lm), lc, dict)]."""
    negf = _mv_negkey(order)
    work = dict(d)
    remainder = {}
    heap = [(negf(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        _, t = heapq.heappop(heap)
        c = work.get(t)
        if c is None:
            continue
        del work[t]
        pos, mono = t
        for (rpos, lm), lc, rd in reducers:
            if rpos == pos and mono_divides(lm, mono):
                break
        else:
            remainder[t] = c
            continue
        q = c / lc
        shift = mono_div(mono, lm)
        for (bp, bm), bc in rd.items():
            if bp == rpos and bm == lm:
                continue
            tt = (bp, mono_mul(bm, shift))
            v = work.get(tt)
            if v is None:
                work[tt] = -q * bc
                heapq.heappush(heap, (negf(tt), tt))
            else:
                v = v - q * bc
                if v:
                    work[tt] = v
                else:
                    del work[tt]
    return remainder


def _make_mv_reducers(basis, keyf):
    out = []
    for d in basis:
        t, c = _mv_lt(d, keyf)
        out.append((t, c, d))
    return out


def module_buchberger(gens, order=DEGREVLEX):
    """Reduced monic Groebner basis of a list of vector dicts.

    S-pairs only arise between vectors sharing a leading position; the
    coprime shortcut is not valid for modules, so every pair is reduced.
    """
    keyf = _mv_key(order)
    G = []
    seen = set()
    for d in gens:
        if not d:
            continue
        d = _mv_monic(d, keyf)
        k = frozenset(d.items())
        if k not in seen:
            seen.add(k)
            G.append(d)
    lts = [_mv_lt(d, keyf) for d in G]
    heap = []

    def push_pairs(j):
        (pj, mj), _ = lts[j]
        for i in range(j):
            (pi, mi), _ = lts[i]
            if pi == pj:
                L = mono_lcm(mi, mj)
                heapq.heappush(heap, ((pi, order.key(L)), i, j))

    for j in range(len(G)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        (pi, mi), ci = lts[i]
        (pj, mj), cj = lts[j]
        L = mono_lcm(mi, mj)
        a = _mv_shift_scale(G[i], mono_div(L, mi), ONE / ci)
        b = _mv_shift_scale(G[j], mono_div(L, mj), ONE / cj)
        s = dict(a)
        for t, c in b.items():
            v = s.get(t)
            if v is None:
                s[t] = -c
            else:
                v = v - c
                if v:
                    s[t] = v
                else:
                    del s[t]
        h = _mv_reduce(s, _make_mv_reducers(G, keyf), order)
        if h:
            G.append(_mv_monic(h, keyf))
            lts.append(_mv_lt(G[-1], keyf))
            push_pairs(len(G) - 1)
    return _mv_reduce_basis(G, keyf, order)


def _mv_reduce_basis(G, keyf, order):
    lts = [_mv_lt(d, keyf)[0] for d in G]
    minimal = []
    for i, d in enumerate(G):
        (pi, mi) = lts[i]
        keep = True
        for j, (pj, mj) in enumerate(lts):
            if i == j or pi != pj:
                continue
            if mono_divides(mj, mi) and (mi != mj or j < i):
                keep = False
                break
        if keep:
            minimal.append(d)
    out = []
    for i, d in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        if others:
            d = _mv_reduce(d, _make_mv_reducers(others, keyf), order)
        out.append(_mv_monic(d, keyf))
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

    __slots__ = ("vars", "dim", "order", "gens", "_gb", "_reducers")

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
        self._gb = None
        self._reducers = None

    def _basis(self):
        if self._gb is None:
            self._gb = module_buchberger(self.gens, self.order)
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
        keyf = _mv_key(self.order)
        return len({_mv_lt(d, keyf)[0][0] for d in self._basis()})

    def equals(self, other):
        if self.vars != other.vars or self.dim != other.dim:
            return False
        a = self._basis()
        b = other._basis()
        sig = lambda gb: frozenset(frozenset(d.items()) for d in gb)
        return sig(a) == sig(b)

    def extended(self, vectors):
        """Submodule spanned by this one plus the given vectors."""
        extra = tuple(_as_dict(v) for v in vectors)
        return PolySubmodule(self.vars, self.dim, self._basis() + extra, self.order)

    def __repr__(self):
        return f"PolySubmodule(dim={self.dim}, gens={len(self.gens)})"


def module_member(vec, submodule):
    return submodule.member(vec)


def module_equal(a, b):
    return a.equals(b)


class ChainResult(NamedTuple):
    mode: str
    r_hat: int
    rounds: tuple  # rounds[k] = retained generator fields of depth k
    module: object  # the stabilized submodule

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
    generators per depth, and the stabilized module.
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
    frontier = list(seeds)
    for depth in range(1, max_depth + 1):
        retained = []
        for X in ops:
            for e in frontier:
                br = lie_bracket(X, e)
                nf = module.normal_form(br)
                if nf:
                    nf = _mv_monic(nf, _mv_key(module.order))
                    field = dict_to_field(vars, dim, nf, br.label, module.order)
                    retained.append(field)
                    module = module.extended([nf])
        if not retained:
            return ChainResult(mode, depth - 1, tuple(rounds), module)
        rounds.append(tuple(retained))
        frontier = retained
    raise CapReached("module chain", max_depth)
