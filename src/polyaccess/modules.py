"""Submodules of Q[x]^n, the Groebner engine, and the ascending chain of
bracket-generated modules, built one depth at a time.

Vectors are flat dicts {(position, monomial): coefficient}; the term order
is position-over-term with earlier positions larger and degrevlex within a
position, so leading terms sit in the lowest occupied component.  An ideal
of Q[x] is a submodule of Q[x]^1, so module_buchberger computes the ideal
bases too (ideals.Ideal is a PolySubmodule at dim 1), and ideal
intersections at dim 2, which also give the polynomial gcd's fallback,
p*q over the lcm (ideals.poly_gcd).

The product criterion drops a pair whose leading monomials are coprime.
It holds for the pairs led in the last position, dim - 1, and only there.
An element led in the last position has no other component, since its
leading position is its lowest occupied one.  Such elements are polynomial
multiples of one unit vector, and two of them with coprime leading
monomials have an S-vector that reduces to zero, as for polynomials.  An
element led in an earlier position may have later components, and then the
criterion fails: in Q[x, y]^2, (x, 1) and (y, 0) have coprime leading
monomials, but their S-vector y*(x, 1) - x*(y, 0) = (0, y) is reduced and
nonzero.  In Q[x]^1 every element is led in the last position.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub

from .poly import (Polynomial, _add_into, mono_div, mono_divides, mono_gcd, mono_key, mono_lcm,
                   mono_mul)
from .rationals import ONE
from .vectorfields import VectorField, new_brackets, ray_key


def field_to_dict(field):
    d = {}
    for pos, comp in enumerate(field.components):
        for m, c in comp.coeffs.items():
            d[(pos, m)] = c
    return d


def dict_to_field(vars, dim, d, label):
    comps = [{} for _ in range(dim)]
    for (pos, m), c in d.items():
        comps[pos][m] = c
    polys = [Polynomial(vars, comp, _clean=False) for comp in comps]
    return VectorField(polys, label)


def _mv_negkey(term):
    """Heap key of (position, monomial) terms: the smallest is the largest
    term, position over term with earlier positions larger.  Within a
    position it is poly.mono_negkey, flattened into the tuple."""
    pos, mono = term
    return (pos, -sum(mono), mono[::-1])


def _mv_lt(d):
    term = min(d, key=_mv_negkey)
    return term, d[term]


def _mv_monic(d):
    _, lc = _mv_lt(d)
    if lc == ONE:
        return d
    inv = ONE / lc
    return {t: c * inv for t, c in d.items()}


def _mv_shift(d, mono):
    return {(p, mono_mul(m, mono)): c for (p, m), c in d.items()}


def _mv_reduce(d, reducers):
    """Normal form of a vector dict modulo monic reducers, given as
    {position: [(leading monomial, vector dict)]}.

    Terms are consumed in strictly descending order via a lazy heap, so
    each term is processed at most once.
    """
    if not reducers:
        return dict(d)
    negf = _mv_negkey
    heappop, heappush, reducers_at = heapq.heappop, heapq.heappush, reducers.get
    work = dict(d)
    remainder = {}
    heap = [(negf(t), t) for t in work]
    heapq.heapify(heap)
    while heap:
        _, t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        pos, mono = t
        for lm, rd in reducers_at(pos, ()):
            if all(map(le, lm, mono)):
                break
        else:
            remainder[t] = c
            continue
        shift = tuple(map(sub, mono, lm))
        c = -c
        for (bp, bm), bc in rd.items():
            if bp == pos and bm == lm:
                continue
            tt = (bp, tuple(map(add, bm, shift)))
            v = work.get(tt)
            if v is None:
                work[tt] = c * bc
                heappush(heap, (negf(tt), tt))
            else:
                v = v + c * bc
                if v:
                    work[tt] = v
                else:
                    del work[tt]
    return remainder


def _make_mv_reducers(basis):
    """Reducer table of a module_buchberger output, whose elements each
    have their leading term as first key."""
    out = {}
    for d in basis:
        pos, lm = next(iter(d))
        out.setdefault(pos, []).append((lm, d))
    return out


def pair_update(lms, active, pairs, pos, dim):
    """Gebauer-Moeller update for the newest element, index len(lms) - 1,
    led in position pos of Q[x]^dim.

    lms holds the leading monomials of all elements by index, active the
    elements of position pos, and pairs their heap of pending pairs
    (mono_key(lcm), i, j, lcm).  The new element h drops each old pair
    whose lcm lm(h) divides, unless lm(h) forms that same lcm with one of
    the pair (B-criterion); it keeps one of its own pairs per minimal lcm
    (M/F criteria), none with a coprime leading monomial in the last
    position (product criterion, see the module docstring); and it retires
    the elements whose leading monomial lm(h) divides.  Returns the new
    active list and pair heap.
    """
    k = len(lms) - 1
    hm = lms[k]
    product = pos == dim - 1
    # coprime pairs still rule out pairs with a multiple of their lcm,
    # so they are dropped only after the scan
    candidates = [(mono_lcm(lms[i], hm), i) for i in active]
    new = []
    while candidates:
        L, i = candidates.pop()
        coprime = product and not any(mono_gcd(lms[i], hm))
        if coprime or not (
            any(mono_divides(L2, L) for L2, _ in candidates)
            or any(mono_divides(L2, L) for L2, _, _ in new)
        ):
            new.append((L, i, coprime))
    pairs = [
        (kp, i, j, L)
        for kp, i, j, L in pairs
        if not mono_divides(hm, L)
        or mono_lcm(lms[i], hm) == L
        or mono_lcm(lms[j], hm) == L
    ]
    pairs.extend((mono_key(L), i, k, L) for L, i, coprime in new if not coprime)
    heapq.heapify(pairs)
    active = [i for i in active if not mono_divides(hm, lms[i])]
    active.append(k)
    return active, pairs


def module_buchberger(gens, dim, basis=()):
    """Reduced monic Groebner basis of a reduced basis plus more vectors of
    Q[x]^dim, sorted by descending leading term.

    The elements of basis, a reduced Groebner basis (empty for a build from
    scratch), start in the basis with no pairs among them.  The vectors of
    gens are taken by ascending leading term; each is reduced against the
    basis so far, made monic and inserted, or dropped if it reduces to zero.
    S-pairs only arise between elements sharing a leading position, and each
    insertion prunes that position's pairs by pair_update.  The pair with
    the smallest lcm goes first, so the last position's pairs precede the
    others.  Each output element has its leading term as its first key, and
    the elements of basis must too.

    One nonzero vector and no basis is its own reduced basis once monic:
    it has no S-pairs, and no tail term is a multiple of its leading term,
    which is larger than each of them.  It is returned with its terms in
    descending order, as the general path returns it.
    """
    gens = [d for d in gens if d]
    if len(gens) == 1 and not basis:
        d = _mv_monic(gens[0])
        return ({t: d[t] for t in sorted(d, key=_mv_negkey)},)
    G = []  # every element ever added; retired ones stay for the pair indices
    lms = []
    active = {}  # position -> indices of G still in the basis
    pairs = {}  # position -> heap of (mono_key(lcm), i, j, lcm)
    reducers = {}  # position -> [(lm, element)] of the active elements

    def insert(d):
        (pos, lm), lc = _mv_lt(d)
        if lc != ONE:
            inv = ONE / lc
            d = {t: c * inv for t, c in d.items()}
        G.append(d)
        lms.append(lm)
        active[pos], pairs[pos] = pair_update(
            lms, active.get(pos, []), pairs.get(pos, []), pos, dim)
        reducers[pos] = [(lms[i], G[i]) for i in active[pos]]

    for d in basis:
        pos, lm = next(iter(d))
        G.append(d)
        lms.append(lm)
        active.setdefault(pos, []).append(len(G) - 1)
        reducers.setdefault(pos, []).append((lm, d))
    # ascending leading terms; reverse=True keeps ties in input order
    for d in sorted(gens, key=lambda d: _mv_negkey(_mv_lt(d)[0]), reverse=True):
        h = _mv_reduce(d, reducers)
        if h:
            insert(h)
    while True:
        live = [p for p, heap in pairs.items() if heap]
        if not live:
            break
        pos = max(live)
        _, i, j, L = heapq.heappop(pairs[pos])
        s = _mv_shift(G[i], mono_div(L, lms[i]))
        _add_into(s, _mv_shift(G[j], mono_div(L, lms[j])), True)
        h = _mv_reduce(s, reducers)
        if h:
            insert(h)
    # the active elements form a minimal basis: each entered reduced against
    # those before it and retired those it divides.  A tail term lies below
    # its own leading term, so reducing the tails against all elements at
    # once reduces each against the others
    out = []
    for pos, held in reducers.items():
        for lm, d in held:
            lt = (pos, lm)
            tail = {t: c for t, c in d.items() if t != lt}
            out.append((_mv_negkey(lt), {lt: ONE, **_mv_reduce(tail, reducers)}))
    out.sort(key=lambda e: e[0])
    return tuple(d for _, d in out)


def _as_dict(vec):
    if isinstance(vec, VectorField):
        return field_to_dict(vec)
    if isinstance(vec, dict):
        return vec
    raise TypeError("expected a VectorField or vector dict")


class PolySubmodule:
    """Finitely generated submodule of Q[x]^dim with a cached reduced basis.

    The generators are kept in the view's own form; _vec and _unvec convert
    them and normal forms to and from vector dicts, so a view of another
    form (ideals.Ideal, at dim 1) shares the basis, normal forms, equality
    and extension.
    """

    __slots__ = ("vars", "dim", "gens", "_seed", "_gb", "_reducers")

    def __init__(self, vars, dim, gens):
        self.vars = vars
        self.dim = dim
        self.gens = tuple(d for d in map(_as_dict, gens) if d)
        self._seed = ()  # the reduced basis that the first gens form, if any
        self._gb = None
        self._reducers = None

    def _vec(self, vec):
        return _as_dict(vec)

    def _unvec(self, d):
        return d

    def _like(self, gens):
        return PolySubmodule(self.vars, self.dim, gens)

    def _basis(self):
        if self._gb is None:
            extra = [self._vec(g) for g in self.gens[len(self._seed):]]
            self._gb = module_buchberger(extra, self.dim, self._seed)
            self._reducers = _make_mv_reducers(self._gb)
        return self._gb

    def _reduced(self, vec):
        self._basis()
        return _mv_reduce(self._vec(vec), self._reducers)

    def groebner_basis(self):
        gb = self._basis()
        return tuple(dict_to_field(self.vars, self.dim, d, f"m{i}") for i, d in enumerate(gb))

    def normal_form(self, vec):
        return self._unvec(self._reduced(vec))

    def member(self, vec):
        return not self._reduced(vec)

    def rank(self):
        """Rank over Q(x): the number of distinct leading positions in the
        position-over-term basis.  The basis elements led in position p
        project onto a nonzero ideal of Q[x] in coordinate p, and each such
        coordinate adds one to the rank."""
        self._basis()
        return len(self._reducers)

    def equals(self, other):
        """Same span: both reduced bases agree.  Reduced bases are unique
        and sorted, so they compare as tuples."""
        return (self.vars == other.vars and self.dim == other.dim
                and self._basis() == other._basis())

    def extended(self, gens):
        """The span of this view plus the given generators.  Its basis is
        built by inserting them into this view's basis."""
        seed = self._basis()
        out = self._like(tuple(map(self._unvec, seed)) + tuple(gens))
        out._seed = seed
        return out

    def adjoin(self, vec):
        """The monic normal form of vec and the span extended by it, or a
        zero normal form and this view when vec is already a member."""
        d = self._reduced(vec)
        if not d:
            return self._unvec(d), self
        nf = self._unvec(_mv_monic(d))
        return nf, self.extended([nf])

    def __repr__(self):
        return f"PolySubmodule(dim={self.dim}, gens={len(self.gens)})"


def chain_depths(system, mode="accessibility"):
    """The ascending chain of bracket-generated submodules, one depth at a
    time: yields the generator fields retained at depth 0, 1, 2, ... with
    the module they span together with every depth before, and ends after
    the first depth past 0 that retains nothing.  Each depth also yields
    its fields that landed on a new ray, as {ray_key: field} in the order
    found and taken before reduction: the nonzero generators, first of each
    ray, at depth 0, and after that new_brackets of the operators against
    the previous depth's retained fields, adjoined in that order.

    Depth k+1 only brackets the generators retained at depth k: brackets of
    module combinations split into combinations of the retained brackets and
    of lower-depth generators, so nothing else can enlarge the module.  A
    bracket that vanishes or lies on the ray of a field already adjoined is
    a member; new_brackets drops it, which also leaves the module's basis
    unbuilt until a later bracket needs it.  Generators that are all zero
    span the zero module, stable at depth 0.
    """
    vars = system.vars
    dim = system.dimension
    fresh = {}
    for g in system.generators(mode):
        if not g.is_zero():
            fresh.setdefault(ray_key(g), g)
    seeds = list(fresh.values())
    rays = set(fresh)
    ops = system.operators()
    module = PolySubmodule(vars, dim, seeds)
    frontier = tuple(seeds)
    yield frontier, module, fresh
    while True:
        retained = []
        fresh = new_brackets(ops, frontier, rays)
        for br in fresh.values():
            nf, module = module.adjoin(br)
            if nf:
                retained.append(dict_to_field(vars, dim, nf, br.label))
        yield tuple(retained), module, fresh
        if not retained:
            return
        frontier = retained
