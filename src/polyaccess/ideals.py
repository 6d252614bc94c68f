"""Polynomial ideals: Groebner bases, membership, intersection, invariance
under vector fields, and radicals in the restricted classes this package
can certify exactly."""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import CapReached
from .poly import (
    DEGREVLEX,
    BlockOrder,
    Polynomial,
    VarTable,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_mul,
    squarefree_part,
)
from .rationals import ONE, ZERO
from .vectorfields import lie_derivative


def _negkey(k):
    """Flip a nested integer-tuple sort key so a min-heap pops the maximum."""
    return tuple(-x if isinstance(x, int) else _negkey(x) for x in k)


def _reduce(coeffs, reducers, order):
    """Remainder of a coefficient dict modulo reducers [(lm, lc, coeffs)].

    Monomials are consumed in strictly descending order via a lazy heap, so
    each monomial is processed at most once.
    """
    key = order.key
    work = dict(coeffs)
    remainder = {}
    heap = [(_negkey(key(m)), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue
        del work[m]
        for lm, lc, bc in reducers:
            if mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        q = c / lc
        shift = mono_div(m, lm)
        for bm, bcoef in bc.items():
            if bm == lm:
                continue
            mm = mono_mul(bm, shift)
            v = work.get(mm)
            if v is None:
                work[mm] = -q * bcoef
                heapq.heappush(heap, (_negkey(key(mm)), mm))
            else:
                v = v - q * bcoef
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return remainder


def _make_reducers(basis):
    out = []
    for g in basis:
        lc, lm = g.lt()
        out.append((lm, lc, g.coeffs))
    return out


def normal_form(p, basis):
    """Remainder of p on division by the polynomial list basis."""
    basis = [g for g in basis if not g.is_zero()]
    if p.is_zero() or not basis:
        return p
    rem = _reduce(p.coeffs, _make_reducers(basis), p.order)
    return Polynomial(p.vars, rem, p.order, _clean=False)


def _spoly(f, g):
    cf, mf = f.lt()
    cg, mg = g.lt()
    L = mono_lcm(mf, mg)
    a = f.scale_shift(ONE / cf, mono_div(L, mf))
    b = g.scale_shift(ONE / cg, mono_div(L, mg))
    return a - b


def _autoreduce(polys, order):
    """The inputs, smallest leading monomial first, each reduced against the
    ones already kept and made monic; zero remainders are dropped."""
    key = order.key
    kept = []
    reducers = []
    for g in sorted(polys, key=lambda g: key(g.leading_monomial())):
        rem = _reduce(g.coeffs, reducers, order)
        if rem:
            h = Polynomial(g.vars, rem, order, _clean=False).monic()
            kept.append(h)
            reducers.append((h.leading_monomial(), ONE, h.coeffs))
    return kept


def pair_update(lms, active, pairs, key, product=True):
    """Gebauer-Moeller update for the newest element, index len(lms) - 1.

    lms holds the leading monomials of all elements by index, active the
    elements the new one may pair with, and pairs their heap of pending
    pairs (key(lcm), i, j, lcm).  The new element h drops each old pair
    whose lcm lm(h) divides, unless lm(h) forms that same lcm with one of
    the pair (B-criterion); it keeps one of its own pairs per minimal lcm
    (M/F criteria), none with a coprime leading monomial if product is set
    (product criterion); and it retires the elements whose leading monomial
    lm(h) divides.  Returns the new active list and pair heap.
    """
    k = len(lms) - 1
    hm = lms[k]
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
    pairs.extend((key(L), i, k, L) for L, i, coprime in new if not coprime)
    heapq.heapify(pairs)
    active = [i for i in active if not mono_divides(hm, lms[i])]
    active.append(k)
    return active, pairs


def buchberger(gens, order=None):
    """Reduced monic Groebner basis of the given generators.

    The inputs are autoreduced, then every new element prunes the pairs by
    the Gebauer-Moeller update (pair_update) as it is added.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    order = order or gens[0].order
    key = order.key
    G = []  # every element ever added; retired ones stay for the pair indices
    lms = []
    active = []  # indices of G still in the basis
    pairs = []  # heap of (key(lcm), i, j, lcm)
    reducers = []

    def insert(h):
        nonlocal active, pairs, reducers
        G.append(h)
        lms.append(h.leading_monomial())
        active, pairs = pair_update(lms, active, pairs, key)
        reducers = [(lms[i], ONE, G[i].coeffs) for i in active]

    for g in _autoreduce([g.with_order(order) for g in gens], order):
        insert(g)
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        rem = _reduce(_spoly(G[i], G[j]).coeffs, reducers, order)
        if rem:
            insert(Polynomial(G[i].vars, rem, order, _clean=False).monic())
    return _interreduce([G[i] for i in active], order)


def _interreduce(minimal, order):
    """Reduced basis from a minimal one: every tail fully reduced against
    the others, sorted by descending leading monomial."""
    key = order.key
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        h = normal_form(g, others) if others else g
        out.append(h.monic())
    out.sort(key=lambda g: key(g.leading_monomial()), reverse=True)
    return tuple(out)


class Ideal:
    """Ideal of Q[x] with a cached reduced Groebner basis."""

    __slots__ = ("vars", "order", "gens", "_gb", "_reducers")

    def __init__(self, vars, gens, order=DEGREVLEX):
        if not isinstance(vars, VarTable):
            raise TypeError("vars must be a VarTable")
        cleaned = []
        for g in gens:
            if g.vars != vars:
                raise ValueError("generator lives over a different variable table")
            if not g.is_zero():
                cleaned.append(g.with_order(order))
        self.vars = vars
        self.order = order
        self.gens = tuple(cleaned)
        self._gb = None
        self._reducers = None

    def groebner_basis(self):
        if self._gb is None:
            self._gb = buchberger(self.gens, self.order)
            self._reducers = _make_reducers(self._gb)
        return self._gb

    def normal_form(self, p):
        gb = self.groebner_basis()
        if p.is_zero() or not gb:
            return p.with_order(self.order)
        p = p.with_order(self.order)
        rem = _reduce(p.coeffs, self._reducers, self.order)
        return Polynomial(self.vars, rem, self.order, _clean=False)

    def member(self, p):
        return self.normal_form(p).is_zero()

    def is_zero_ideal(self):
        return not self.groebner_basis()

    def is_proper(self):
        gb = self.groebner_basis()
        return not (gb and gb[0].is_constant())

    def equals(self, other):
        if self.vars != other.vars:
            return False
        a = self.groebner_basis()
        if self.order == other.order:
            b = other.groebner_basis()
        else:
            b = buchberger([g.with_order(self.order) for g in other.gens], self.order)
        return _gb_signature(a) == _gb_signature(b)

    def __repr__(self):
        body = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({body})"


def _gb_signature(gb):
    return frozenset(frozenset(g.coeffs.items()) for g in gb)


def ideal_sum(a, b):
    """Sum of two ideals, generated by their cached reduced bases."""
    return Ideal(a.vars, a.groebner_basis() + b.groebner_basis(), a.order)


def ideal_equal(a, b):
    return a.equals(b)


def _fresh_name(vars, stem):
    name = stem
    k = 0
    while name in vars:
        k += 1
        name = f"{stem}{k}"
    return name


def _lift(vars_ext, index_map, order):
    def up(p):
        return p.map_vars(vars_ext, index_map, order)

    return up


def ideal_intersect(a, b):
    """Intersection via a tag variable: eliminate t from t*a + (1-t)*b."""
    if a.vars != b.vars:
        raise ValueError("ideals live over different variable tables")
    vars = a.vars
    tname = _fresh_name(vars, "_t")
    ext = VarTable((tname,) + vars.names)
    order = BlockOrder(1)
    up = _lift(ext, [i + 1 for i in range(len(vars))], order)
    t = Polynomial.variable(ext, 0, order)
    one = Polynomial.constant(ext, 1, order)
    gens = [t * up(g) for g in a.gens]
    gens += [(one - t) * up(g) for g in b.gens]
    gb = buchberger(gens, order)
    down = [i - 1 for i in range(1, len(ext))]
    down = [0] + down  # slot for t, never used
    out = []
    for g in gb:
        if all(m[0] == 0 for m in g.coeffs):
            out.append(g.map_vars(vars, down, a.order))
    return Ideal(vars, out, a.order)


def in_radical(p, ideal):
    """Membership of p in the radical, by testing whether adjoining 1 - t*p
    makes the ideal improper."""
    if p.is_zero():
        return True
    vars = ideal.vars
    tname = _fresh_name(vars, "_t")
    ext = VarTable((tname,) + vars.names)
    up = _lift(ext, [i + 1 for i in range(len(vars))], DEGREVLEX)
    t = Polynomial.variable(ext, 0)
    one = Polynomial.constant(ext, 1)
    gens = [up(g) for g in ideal.groebner_basis()]
    gens.append(one - t * up(p))
    gb = buchberger(gens, DEGREVLEX)
    return bool(gb) and gb[0].is_constant()


def _monomial_of(p):
    """The exponent tuple if p is a single term, else None."""
    if len(p.coeffs) == 1:
        return next(iter(p.coeffs))
    return None


def _squarefree_monomial(vars, mono, order):
    m = tuple(1 if e else 0 for e in mono)
    return Polynomial(vars, {m: ONE}, order, _clean=False)


def radical_monomial(ideal):
    """Radical of a monomial ideal: squarefree parts of the generators."""
    gb = ideal.groebner_basis()
    gens = []
    for g in gb:
        mono = _monomial_of(g)
        if mono is None:
            raise ValueError("not a monomial ideal")
        gens.append(_squarefree_monomial(ideal.vars, mono, ideal.order))
    return Ideal(ideal.vars, gens, ideal.order)


class Unsupported:
    """Marker result: the restricted real-radical classes do not apply."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Unsupported({self.reason!r})"


def _positive_even_halves(p):
    """If p is a positive rational combination of even monomials, return the
    half-exponent monomials; otherwise None.  The zero polynomial gives []."""
    halves = []
    for m, c in p.coeffs.items():
        if c <= 0 or any(e & 1 for e in m):
            return None
        halves.append(tuple(e >> 1 for e in m))
    return halves


def _principal_real_radical(p, vars, order):
    """Real radical of a principal ideal, or Unsupported.

    Splits the squarefree part into monomial content times remainder; the
    remainder must be constant, affine-linear, or a positive combination of
    even monomials (vanishing exactly where the half-power monomials do).
    """
    s = squarefree_part(p)
    content = s.leading_monomial()
    for m in s.coeffs:
        content = mono_gcd(content, m)
    pieces = []
    if any(content):
        pieces.append(Ideal(vars, [_squarefree_monomial(vars, content, order)], order))
        r = Polynomial(
            vars, {mono_div(m, content): c for m, c in s.coeffs.items()}, order, _clean=False
        )
    else:
        r = s
    if r.is_constant():
        pass
    elif r.total_degree() == 1:
        pieces.append(Ideal(vars, [r], order))
    else:
        halves = _positive_even_halves(r)
        if halves is None:
            return Unsupported(
                "principal generator is not monomial, affine-linear, or a "
                "positive combination of even monomials"
            )
        gens = [Polynomial(vars, {h: ONE}, order, _clean=False) for h in halves]
        piece = Ideal(vars, gens, order)
        pieces.append(radical_monomial(piece))
    if not pieces:
        return Ideal(vars, [Polynomial.constant(vars, 1, order)], order)
    out = pieces[0]
    for piece in pieces[1:]:
        out = ideal_intersect(out, piece)
    return out


def _structural_real_radical_shape(gb):
    """True if the basis is squarefree monomials plus affine-linear forms in
    otherwise unused variables; such an ideal equals its own real radical."""
    mono_vars = set()
    linears = []
    for g in gb:
        mono = _monomial_of(g)
        if mono is not None:
            if any(e > 1 for e in mono):
                return False
            mono_vars.update(i for i, e in enumerate(mono) if e)
        elif g.total_degree() == 1:
            linears.append(g)
        else:
            return False
    seen = set(mono_vars)
    for l in linears:
        supp = set(l.variables_present())
        if supp & seen:
            return False
        seen.update(supp)
    return True


def _even_power_certificate(r, ideal, max_half_power=3):
    """Certificate that r lies in the real radical of ideal: some r^(2m) plus
    a positive combination of even monomials lands in the ideal."""
    power = r * r
    for _ in range(max_half_power):
        nf = ideal.normal_form(power)
        if _positive_even_halves(-nf) is not None:
            return True
        power = power * (r * r)
    return False


def real_radical_restricted(ideal):
    """Real radical within the supported classes, else Unsupported.

    Classes: (a) monomial ideals; (b) principal ideals whose squarefree part
    splits as monomial content times a constant, affine-linear, or positive
    even-monomial combination; (c) several generators whose per-generator
    radicals combine into a squarefree-monomial-plus-disjoint-linear ideal,
    each combined generator certified by an even-power membership witness.
    Generators outside (b) pass into the combination unchanged (they already
    lie in the ideal, hence in its real radical); the shape test decides.
    """
    vars, order = ideal.vars, ideal.order
    gb = ideal.groebner_basis()
    if not gb:
        return Ideal(vars, (), order)
    if not ideal.is_proper():
        return Ideal(vars, [Polynomial.constant(vars, 1, order)], order)
    if all(_monomial_of(g) is not None for g in gb):
        return radical_monomial(ideal)
    if len(gb) == 1:
        return _principal_real_radical(gb[0], vars, order)
    combined_gens = []
    for g in gb:
        piece = _principal_real_radical(g, vars, order)
        if isinstance(piece, Unsupported):
            combined_gens.append(g)
        else:
            combined_gens.extend(piece.groebner_basis())
    combined = Ideal(vars, combined_gens, order)
    cgb = combined.groebner_basis()
    if not combined.is_proper():
        return combined
    if not _structural_real_radical_shape(cgb):
        return Unsupported(
            "combined per-generator radicals are not squarefree monomials "
            "plus disjoint linear forms"
        )
    for r in cgb:
        if not _even_power_certificate(r, ideal) and not in_radical(r, ideal):
            return Unsupported(
                f"no even-power membership certificate found for {r}"
            )
    return combined


class InvarianceResult(NamedTuple):
    invariant: bool
    generator: object = None
    field_label: str = None
    residue: object = None


def is_invariant(ideal, fields):
    """Whether the ideal is closed under Lie differentiation along each
    field; on failure the witness generator and residue are reported."""
    gb = ideal.groebner_basis()
    for p in gb:
        for X in fields:
            d = lie_derivative(X, p.with_order(X.components[0].order))
            nf = ideal.normal_form(d)
            if not nf.is_zero():
                return InvarianceResult(False, p, X.label, nf)
    return InvarianceResult(True)


class ClosureResult(NamedTuple):
    ideal: object
    rounds: tuple  # per-round tuples of generators added


def invariant_closure(ideal, fields, max_rounds=64):
    """Smallest ideal containing the input and closed under Lie derivatives
    along the fields, grown breadth-first one round at a time."""
    current = Ideal(ideal.vars, ideal.groebner_basis(), ideal.order)
    rounds = []
    for _ in range(max_rounds):
        added = []
        added_keys = set()
        base = current
        for p in current.groebner_basis():
            for X in fields:
                d = lie_derivative(X, p.with_order(X.components[0].order))
                nf = base.normal_form(d)
                if not nf.is_zero():
                    h = nf.monic()
                    k = frozenset(h.coeffs.items())
                    if k not in added_keys:
                        added_keys.add(k)
                        added.append(h)
        if not added:
            return ClosureResult(current, tuple(rounds))
        rounds.append(tuple(added))
        current = Ideal(
            current.vars, current.groebner_basis() + tuple(added), current.order
        )
    raise CapReached("invariant closure", max_rounds)
