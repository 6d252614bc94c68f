"""Polynomial ideals: Groebner bases, membership, intersection, gcds and
squarefree parts, invariance under vector fields, and radicals in the
restricted classes this package can certify exactly."""

from __future__ import annotations

from functools import reduce
from math import gcd, isqrt
from typing import NamedTuple

from .errors import CapReached
from .modules import PolySubmodule, module_buchberger
from .poly import (
    Polynomial,
    VarTable,
    _squarefree_by_image,
    _zz_quotient,
    exact_div,
    integer_coeffs,
    mono_div,
    mono_gcd,
    mono_lcm,
)
from .rationals import ONE, Q
from .vectorfields import lie_derivative


class Ideal(PolySubmodule):
    """Ideal of Q[x]: the submodule of Q[x]^1 its generators span, viewed
    through polynomials.  A polynomial p is the vector {(0, m): c} of its
    terms c*m."""

    __slots__ = ("_polys",)

    def __init__(self, vars, gens):
        if not isinstance(vars, VarTable):
            raise TypeError("vars must be a VarTable")
        cleaned = []
        for g in gens:
            if g.vars != vars:
                raise ValueError("generator lives over a different variable table")
            if not g.is_zero():
                cleaned.append(g)
        super().__init__(vars, 1, ())
        self.gens = tuple(cleaned)
        self._polys = None

    def _vec(self, p):
        return {(0, m): c for m, c in p.coeffs.items()}

    def _unvec(self, d):
        return Polynomial(self.vars, {m: c for (_, m), c in d.items()}, _clean=False)

    def _like(self, gens):
        return Ideal(self.vars, gens)

    def groebner_basis(self):
        """The reduced monic basis, sorted by descending leading monomial."""
        if self._polys is None:
            self._polys = tuple(map(self._unvec, self._basis()))
        return self._polys

    def is_proper(self):
        gb = self.groebner_basis()
        return not (gb and gb[0].is_constant())

    def __repr__(self):
        body = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({body})"


def ideal_sum(a, b):
    """Sum of two ideals: b's basis inserted into a's."""
    return a.extended(b.groebner_basis())


def _fresh_name(vars, stem):
    name = stem
    k = 0
    while name in vars:
        k += 1
        name = f"{stem}{k}"
    return name


def ideal_intersect(a, b):
    """Intersection in the module engine.  In Q[x]^2 the vectors (f, f), f
    in a, and (g, 0), g in b, span the (u + v, u) with u in a and v in b.
    Such a vector is (0, u) exactly when u = -v, that is when u lies in a
    and in b.  So the elements of the reduced position-over-term basis led
    in the last position are the (0, u) with u in the reduced basis of
    a ∩ b."""
    if a.vars != b.vars:
        raise ValueError("ideals live over different variable tables")
    gens = [{**d, **{(1, m): c for (_, m), c in d.items()}} for d in map(a._vec, a.gens)]
    gens += map(b._vec, b.gens)
    basis = module_buchberger(gens, 2)
    return Ideal(a.vars, [a._unvec(d) for d in basis if next(iter(d))[0] == 1])


# evaluation points the heuristic gcd tries before poly_gcd falls back
_HEU_TRIES = 6


def _zz_gcd(a, b):
    """gcd over Z of integer polynomials {monomial: int}, not both zero, or
    None when the heuristic gives up (GCDHEU: Char, Geddes and Gonnet, J.
    Symbolic Comput. 7, 1989).  The exact gcd of the primitive parts' values
    at x_k = xi, k the last variable present and xi >= 2*min(|A|, |B|) + 2,
    read in symmetric base xi, is their gcd if its primitive part divides
    both over Z.  Else xi grows as in sympy's dmp_zz_heu_gcd."""
    if not a or not b:
        return a or b
    ca, cb = gcd(*a.values()), gcd(*b.values())
    k = max((i for m in [*a, *b] for i, e in enumerate(m) if e), default=None)
    if k is None:
        return {next(iter(a)): gcd(ca, cb)}
    a = {m: v // ca for m, v in a.items()}
    b = {m: v // cb for m, v in b.items()}
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29
    for _ in range(_HEU_TRIES):
        h = _zz_gcd(_evaluate(a, k, xi), _evaluate(b, k, xi))
        if h is None:
            return None
        g = {}
        for m, v in h.items():
            i = 0
            while v:
                d = (v + xi // 2) % xi - xi // 2
                if d:
                    g[m[:k] + (i,) + m[k + 1:]] = d
                v, i = (v - d) // xi, i + 1
        cg = gcd(*g.values())
        g = {m: v // cg for m, v in g.items()}
        if _zz_quotient(a, g) is not None and _zz_quotient(b, g) is not None:
            return {m: v * gcd(ca, cb) for m, v in g.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(a, k, xi):
    """The integer polynomial a at x_k = xi."""
    out = {}
    for m, v in a.items():
        m2 = m[:k] + (0,) + m[k + 1:]
        out[m2] = out.get(m2, 0) + v * xi ** m[k]
    return {m: v for m, v in out.items() if v}


def poly_gcd(p, q):
    """Monic gcd of p and q: that over Z of p and q scaled to integer
    coefficients (Gauss's lemma), by _zz_gcd at xi >= 2*min(|A|, |B|) + 2,
    certified by trial division at every level.  After _HEU_TRIES points it
    is p*q over the lcm l, the lone element of the reduced basis of
    <p> ∩ <q> (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms)."""
    if p.is_zero() or q.is_zero():
        return (p + q).monic()
    p._check(q)
    g = _zz_gcd(integer_coeffs(p), integer_coeffs(q))
    if g is not None:
        return Polynomial(p.vars, {m: Q(v) for m, v in g.items()}, _clean=False).monic()
    (l,) = ideal_intersect(Ideal(p.vars, [p]), Ideal(q.vars, [q])).groebner_basis()
    return exact_div(p * q, l).monic()


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p (p nonzero).

    A non-constant p is first tried on one fixed line x = a + b*t modulo the
    prime P = poly._P (poly._squarefree_by_image).  Say p = f^2*g over Q
    with f not constant.  Scaled to integer coefficients, p is
    A = c*f^2*g with c an integer and f, g primitive over Z (Gauss's
    lemma).  A's leading form, its homogeneous part of top degree D, is c
    times the product of those of f^2 and g, and its value at b is the t^D
    coefficient of A(a + b*t).  So if the image A(a + b*t) mod P keeps
    degree D, f's leading form is nonzero at b mod P, the image of f is not
    constant, and its square divides the image of A, which then shares a
    factor with its t-derivative.  An image of degree D coprime to its
    derivative therefore proves p squarefree, and p.monic() is the answer.

    Otherwise p is divided by gcd(p, dp/dx_1, ..., dp/dx_n), taken one
    partial derivative at a time with poly_gcd (a heuristic integer gcd
    certified by trial division, else p*q over the lcm) and stopped at the
    first constant gcd.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if p.is_constant():
        return Polynomial.constant(p.vars, 1)
    if _squarefree_by_image(p):
        return p.monic()
    d = p
    for i in p.variables_present():
        if d.is_constant():
            break
        d = poly_gcd(d, p.partial_derivative(i))
    if d.is_constant():
        return p.monic()
    return exact_div(p, d).monic()


def in_radical(p, ideal):
    """Membership of p in the radical, by testing whether adjoining 1 - t*p
    makes the ideal improper."""
    if p.is_zero():
        return True
    vars = ideal.vars
    ext = VarTable((_fresh_name(vars, "_t"),) + vars.names)
    shift = range(1, len(ext))
    t = Polynomial.variable(ext, 0)
    gens = [g.map_vars(ext, shift) for g in ideal.groebner_basis()]
    gens.append(1 - t * p.map_vars(ext, shift))
    return not Ideal(ext, gens).is_proper()


def _squarefree_monomial(vars, mono):
    m = tuple(1 if e else 0 for e in mono)
    return Polynomial(vars, {m: ONE}, _clean=False)


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


def _principal_real_radical(p, vars):
    """Real radical of <p>, or Unsupported.

    p is x^low times a rest with no variable factor, x^low its monomial
    content.  The real zeros of p are those of x^low and those of s, the
    squarefree part of the rest, so the real radical is <c> ∩ √ᴿ<s>, with c
    the product of low's variables; s is coprime to c.  A constant s gives
    <c>.  An affine-linear s spans a real prime, and coprime principal
    ideals meet in their product <c*s>.  A positive combination s of even
    monomials x^(2h) vanishes on R^n exactly where every x^h does, so √ᴿ<s>
    is the radical of the monomial ideal of the x^h, and its intersection
    with <c> is spanned by the squarefree parts of lcm(x^low, x^h).
    """
    low = reduce(mono_gcd, p.coeffs)
    c = _squarefree_monomial(vars, low)
    rest = Polynomial(vars, {mono_div(m, low): v for m, v in p.coeffs.items()}, _clean=False)
    if rest.is_constant():
        return Ideal(vars, [c])
    s = squarefree_part(rest)
    if s.total_degree() == 1:
        return Ideal(vars, [c * s])
    halves = _positive_even_halves(s)
    if halves is None:
        return Unsupported(
            "principal generator is not monomial, affine-linear, or a "
            "positive combination of even monomials"
        )
    return Ideal(vars, [_squarefree_monomial(vars, mono_lcm(low, h)) for h in halves])


def _structural_real_radical_shape(gb):
    """True if the basis is squarefree monomials plus affine-linear forms in
    otherwise unused variables; such an ideal equals its own real radical."""
    seen = set()
    linears = []
    for g in gb:
        if len(g.coeffs) == 1:
            (mono,) = g.coeffs
            if any(e > 1 for e in mono):
                return False
            seen.update(i for i, e in enumerate(mono) if e)
        elif g.total_degree() == 1:
            linears.append(g)
        else:
            return False
    for l in linears:
        supp = set(l.variables_present())
        if supp & seen:
            return False
        seen.update(supp)
    return True


def real_radical_restricted(ideal):
    """Real radical within the supported classes, else Unsupported.

    Each basis element g gives a piece: √ᴿ<g> (_principal_real_radical)
    where that is supported, else <g> itself.  A principal ideal returns its
    piece.  Otherwise J is the sum of the pieces, and I ⊆ J ⊆ √ᴿI: each g
    lies in its piece, and each piece lies in √ᴿ<g> ⊆ √ᴿI.  Taking real
    radicals, √ᴿI ⊆ √ᴿJ ⊆ √ᴿ√ᴿI = √ᴿI.  So J is the real radical of I when
    it is its own real radical: when it is the unit ideal, or when its basis
    is squarefree monomials plus disjoint affine-linear forms
    (_structural_real_radical_shape).  Otherwise nothing is claimed.

    Since each g lies in its piece, J is also I plus the supported pieces,
    so its basis is built by inserting their generators into I's basis, and
    J is I itself when no piece is supported.
    """
    vars = ideal.vars
    gb = ideal.groebner_basis()
    if not gb:
        return Ideal(vars, ())
    if not ideal.is_proper():
        return Ideal(vars, [Polynomial.constant(vars, 1)])
    pieces = [_principal_real_radical(g, vars) for g in gb]
    if len(pieces) == 1:
        return pieces[0]
    gens = [h for piece in pieces if not isinstance(piece, Unsupported) for h in piece.gens]
    combined = ideal.extended(gens) if gens else ideal
    if combined.is_proper() and not _structural_real_radical_shape(combined.groebner_basis()):
        return Unsupported(
            "combined per-generator radicals are not squarefree monomials "
            "plus disjoint linear forms"
        )
    return combined


def lie_residues(ideal, gens, fields):
    """(g, X, normal form) for each L_X g, g in gens and X in fields in that
    order, that leaves the ideal."""
    for g in gens:
        for X in fields:
            nf = ideal.normal_form(lie_derivative(X, g))
            if not nf.is_zero():
                yield g, X, nf


class InvarianceResult(NamedTuple):
    invariant: bool
    generator: object = None
    field_label: str = None
    residue: object = None


def is_invariant(ideal, fields):
    """Whether the ideal is closed under Lie differentiation along each
    field; on failure the witness generator and residue are reported."""
    for p, X, nf in lie_residues(ideal, ideal.groebner_basis(), fields):
        return InvarianceResult(False, p, X.label, nf)
    return InvarianceResult(True)


class ClosureResult(NamedTuple):
    ideal: object
    rounds: tuple  # per-round tuples of generators added


def invariant_closure(ideal, fields, max_rounds=64):
    """Smallest ideal containing the input and closed under Lie derivatives
    along the fields, grown breadth-first one round at a time.

    Round 1 differentiates the input's basis; each later round only the
    generators the round before added.  An ideal is invariant exactly when
    L_X maps a generating set into it, since L_X(a*g) = L_X(a)*g + a*L_X(g),
    and every earlier generator's derivatives already lie in the ideal its
    own round extended to."""
    current = ideal
    frontier = ideal.groebner_basis()
    rounds = []
    for _ in range(max_rounds):
        residues = lie_residues(current, frontier, fields)
        frontier = tuple(dict.fromkeys(nf.monic() for _, _, nf in residues))
        if not frontier:
            return ClosureResult(current, tuple(rounds))
        rounds.append(frontier)
        current = current.extended(frontier)
    raise CapReached("invariant closure", max_rounds)
