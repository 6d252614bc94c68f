"""Polynomial ideals: Groebner bases, membership, intersection, invariance
under vector fields, and radicals in the restricted classes this package
can certify exactly."""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapReached
from .modules import PolySubmodule, module_buchberger
from .poly import Polynomial, VarTable, mono_div, mono_gcd, squarefree_part
from .rationals import ONE
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


def buchberger(gens):
    """Reduced monic Groebner basis of the given polynomials, sorted by
    descending leading monomial."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    return Ideal(gens[0].vars, gens).groebner_basis()


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
    gb = buchberger(gens)
    return bool(gb) and gb[0].is_constant()


def _monomial_of(p):
    """The exponent tuple if p is a single term, else None."""
    if len(p.coeffs) == 1:
        return next(iter(p.coeffs))
    return None


def _squarefree_monomial(vars, mono):
    m = tuple(1 if e else 0 for e in mono)
    return Polynomial(vars, {m: ONE}, _clean=False)


def radical_monomial(ideal):
    """Radical of a monomial ideal: squarefree parts of the generators."""
    gb = ideal.groebner_basis()
    gens = []
    for g in gb:
        mono = _monomial_of(g)
        if mono is None:
            raise ValueError("not a monomial ideal")
        gens.append(_squarefree_monomial(ideal.vars, mono))
    return Ideal(ideal.vars, gens)


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
        pieces.append(Ideal(vars, [_squarefree_monomial(vars, content)]))
        r = Polynomial(vars, {mono_div(m, content): c for m, c in s.coeffs.items()}, _clean=False)
    else:
        r = s
    if r.is_constant():
        pass
    elif r.total_degree() == 1:
        pieces.append(Ideal(vars, [r]))
    else:
        halves = _positive_even_halves(r)
        if halves is None:
            return Unsupported(
                "principal generator is not monomial, affine-linear, or a "
                "positive combination of even monomials"
            )
        gens = [Polynomial(vars, {h: ONE}, _clean=False) for h in halves]
        piece = Ideal(vars, gens)
        pieces.append(radical_monomial(piece))
    if not pieces:
        return Ideal(vars, [Polynomial.constant(vars, 1)])
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
    vars = ideal.vars
    gb = ideal.groebner_basis()
    if not gb:
        return Ideal(vars, ())
    if not ideal.is_proper():
        return Ideal(vars, [Polynomial.constant(vars, 1)])
    if all(_monomial_of(g) is not None for g in gb):
        return radical_monomial(ideal)
    if len(gb) == 1:
        return _principal_real_radical(gb[0], vars)
    combined_gens = []
    for g in gb:
        piece = _principal_real_radical(g, vars)
        if isinstance(piece, Unsupported):
            combined_gens.append(g)
        else:
            combined_gens.extend(piece.groebner_basis())
    combined = Ideal(vars, combined_gens)
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
    along the fields, grown breadth-first one round at a time."""
    current = ideal
    rounds = []
    for _ in range(max_rounds):
        residues = lie_residues(current, current.groebner_basis(), fields)
        added = tuple(dict.fromkeys(nf.monic() for _, _, nf in residues))
        if not added:
            return ClosureResult(current, tuple(rounds))
        rounds.append(added)
        current = current.extended(added)
    raise CapReached("invariant closure", max_rounds)
