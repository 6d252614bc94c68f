"""Lifting systems with declared transcendental parts (sines, cosines,
reciprocals of polynomials) into polynomial systems on an extended state,
verifying the lift, and pulling singular sets back to the image variety."""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .errors import ClosureError
from .ideals import Ideal, _positive_even_halves, ideal_sum, in_radical, lie_residues
from .poly import Polynomial, VarTable, _mul_into
from .rationals import ONE, Q
from .vectorfields import SystemSpec, VectorField


class Entry:
    """One target coordinate of an immersion: a source coordinate, a
    polynomial in the source coordinates, sin or cos of a source variable,
    or the reciprocal of a polynomial in earlier target variables."""

    __slots__ = ("kind", "arg", "expr")

    KINDS = ("coordinate", "polynomial", "sin", "cos", "reciprocal")

    def __init__(self, kind, arg=None, expr=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown entry kind {kind!r}")
        if kind in ("coordinate", "sin", "cos"):
            if not isinstance(arg, int):
                raise ValueError(f"{kind} entry needs a source variable index")
        elif expr is None or not isinstance(expr, Polynomial):
            raise ValueError(f"{kind} entry needs a polynomial expression")
        self.kind = kind
        self.arg = arg
        self.expr = expr

    def describe(self, names):
        """The entry's right-hand side written over `names`, a table of the
        target state's length whose first names are the source coordinates'.
        Coordinate, sin and cos entries read only those, so the source table
        serves for them."""
        if self.kind == "coordinate":
            return names.names[self.arg]
        if self.kind in ("sin", "cos"):
            return f"{self.kind}({names.names[self.arg]})"
        expr = Polynomial(names, self.expr.coeffs, _clean=False)
        return str(expr) if self.kind == "polynomial" else f"1/({expr})"

    def __eq__(self, other):
        if not isinstance(other, Entry):
            return NotImplemented
        return (self.kind, self.arg, self.expr) == (other.kind, other.arg, other.expr)

    def __hash__(self):
        return hash((self.kind, self.arg, self.expr))


class ImmersionMap:
    """Map T from the source state into an extended polynomial state.  The
    first n entries must be the source coordinates themselves; every later
    entry adds one transcendental atom or polynomial coordinate."""

    __slots__ = ("source_vars", "target_vars", "entries", "_relations", "_ideal", "_rows")

    def __init__(self, source_vars, target_vars, entries):
        if not isinstance(source_vars, VarTable):
            source_vars = VarTable(source_vars)
        if not isinstance(target_vars, VarTable):
            target_vars = VarTable(target_vars)
        entries = tuple(entries)
        n, nstar = len(source_vars), len(target_vars)
        if len(entries) != nstar:
            raise ValueError(f"{nstar} target variables but {len(entries)} entries")
        if nstar < n:
            raise ValueError("target state cannot be smaller than the source state")
        for i in range(n):
            e = entries[i]
            if e.kind != "coordinate" or e.arg != i:
                raise ValueError(
                    f"entry {i + 1} must be the source coordinate "
                    f"{source_vars.names[i]}"
                )
        seen = set()
        for j, e in enumerate(entries):
            if j >= n and e.kind == "coordinate":
                raise ValueError("source coordinates may appear only as the prefix")
            if e.kind in ("sin", "cos"):
                if not 0 <= e.arg < n:
                    raise ValueError(f"{e.kind} argument out of range")
                key = (e.kind, e.arg)
                if key in seen:
                    raise ValueError(f"duplicate entry {e.describe(source_vars)}")
                seen.add(key)
            elif e.kind == "polynomial":
                if any(i >= n for i in e.expr.variables_present()):
                    raise ValueError("polynomial entry may use source coordinates only")
            elif e.kind == "reciprocal":
                if e.expr.is_zero():
                    raise ValueError("reciprocal of zero")
                if any(i >= j for i in e.expr.variables_present()):
                    raise ValueError(
                        "reciprocal denominator may use only earlier target variables"
                    )
        self.source_vars = source_vars
        self.target_vars = target_vars
        self.entries = entries
        # built once on first use and shared, since the map never changes
        self._relations = self._ideal = self._rows = None

    @property
    def source_dimension(self):
        return len(self.source_vars)

    @property
    def target_dimension(self):
        return len(self.target_vars)

    def companion(self, j):
        """Index of cos(v) for a sin(v) entry and vice versa, or None."""
        e = self.entries[j]
        want = {"sin": "cos", "cos": "sin"}[e.kind]
        for i, other in enumerate(self.entries):
            if other.kind == want and other.arg == e.arg:
                return i
        return None

    def relation_generators(self):
        """Defining relations of the image variety: sin^2 + cos^2 = 1 per
        angle, z*q = 1 per reciprocal, z = p per polynomial coordinate."""
        if self._relations is not None:
            return self._relations
        vars = self.target_vars
        one = Polynomial.constant(vars, 1)
        gens = []
        done_angles = set()
        for j, e in enumerate(self.entries):
            z = Polynomial.variable(vars, j)
            if e.kind in ("sin", "cos"):
                if e.arg in done_angles:
                    continue
                mate = self.companion(j)
                if mate is None:
                    continue
                w = Polynomial.variable(vars, mate)
                gens.append(z * z + w * w - one)
                done_angles.add(e.arg)
            elif e.kind == "reciprocal":
                gens.append(z * e.expr - one)
            elif e.kind == "polynomial":
                gens.append(z - e.expr)
        self._relations = tuple(gens)
        return self._relations

    def relation_ideal(self):
        """The ideal of the relations; one object per map, so its basis is
        built once."""
        if self._ideal is None:
            self._ideal = Ideal(self.target_vars, self.relation_generators())
        return self._ideal


class AnalyticSystem:
    """Control-affine system whose right-hand sides are polynomial in the
    source coordinates and the immersion's transcendental atoms; components
    are stored over the target variables (atoms resolved to their z's)."""

    __slots__ = ("map", "drift", "inputs", "name")

    def __init__(self, map, drift, inputs, name=None):
        n = map.source_dimension
        inputs = tuple(inputs)
        if not inputs:
            raise ValueError("system needs at least one input field")
        for h in (drift,) + inputs:
            if len(h) != n:
                raise ValueError("field must have one component per source coordinate")
            if h.vars != map.target_vars:
                raise ValueError("field components must live over the target variables")
        self.map = map
        self.drift = drift
        self.inputs = inputs
        self.name = name

    @property
    def dimension(self):
        return len(self.map.source_vars)


class ImmersedSystem:
    """Polynomial lift of an analytic system, with its provenance."""

    __slots__ = ("system", "source")

    def __init__(self, system, source):
        self.system = system
        self.source = source

    @property
    def map(self):
        return self.source.map


def jacobian(map):
    """Rows d(T_j)/dx_t of the map, in entry order, as tuples of polynomials
    over the target variables; built once per map.  A reciprocal 1/q
    differentiates to -(1/q)^2 dq, where q uses only earlier targets, so its
    row sums their rows by the chain rule; sin and cos need their companion
    entry."""
    if map._rows is not None:
        return map._rows
    vars = map.target_vars
    n = map.source_dimension
    zero = Polynomial.zero(vars)
    rows = []
    for j, e in enumerate(map.entries):
        if e.kind == "coordinate":
            row = [Polynomial.constant(vars, 1 if e.arg == t else 0) for t in range(n)]
        elif e.kind == "polynomial":
            row = [e.expr.partial_derivative(t) for t in range(n)]
        elif e.kind in ("sin", "cos"):
            mate = map.companion(j)
            if mate is None:
                want = "cos" if e.kind == "sin" else "sin"
                raise ClosureError(
                    f"{want}({map.source_vars.names[e.arg]})",
                    f"derivative of {e.describe(map.source_vars)} needs the "
                    f"companion {want} entry, which the map does not declare",
                )
            d = Polynomial.variable(vars, mate)
            d = -d if e.kind == "cos" else d
            row = [d if t == e.arg else zero for t in range(n)]
        else:  # reciprocal
            q = e.expr
            dq = [zero] * n
            for s in q.variables_present():
                q_s = q.partial_derivative(s)
                dq = [a + q_s * r for a, r in zip(dq, rows[s])]
            z = Polynomial.variable(vars, j)
            row = [-(z * z) * a for a in dq]
        rows.append(tuple(row))
    map._rows = tuple(rows)
    return map._rows


def pushforward(rows, field):
    """The source field pushed forward along a map with Jacobian rows:
    component j is sum_t rows[j][t] * field_t; the label is kept."""
    comps = []
    for row in rows:
        acc = {}
        for d, h in zip(row, field.components):
            d._check(h)
            _mul_into(acc, d.coeffs, h.coeffs)
        comps.append(Polynomial(field.vars, acc, _clean=False))
    return VectorField(comps, field.label)


def derive_immersed(asys):
    """Push the analytic system forward along its immersion map; raises a
    closure error when a derivative leaves the declared atom dictionary."""
    rows = jacobian(asys.map)
    drift = pushforward(rows, asys.drift)
    inputs = [pushforward(rows, g) for g in asys.inputs]
    system = SystemSpec(asys.map.target_vars, drift, inputs, name=asys.name)
    return ImmersedSystem(system, asys)


class VerifyResult(NamedTuple):
    ok: bool
    kind: str = None  # "tangency" or "pushforward"
    index: int = None  # relation index, or component index
    field_label: str = None
    residue: object = None


def verify_immersion(asys, imm):
    """Check the lift: every lifted field must be tangent to the image
    variety, and must match the chain-rule pushforward of its source field
    componentwise modulo the relation ideal."""
    map = asys.map
    R = map.relation_ideal()
    relations = map.relation_generators()
    lifted = (imm.system.drift,) + imm.system.inputs
    for field in lifted:
        for rel, _, nf in lie_residues(R, relations, (field,)):
            return VerifyResult(False, "tangency", relations.index(rel), field.label, nf)
    rows = jacobian(map)
    for source, given in zip((asys.drift,) + asys.inputs, lifted):
        ours = pushforward(rows, source)
        for j in range(map.target_dimension):
            nf = R.normal_form(ours.components[j] - given.components[j])
            if not nf.is_zero():
                return VerifyResult(False, "pushforward", j, given.label, nf)
    return VerifyResult(True)


class PullBackResult(NamedTuple):
    ideal: object
    empty: bool
    grade: str  # "algebraic proof" or "sampled"
    detail: str
    witness: tuple = None


_SPECIAL_PARAMS = (Q(0), Q(1), Q(-1), Q(1, 2), Q(-1, 2), Q(2), Q(-2), Q(1, 3))


def _image_points(map, count, seed):
    """Rational points of the relation variety, angles drawn from the
    rational circle parametrization; parameter zero pins the angle variable
    to zero so the point lies exactly on the image."""
    rng = Random(seed)
    n, nstar = map.source_dimension, map.target_dimension
    angle_of = {}
    for j, e in enumerate(map.entries):
        if e.kind in ("sin", "cos"):
            angle_of.setdefault(e.arg, {})[e.kind] = j
    points = []
    for trial in range(count):
        structured = trial < len(_SPECIAL_PARAMS)
        values = [None] * nstar
        ok = True
        for i in range(n):
            if i in angle_of:
                t = _SPECIAL_PARAMS[trial] if structured else Q(rng.randint(-9, 9), 10)
                s = Q(2) * t / (1 + t * t)
                c = (1 - t * t) / (1 + t * t)
                values[i] = Q(0) if t == 0 else Q(rng.randint(-3, 3))
                if "sin" in angle_of[i]:
                    values[angle_of[i]["sin"]] = s
                if "cos" in angle_of[i]:
                    values[angle_of[i]["cos"]] = c
            else:
                values[i] = Q(0) if structured else Q(rng.randint(-5, 5))
        for j in range(n, nstar):
            if values[j] is not None:
                continue
            e = map.entries[j]
            padded = [v if v is not None else Q(0) for v in values]
            if e.kind == "polynomial":
                values[j] = e.expr.evaluate(padded)
            else:  # reciprocal: the first loop set every sin and cos entry
                q = e.expr.evaluate(padded)
                if q == 0:
                    ok = False
                    break
                values[j] = ONE / q
        if ok:
            points.append(tuple(values))
    return points


_PULL_BACK_SAMPLES = 60


def pull_back_singular(imm, singular, seed=0):
    """Intersect a singular ideal on the lifted state with the image variety
    (as the ideal sum with the relations) and try to certify emptiness."""
    map = imm.map
    R = map.relation_ideal()
    total = ideal_sum(singular, R)
    if not total.is_proper():
        return PullBackResult(total, True, "algebraic proof", "the sum contains 1")
    origin = (0,) * len(total.vars)
    for g in total.groebner_basis():
        # a positive constant plus positive even terms has no real zero
        if origin in g.coeffs and _positive_even_halves(g) is not None:
            return PullBackResult(
                total, True, "algebraic proof",
                f"generator {g} is positive for every real point",
            )
    gens = total.groebner_basis()
    for p in _image_points(map, _PULL_BACK_SAMPLES, seed):
        point = list(p)
        if all(g.evaluate(point) == 0 for g in gens):
            return PullBackResult(
                total, False, "sampled",
                "a sampled image point lies in the singular set", p,
            )
    return PullBackResult(
        total, True, "sampled",
        f"none of {_PULL_BACK_SAMPLES} sampled image points meets the singular set",
    )


def vanishing_coordinates(ideal):
    """Names of target variables that vanish on the ideal's whole variety,
    certified by radical membership."""
    names = []
    for i, name in enumerate(ideal.vars.names):
        z = Polynomial.variable(ideal.vars, i)
        if in_radical(z, ideal):
            names.append(name)
    return tuple(names)
