"""Polynomial vector fields, Lie operations and the new-ray bracket step."""

from __future__ import annotations

from math import gcd, lcm

from .poly import Polynomial, VarTable, _mul_into


class VectorField:
    """Tuple of polynomial components over one variable table, with a label
    recording how the field was produced (generator name or bracket word)."""

    __slots__ = ("components", "label")

    def __init__(self, components, label):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        vars = components[0].vars
        for c in components[1:]:
            if c.vars != vars:
                raise ValueError("components live over different variable tables")
        self.components = components
        self.label = label

    @property
    def vars(self):
        return self.components[0].vars

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        return isinstance(other, VectorField) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def evaluate(self, point):
        return tuple(c.evaluate(point) for c in self.components)

    def __str__(self):
        body = ", ".join(str(c) for c in self.components)
        return f"{self.label} = ({body})"

    def __repr__(self):
        return f"VectorField({self})"


def _add_lie_terms(acc, field, p, sign):
    """acc += sign * sum_i dp/dx_i * field_i, on one coefficient dict."""
    for i, comp in enumerate(field.components):
        if comp.coeffs:
            dp = p.partial_derivative(i)
            if dp.coeffs:
                p._check(comp)
                _mul_into(acc, dp.coeffs, comp.coeffs, sign)


def lie_derivative(field, p):
    """Derivative of the scalar p along field: sum_i dp/dx_i * field_i."""
    acc = {}
    _add_lie_terms(acc, field, p, 1)
    return Polynomial(p.vars, acc, _clean=False)


def lie_bracket(f, g):
    """Bracket [f, g], labelled "[f,g]"; component j is L_f(g_j) - L_g(f_j),
    summed into one coefficient dict."""
    if f.vars != g.vars or len(f) != len(g):
        raise ValueError("bracket of fields over different spaces")
    comps = []
    for fj, gj in zip(f, g):
        gj._check(fj)
        acc = {}
        _add_lie_terms(acc, f, gj, 1)
        _add_lie_terms(acc, g, fj, -1)
        comps.append(Polynomial(gj.vars, acc, _clean=False))
    return VectorField(comps, f"[{f.label},{g.label}]")


class SystemSpec:
    """Control-affine system dx/dt = f(x) + sum_i u_i g_i(x)."""

    __slots__ = ("vars", "drift", "inputs", "name")

    def __init__(self, vars, drift, inputs, name=None):
        if not isinstance(vars, VarTable):
            vars = VarTable(vars)
        if drift.vars != vars or len(drift) != len(vars):
            raise ValueError("drift must have one component per state variable")
        inputs = tuple(inputs)
        if not inputs:
            raise ValueError("system needs at least one input field")
        for g in inputs:
            if g.vars != vars or len(g) != len(vars):
                raise ValueError("input field must have one component per state variable")
        self.vars = vars
        self.drift = drift
        self.inputs = inputs
        self.name = name

    @property
    def dimension(self):
        return len(self.vars)

    def generators(self, mode):
        """Depth-0 fields: drift and inputs, or inputs alone in strong mode."""
        if mode == "accessibility":
            return (self.drift,) + self.inputs
        if mode == "strong":
            return self.inputs
        raise ValueError(f"unknown mode {mode!r}")

    def operators(self):
        """Fields bracketed against each generation; zero drift is skipped."""
        ops = [] if self.drift.is_zero() else [self.drift]
        return tuple(ops) + self.inputs


def ray_key(field):
    """Key shared by exactly the nonzero rational multiples of a nonzero
    field: its primitive integer vector of ((position, exponents), int)
    terms, with denominators cleared, the numerators' gcd divided out and
    the sign fixed so the largest (position, exponents) term is positive."""
    terms = [((i, m), c) for i, comp in enumerate(field.components)
             for m, c in comp.coeffs.items()]
    den = lcm(*[c.denominator for _, c in terms])
    ints = [(t, c.numerator * (den // c.denominator)) for t, c in terms]
    g = gcd(*[c for _, c in ints])
    if max(ints)[1] < 0:
        g = -g
    return frozenset([(t, c // g) for t, c in ints])


def new_brackets(ops, fields, rays):
    """The brackets [X, e], X in ops and e in fields in that order, that are
    nonzero and lie on no ray in rays, first of each ray, as {ray_key: field}.
    Their rays are added to rays."""
    fresh = {}
    for X in ops:
        for e in fields:
            br = lie_bracket(X, e)
            if br.is_zero():
                continue
            ray = ray_key(br)
            if ray not in rays:
                rays.add(ray)
                fresh[ray] = br
    return fresh
