"""Checks of the program's answers against the sympy oracle and against
properties the method must have.  Nothing here compares with a stored copy of
earlier output: every expected value is recomputed from the inputs."""

import sympy as sp

QQ = sp.QQ


class Space:
    """A polynomial ring Q[x1..xn] on the sympy side."""

    def __init__(self, names):
        self.names = tuple(names)
        self.symbols = tuple(sp.symbols(self.names))
        self._locals = dict(zip(self.names, self.symbols))

    def poly(self, text):
        """Polynomial from the program's printed form, e.g. ``x1^2 - 1/2*x2``."""
        expr = sp.sympify(text.replace("^", "**"), locals=self._locals)
        return sp.Poly(expr, *self.symbols, domain=QQ)

    def from_terms(self, terms):
        """Polynomial from (coefficient, exponent tuple) pairs."""
        acc = {}
        for c, mono in terms:
            acc[mono] = acc.get(mono, 0) + c
        return sp.Poly.from_dict(acc, *self.symbols, domain=QQ)

    def field(self, texts):
        return [self.poly(t) for t in texts]

    def lie_derivative(self, field, p):
        out = sp.Poly(0, *self.symbols, domain=QQ)
        for comp, x in zip(field, self.symbols):
            if not comp.is_zero:
                out += comp * p.diff(x)
        return out

    def bracket(self, a, b):
        """[a, b] = Db a - Da b (the sign does not change any rank)."""
        return [self.lie_derivative(a, bi) - self.lie_derivative(b, ai)
                for ai, bi in zip(a, b)]


def is_zero_field(field):
    return all(c.is_zero for c in field)


def _key(field):
    return tuple(tuple(c.terms()) for c in field)


def bracket_family(space, generators, operators, depth):
    """Every iterated bracket up to the depth: generation k+1 brackets each
    operator with each field of generation k.  Zero fields and exact repeats
    are dropped, which leaves the pointwise span unchanged."""
    seen = set()
    generation = []
    for g in generators:
        key = _key(g)
        if not is_zero_field(g) and key not in seen:
            seen.add(key)
            generation.append(g)
    family = list(generation)
    for _ in range(depth):
        nxt = []
        for op in operators:
            for w in generation:
                b = space.bracket(op, w)
                key = _key(b)
                if not is_zero_field(b) and key not in seen:
                    seen.add(key)
                    nxt.append(b)
        family.extend(nxt)
        generation = nxt
    return family


def rank_at(family, point):
    """Exact rank of the evaluated family (fields as columns) at a point."""
    if not family:
        return 0
    return sp.Matrix([[c(*point) for c in f] for f in family]).rank()


def vanishes_at(generators, point):
    return all(g(*point) == 0 for g in generators)


def rank_mismatches(family, threshold, generators, points):
    """Points where 'rank below the threshold' and 'every generator
    vanishes' disagree; the method promises there are none."""
    return [p for p in points
            if (rank_at(family, p) < threshold) != vanishes_at(generators, p)]


def invariance_failures(space, generators, operators):
    """Lie derivatives of generators along operators that do not reduce to 0
    modulo sympy's Groebner basis of the generators."""
    if not generators:
        return []
    basis = sp.groebner([g.as_expr() for g in generators], *space.symbols,
                        order="grevlex", domain=QQ)
    failures = []
    for g in generators:
        for k, X in enumerate(operators):
            d = space.lie_derivative(X, g)
            if not d.is_zero and not basis.contains(d.as_expr()):
                failures.append((str(g.as_expr()), k))
    return failures


def is_unit_ideal(space, generators):
    basis = sp.groebner([g.as_expr() for g in generators], *space.symbols,
                        order="grevlex", domain=QQ)
    return list(basis.exprs) == [1]


def in_radical(space, p, generators):
    """Rabinowitsch test: p is in the radical iff <gens, 1 - t p> = <1>."""
    t = sp.Dummy("t")
    exprs = [g.as_expr() for g in generators] + [1 - t * p.as_expr()]
    basis = sp.groebner(exprs, t, *space.symbols, order="grevlex", domain=QQ)
    return list(basis.exprs) == [1]
