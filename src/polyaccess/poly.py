"""Multivariate polynomials over Q with a fixed monomial order.

Representation: sparse dict keyed by dense exponent tuples (one slot per
variable), exact rational coefficients, no floats anywhere.  The term list
exposed by Polynomial.terms is sorted strictly descending in the active
order, so equal polynomials have identical visible representations and the
printed form is canonical.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .rationals import ONE, Q, ZERO

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class VarTable:
    """Ordered set of distinct variable names; the order is fixed for life."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"malformed variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({list(self.names)!r})"


class MonomialOrder:
    """Total order on exponent tuples: degrevlex (default), deglex or lex,
    optionally composed with a permutation of the variables."""

    KINDS = ("degrevlex", "deglex", "lex")

    __slots__ = ("kind", "permutation")

    def __init__(self, kind="degrevlex", permutation=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.permutation = None if permutation is None else tuple(permutation)
        if self.permutation is not None:
            if sorted(self.permutation) != list(range(len(self.permutation))):
                raise ValueError("permutation must reorder 0..n-1")

    def key(self, mono):
        """Sort key; larger key = larger monomial."""
        if self.permutation is not None:
            mono = tuple(mono[i] for i in self.permutation)
        if self.kind == "lex":
            return mono
        if self.kind == "deglex":
            return (sum(mono), mono)
        rev = tuple(-e for e in reversed(mono))
        return (sum(mono), rev)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.permutation == other.permutation
        )

    def __hash__(self):
        return hash((self.kind, self.permutation))

    def __repr__(self):
        if self.permutation is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, {self.permutation!r})"


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")
DEGLEX = MonomialOrder("deglex")


class BlockOrder:
    """Degrevlex on the first `head` variables, then degrevlex on the rest.

    Internal elimination order (tag-variable tricks); not part of the
    public order surface, but satisfies the same key() protocol.
    """

    __slots__ = ("head",)

    def __init__(self, head):
        self.head = head

    def key(self, mono):
        h = self.head
        a, b = mono[:h], mono[h:]
        return (sum(a), tuple(-e for e in reversed(a)), sum(b), tuple(-e for e in reversed(b)))

    def __eq__(self, other):
        return isinstance(other, BlockOrder) and self.head == other.head

    def __hash__(self):
        return hash(("block", self.head))

    def __repr__(self):
        return f"BlockOrder({self.head})"


# Monomials are plain exponent tuples.

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


class Polynomial:
    """Immutable sparse polynomial tied to a VarTable and a MonomialOrder."""

    __slots__ = ("vars", "order", "coeffs", "_lt", "_hash")

    def __init__(self, vars, coeffs, order=DEGREVLEX, _clean=True):
        self.vars = vars
        self.order = order
        if _clean:
            n = len(vars)
            cleaned = {}
            for mono, c in coeffs.items():
                if len(mono) != n:
                    raise ValueError(f"exponent tuple {mono} has wrong length for {vars}")
                c = Q(c)
                if c:
                    cleaned[tuple(mono)] = c
            coeffs = cleaned
        self.coeffs = coeffs
        self._lt = None
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, order=DEGREVLEX):
        return cls(vars, {}, order, _clean=False)

    @classmethod
    def constant(cls, vars, value, order=DEGREVLEX):
        value = Q(value)
        if not value:
            return cls.zero(vars, order)
        return cls(vars, {(0,) * len(vars): value}, order, _clean=False)

    @classmethod
    def variable(cls, vars, which, order=DEGREVLEX):
        i = vars.index(which) if isinstance(which, str) else which
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: ONE}, order, _clean=False)

    @classmethod
    def from_terms(cls, vars, terms, order=DEGREVLEX):
        """terms: iterable of (coefficient, exponent tuple)."""
        coeffs = {}
        for c, mono in terms:
            mono = tuple(mono)
            coeffs[mono] = coeffs.get(mono, ZERO) + Q(c)
        return cls(vars, coeffs, order)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        """Term list [(coefficient, monomial), ...], strictly descending."""
        key = self.order.key
        return tuple(
            (self.coeffs[m], m) for m in sorted(self.coeffs, key=key, reverse=True)
        )

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or (len(self.coeffs) == 1 and not any(next(iter(self.coeffs))))

    def constant_value(self):
        if not self.coeffs:
            return ZERO
        mono = (0,) * len(self.vars)
        return self.coeffs.get(mono, ZERO)

    def total_degree(self):
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def degree_in(self, i):
        if not self.coeffs:
            return -1
        return max(m[i] for m in self.coeffs)

    def lt(self):
        """(coefficient, monomial) of the leading term in the active order."""
        if self._lt is None:
            if not self.coeffs:
                raise ValueError("zero polynomial has no leading term")
            key = self.order.key
            mono = max(self.coeffs, key=key)
            self._lt = (self.coeffs[mono], mono)
        return self._lt

    def leading_coefficient(self):
        return self.lt()[0]

    def leading_monomial(self):
        return self.lt()[1]

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.lt()[0]
        if lc == ONE:
            return self
        inv = ONE / lc
        return Polynomial(
            self.vars, {m: c * inv for m, c in self.coeffs.items()}, self.order, _clean=False
        )

    def variables_present(self):
        present = set()
        for m in self.coeffs:
            for i, e in enumerate(m):
                if e:
                    present.add(i)
        return sorted(present)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("variable-table mismatch")
        if self.order is not other.order and self.order != other.order:
            raise ValueError("monomial-order mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other, self.order)
        self._check(other)
        res = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = res.get(m)
            if v is None:
                res[m] = c
            else:
                v = v + c
                if v:
                    res[m] = v
                else:
                    del res[m]
        return Polynomial(self.vars, res, self.order, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.vars, {m: -c for m, c in self.coeffs.items()}, self.order, _clean=False
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other, self.order)
        self._check(other)
        res = dict(self.coeffs)
        for m, c in other.coeffs.items():
            v = res.get(m)
            if v is None:
                res[m] = -c
            else:
                v = v - c
                if v:
                    res[m] = v
                else:
                    del res[m]
        return Polynomial(self.vars, res, self.order, _clean=False)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Q(other)
            if not c:
                return Polynomial.zero(self.vars, self.order)
            return Polynomial(
                self.vars, {m: v * c for m, v in self.coeffs.items()}, self.order, _clean=False
            )
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        res = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = res.get(m)
                if v is None:
                    res[m] = ca * cb
                else:
                    v = v + ca * cb
                    if v:
                        res[m] = v
                    else:
                        del res[m]
        return Polynomial(self.vars, res, self.order, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.vars, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale_shift(self, coeff, mono):
        """coeff * x^mono * self, the inner loop of division."""
        if not coeff:
            return Polynomial.zero(self.vars, self.order)
        res = {}
        for m, c in self.coeffs.items():
            res[tuple(x + y for x, y in zip(m, mono))] = c * coeff
        return Polynomial(self.vars, res, self.order, _clean=False)

    # -- calculus / evaluation ---------------------------------------------

    def partial_derivative(self, which):
        i = self.vars.index(which) if isinstance(which, str) else which
        res = {}
        for m, c in self.coeffs.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1 :]
                res[dm] = res.get(dm, ZERO) + c * e
        return Polynomial(self.vars, res, self.order)

    def evaluate(self, point):
        """Exact value at a full rational point (sequence, one per variable)."""
        point = [Q(v) for v in point]
        if len(point) != len(self.vars):
            raise ValueError("point has wrong length")
        total = ZERO
        for m, c in self.coeffs.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def evaluate_partial(self, assignment):
        """Substitute rational values for a subset of variables (by index)."""
        assignment = {
            (self.vars.index(k) if isinstance(k, str) else k): Q(v)
            for k, v in assignment.items()
        }
        res = {}
        for m, c in self.coeffs.items():
            v = c
            new = list(m)
            for i, val in assignment.items():
                e = m[i]
                if e:
                    v = v * val**e
                new[i] = 0
            if not v:
                continue
            key = tuple(new)
            acc = res.get(key, ZERO) + v
            if acc:
                res[key] = acc
            elif key in res:
                del res[key]
        return Polynomial(self.vars, res, self.order, _clean=False)

    def map_vars(self, new_vars, index_map, order=None):
        """Transport into another table; index_map[i] is the new slot of
        old variable i.  The map must be injective on present variables."""
        order = order or self.order
        width = len(new_vars)
        res = {}
        for m, c in self.coeffs.items():
            new = [0] * width
            for i, e in enumerate(m):
                if e:
                    new[index_map[i]] = e
            res[tuple(new)] = c
        if len(res) != len(self.coeffs):
            raise ValueError("variable map is not injective on this polynomial")
        return Polynomial(new_vars, res, order, _clean=False)

    def with_order(self, order):
        if order == self.order:
            return self
        return Polynomial(self.vars, self.coeffs, order, _clean=False)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.coeffs.items())))
        return self._hash

    # -- text --------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for c, mono in self.terms:
            factors = []
            for name, e in zip(self.vars.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            neg = c < 0
            mag = -c if neg else c
            if body:
                piece = body if mag == 1 else f"{_rat_str(mag)}*{body}"
            else:
                piece = _rat_str(mag)
            if not parts:
                parts.append(f"-{piece}" if neg else piece)
            else:
                parts.append(f"- {piece}" if neg else f"+ {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _rat_str(c):
    return str(c)


# -- exact division, gcd, squarefree part ----------------------------------


def exact_div(p, d):
    """p / d when the division is exact in Q[x]; raises ValueError otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    p._check(d)
    if d.is_constant():
        return p * (ONE / d.constant_value())
    dc, dm = d.lt()
    work = dict(p.coeffs)
    quot = {}
    key = p.order.key
    while work:
        m = max(work, key=key)
        c = work[m]
        if not mono_divides(dm, m):
            raise ValueError("division is not exact")
        qm = mono_div(m, dm)
        qc = c / dc
        quot[qm] = qc
        for m2, c2 in d.coeffs.items():
            mm = tuple(x + y for x, y in zip(qm, m2))
            v = work.get(mm, ZERO) - qc * c2
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    return Polynomial(p.vars, quot, p.order, _clean=False)


def divides(d, p):
    try:
        exact_div(p, d)
        return True
    except ValueError:
        return False


def _to_univariate(p, i):
    """View p as a univariate polynomial in variable i: {degree: coefficient},
    coefficients living in the same table with slot i zeroed."""
    out = {}
    for m, c in p.coeffs.items():
        e = m[i]
        rest = m[:i] + (0,) + m[i + 1 :]
        bucket = out.setdefault(e, {})
        bucket[rest] = bucket.get(rest, ZERO) + c
    return {
        e: Polynomial(p.vars, coeffs, p.order, _clean=False) for e, coeffs in out.items()
    }


def _from_univariate(uni, i, vars, order):
    res = {}
    for e, coef in uni.items():
        for m, c in coef.coeffs.items():
            res[m[:i] + (e,) + m[i + 1 :]] = c
    return Polynomial(vars, res, order, _clean=False)


def _uni_degree(uni):
    return max(uni) if uni else -1


def _uni_scale(uni, poly):
    return _uni_normalize({e: c * poly for e, c in uni.items()})


def _uni_normalize(uni):
    return {e: c for e, c in uni.items() if not c.is_zero()}


def _pseudo_rem(A, B):
    """Pseudo-remainder of univariate views A by B (in the same variable)."""
    dB = _uni_degree(B)
    lB = B[dB]
    R = dict(A)
    steps = _uni_degree(A) - dB + 1
    used = 0
    while True:
        dR = _uni_degree(R)
        if dR < dB:
            break
        lR = R[dR]
        newR = {}
        for e, c in R.items():
            if e == dR:
                continue
            newR[e] = c * lB
        for e, c in B.items():
            if e == dB:
                continue
            shift = e + dR - dB
            v = newR.get(shift)
            prod = lR * c
            newR[shift] = (v - prod) if v is not None else -prod
        R = _uni_normalize(newR)
        used += 1
    if used < steps:
        mult = lB ** (steps - used)
        R = _uni_scale(R, mult)
    return R


def poly_gcd(p, q):
    """Monic gcd of p and q.

    A coprime pair is certified by univariate images (_coprime_by_images)
    and gets the constant 1 without further algebra.  Every other pair,
    including those the images cannot decide, goes through the recursive
    subresultant polynomial remainder sequence, which computes the gcd
    exactly.
    """
    if p.is_zero():
        return q.monic() if q else q
    if q.is_zero():
        return p.monic()
    p._check(q)
    if _coprime_by_images(p, q):
        return Polynomial.constant(p.vars, 1, p.order)
    g = _gcd_inner(p, q)
    return g.monic()


def _coprime_by_images(p, q):
    """True when gcd(p, q) is provably constant; False when undecided.

    For each variable v that both p and q contain, the variable in slot j
    (from 0) of every other is set to the integer (j + 1)(j + k + 3), taking
    the first k < 3 where neither v-leading coefficient vanishes.  A common
    factor g of v-degree d > 0 has lc_v(g) dividing lc_v(p), so it keeps
    v-degree d at that point, and its image divides both images of p and q.
    A constant gcd of the images therefore proves deg_v gcd(p, q) = 0.
    Every variable of the gcd occurs in both p and q, so when each shared
    variable is ruled out the gcd is constant.  A leading coefficient that
    vanishes at every point, or a non-constant image gcd (an unlucky point
    can create one), decides nothing.
    """
    shared = set(p.variables_present()) & set(q.variables_present())
    points = [[(j + 1) * (j + k + 3) for j in range(len(p.vars))] for k in range(3)]
    for v in sorted(shared):
        for point in points:
            a, b = _image(p, v, point), _image(q, v, point)
            if a[-1] and b[-1]:
                break
        else:
            return False
        if _uni_gcd_degree(a, b) > 0:
            return False
    return True


def _image(p, v, point):
    """Dense coefficients of p in variable v, constant term first, with every
    other variable set to its value in point."""
    image = p.evaluate_partial({j: x for j, x in enumerate(point) if j != v})
    out = [ZERO] * (p.degree_in(v) + 1)
    for m, c in image.coeffs.items():
        out[m[v]] = c
    return out


def _uni_gcd_degree(a, b):
    """Degree of the gcd of two dense univariate polynomials over Q (lists
    from _image, leading coefficients nonzero), by Euclid's algorithm."""
    while b:
        a = a[:]
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            f = a.pop() / lb
            s = len(a) - db
            for i in range(db):
                a[s + i] -= f * b[i]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _gcd_inner(p, q):
    if p.is_constant() or q.is_constant():
        return Polynomial.constant(p.vars, 1, p.order)
    present = set(p.variables_present()) | set(q.variables_present())
    v = max(present)
    if p.degree_in(v) == 0 or q.degree_in(v) == 0:
        # one side is free of v: gcd divides its v-content
        with_v, without_v = (p, q) if q.degree_in(v) == 0 else (q, p)
        cont = _content_in(with_v, v)
        return _gcd_inner(cont, without_v)
    A = _to_univariate(p, v)
    B = _to_univariate(q, v)
    if _uni_degree(A) < _uni_degree(B):
        A, B = B, A
    contA = _poly_list_gcd(list(A.values()))
    contB = _poly_list_gcd(list(B.values()))
    A = {e: exact_div(c, contA) for e, c in A.items()}
    B = {e: exact_div(c, contB) for e, c in B.items()}
    d = _gcd_inner(contA, contB)
    one = Polynomial.constant(p.vars, 1, p.order)
    g = one
    h = one
    while True:
        delta = _uni_degree(A) - _uni_degree(B)
        R = _pseudo_rem(A, B)
        if not R:
            break
        if _uni_degree(R) == 0:
            return d
        denom = g * h**delta
        A = B
        B = {e: exact_div(c, denom) for e, c in R.items()}
        g = A[_uni_degree(A)]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g
        else:
            h = exact_div(g**delta, h ** (delta - 1))
    # gcd of primitive parts = primitive part of B
    contB = _poly_list_gcd(list(B.values()))
    Bp = {e: exact_div(c, contB) for e, c in B.items()}
    return d * _from_univariate(Bp, v, p.vars, p.order)


def _content_in(p, v):
    return _poly_list_gcd(list(_to_univariate(p, v).values()))


def _poly_list_gcd(polys):
    g = polys[0]
    for q in polys[1:]:
        if g.is_constant():
            break
        g = _gcd_inner(g, q) if not q.is_constant() else Polynomial.constant(g.vars, 1, g.order)
    if g.is_constant():
        return Polynomial.constant(g.vars, 1, g.order)
    return g.monic()  # a unit multiple; keeps rational sizes from compounding


def squarefree_part(p):
    """Monic product of the distinct irreducible factors of p (p nonzero).

    p divided by gcd(p, dp/dx_1, ..., dp/dx_n), taken one partial derivative
    at a time with poly_gcd and stopped at the first constant gcd.  A
    squarefree p ends on a coprime pair, which poly_gcd certifies from
    univariate images; a repeated factor is found by the subresultant PRS.
    """
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if p.is_constant():
        return Polynomial.constant(p.vars, 1, p.order)
    d = p
    for i in p.variables_present():
        if d.is_constant():
            break
        d = poly_gcd(d, p.partial_derivative(i))
    if d.is_constant():
        return p.monic()
    return exact_div(p, d).monic()


# -- text grammar -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


def tokenize_expression(text, line=1, col=1):
    """Token stream [(kind, value, line, col)] for the polynomial grammar."""
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        for ch in value:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        i = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class _ExprParser:
    def __init__(self, tokens, vars, order, resolve_call=None, resolve_division=None):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars
        self.order = order
        self.resolve_call = resolve_call
        self.resolve_division = resolve_division

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value:
            raise ParseError(f"found {val or 'end of input'!r}", line, col, expected=repr(value))
        return self.advance()

    def parse(self):
        p = self.expr()
        kind, val, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", line, col)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _, _ = self.peek()
            if val == "+":
                self.advance()
                p = p + self.term()
            elif val == "-":
                self.advance()
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.unary()
        while True:
            kind, val, line, col = self.peek()
            if val == "*":
                self.advance()
                p = p * self.unary()
            elif val == "/":
                self.advance()
                q = self.unary()
                p = self._divide(p, q, line, col)
            else:
                return p

    def _divide(self, p, q, line, col):
        if q.is_constant():
            c = q.constant_value()
            if not c:
                raise ParseError("division by zero", line, col)
            return p * (ONE / c)
        if self.resolve_division is not None:
            return self.resolve_division(p, q, line, col)
        raise ParseError("division by a non-constant polynomial", line, col)

    def unary(self):
        kind, val, _, _ = self.peek()
        if val == "-":
            self.advance()
            return -self.unary()
        if val == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _, _ = self.peek()
        if val == "^":
            self.advance()
            kind, val, line, col = self.peek()
            if kind != "num":
                raise ParseError(f"found {val or 'end of input'!r}", line, col,
                                 expected="a non-negative integer exponent")
            self.advance()
            return base ** int(val)
        return base

    def atom(self):
        kind, val, line, col = self.advance()
        if kind == "num":
            return Polynomial.constant(self.vars, int(val), self.order)
        if kind == "name":
            nxt = self.peek()
            if nxt[1] == "(":
                self.advance()
                arg = self.expr()
                self.expect(")")
                if self.resolve_call is None:
                    raise ParseError(f"unknown function {val!r}", line, col)
                return self.resolve_call(val, arg, line, col)
            if val in self.vars:
                return Polynomial.variable(self.vars, val, self.order)
            raise ParseError(f"unknown variable {val!r}", line, col)
        if val == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"found {val or 'end of input'!r}", line, col,
                         expected="a number, variable or '('")


def parse_polynomial(text, vars, order=DEGREVLEX, *, line=1, col=1,
                     resolve_call=None, resolve_division=None):
    """Parse the polynomial text grammar: integers, rationals a/b, variables,
    + - * ^ and parentheses; whitespace insignificant."""
    tokens = tokenize_expression(text, line, col)
    parser = _ExprParser(tokens, vars, order, resolve_call, resolve_division)
    return parser.parse()
