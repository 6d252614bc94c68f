"""Multivariate polynomials over Q in the degrevlex monomial order.

Representation: sparse dict keyed by dense exponent tuples (one slot per
variable), exact rational coefficients, no floats anywhere.  The term list
exposed by Polynomial.terms is sorted strictly descending in degrevlex, so
equal polynomials have identical visible representations and the printed
form is canonical.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from math import gcd, lcm
from operator import add, le, sub

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


# Monomials are plain exponent tuples, ordered by degrevlex.

def mono_key(mono):
    """Degrevlex sort key; larger key = larger monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_negkey(mono):
    """mono_key(mono) with every integer negated: a min-heap on it pops the
    largest monomial first."""
    return (-sum(mono), mono[::-1])


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True if a | b componentwise."""
    return all(map(le, a, b))


def mono_div(a, b):
    """a / b, assuming b | a."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_gcd(a, b):
    return tuple(map(min, a, b))


def _mul_into(acc, a, b, sign=1):
    """acc += sign * a * b on coefficient dicts; sums that cancel are removed."""
    for ma, ca in a.items():
        if sign < 0:
            ca = -ca
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            v = acc.get(m)
            if v is None:
                acc[m] = ca * cb
            else:
                v = v + ca * cb
                if v:
                    acc[m] = v
                else:
                    del acc[m]


def _add_into(acc, d, negate):
    """acc += d, or acc -= d, in place; sums that cancel are removed."""
    for m, c in d.items():
        v = acc.get(m)
        if v is None:
            acc[m] = -c if negate else c
        else:
            v = v - c if negate else v + c
            if v:
                acc[m] = v
            else:
                del acc[m]


def _times(a, b):
    """a * b on coefficient dicts, as Polynomial.__mul__ multiplies; a single
    term multiplies the other factor directly."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ma, ca),) = a.items()
        return {tuple(map(add, ma, mb)): ca * cb for mb, cb in b.items()}
    res = {}
    _mul_into(res, a, b)
    return res


def _power(d, n, zero):
    """d ** n on coefficient dicts, by repeated squaring; zero is the
    constant monomial."""
    result = {zero: ONE}
    while n:
        if n & 1:
            result = _times(result, d)
        if n > 1:
            d = _times(d, d)
        n >>= 1
    return result


class Polynomial:
    """Immutable sparse polynomial tied to a VarTable, its terms in degrevlex."""

    __slots__ = ("vars", "coeffs", "_lt", "_hash", "_partials")

    def __init__(self, vars, coeffs, _clean=True):
        self.vars = vars
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
        self._partials = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {}, _clean=False)

    @classmethod
    def constant(cls, vars, value):
        value = Q(value)
        if not value:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): value}, _clean=False)

    @classmethod
    def variable(cls, vars, which):
        i = vars.index(which) if isinstance(which, str) else which
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: ONE}, _clean=False)

    @classmethod
    def from_terms(cls, vars, terms):
        """terms: iterable of (coefficient, exponent tuple)."""
        coeffs = {}
        for c, mono in terms:
            mono = tuple(mono)
            coeffs[mono] = coeffs.get(mono, ZERO) + Q(c)
        return cls(vars, coeffs)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self):
        """Term list [(coefficient, monomial), ...], strictly descending."""
        coeffs = self.coeffs
        return tuple((coeffs[m], m) for m in sorted(coeffs, key=mono_negkey))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or (len(self.coeffs) == 1 and not any(next(iter(self.coeffs))))

    def total_degree(self):
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def lt(self):
        """(coefficient, monomial) of the leading term."""
        if self._lt is None:
            if not self.coeffs:
                raise ValueError("zero polynomial has no leading term")
            mono = min(self.coeffs, key=mono_negkey)
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
        return Polynomial(self.vars, {m: c * inv for m, c in self.coeffs.items()}, _clean=False)

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

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        res = dict(self.coeffs)
        _add_into(res, other.coeffs, False)
        return Polynomial(self.vars, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.vars, {m: -c for m, c in self.coeffs.items()}, _clean=False)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        res = dict(self.coeffs)
        _add_into(res, other.coeffs, True)
        return Polynomial(self.vars, res, _clean=False)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Q(other)
            if not c:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, {m: v * c for m, v in self.coeffs.items()}, _clean=False)
        self._check(other)
        return Polynomial(self.vars, _times(self.coeffs, other.coeffs), _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Polynomial(self.vars, _power(self.coeffs, n, (0,) * len(self.vars)), _clean=False)

    # -- calculus / evaluation ---------------------------------------------

    def partial_derivative(self, which):
        """Derivative in one variable, by name or index.  Each is computed
        once and kept on the polynomial, which never changes."""
        i = self.vars.index(which) if isinstance(which, str) else which
        n = len(self.vars)
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for {n} variables")
        if self._partials is None:
            self._partials = [None] * n
        d = self._partials[i]
        if d is None:
            # distinct monomials with e > 0 stay distinct when e drops by one
            res = {}
            for m, c in self.coeffs.items():
                e = m[i]
                if e:
                    res[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
            d = self._partials[i] = Polynomial(self.vars, res, _clean=False)
        return d

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

    def map_vars(self, new_vars, index_map):
        """Transport into another table; index_map[i] is the new slot of
        old variable i.  The map must be injective on present variables."""
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
        return Polynomial(new_vars, res, _clean=False)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
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
                piece = body if mag == 1 else f"{mag}*{body}"
            else:
                piece = str(mag)
            if not parts:
                parts.append(f"-{piece}" if neg else piece)
            else:
                parts.append(f"- {piece}" if neg else f"+ {piece}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


# -- exact division, squarefree certificate --------------------------------


def exact_div(p, d):
    """p / d when the division is exact in Q[x]; raises ValueError otherwise.
    By Gauss's lemma, p scaled to integers divided over Z by the primitive
    part of d scaled to integers, times a rational scale."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    p._check(d)
    a, b = integer_coeffs(p), integer_coeffs(d)
    cb = gcd(*b.values())
    quot = _zz_quotient(a, {m: v // cb for m, v in b.items()})
    if quot is None:
        raise ValueError("division is not exact")
    (m, c), (n, e) = next(iter(p.coeffs.items())), next(iter(d.coeffs.items()))
    s = c / a[m] * (b[n] // cb) / e  # (p / a) / (d / b * cb)
    return Polynomial(p.vars, {m: s * v for m, v in quot.items()}, _clean=False)


def _zz_quotient(a, d):
    """a / d for integer polynomials {monomial: int}, or None when d does
    not divide a over Z; the division runs in lex order."""
    dm = max(d)
    dc, a, quot = d[dm], dict(a), {}
    while a:
        m = max(a)
        c, r = divmod(a[m], dc)
        if r or not all(map(le, dm, m)):
            return None
        qm = tuple(map(sub, m, dm))
        quot[qm] = c
        for m2, c2 in d.items():
            mm = tuple(map(add, qm, m2))
            v = a.get(mm, 0) - c * c2
            if v:
                a[mm] = v
            else:
                del a[mm]
    return quot


def integer_coeffs(p):
    """{monomial: int}: p times the lcm of its denominators."""
    den = lcm(*(c.denominator for c in p.coeffs.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.coeffs.items()}


# the largest prime below 2**30: the modulus of the squarefree certificate
_P = 1073741789


def _line(i):
    """Point and direction of variable i on the line of the squarefree
    certificate: x_i = a + b*t."""
    a = 7919 * (i + 1)
    return a, a + 1009


def _urem(a, b, P):
    """Remainder over Z/P, times a unit, of dense univariate polynomials:
    coefficient lists, constant term first, with a nonzero last entry.
    Each step is a <- b[-1]*a - a[-1]*t^s*b, so no inverse is taken."""
    a, lb, n = a[:], b[-1], len(b) - 1
    while len(a) > n:
        c = a.pop()
        s = len(a) - n
        for i in range(s):
            a[i] = a[i] * lb % P
        for i in range(n):
            a[s + i] = (a[s + i] * lb - c * b[i]) % P
    while a and not a[-1]:
        a.pop()
    return a


def _coprime(a, b, P):
    """True when a and b are coprime over Z/P, by Euclid's algorithm."""
    while b:
        a, b = b, _urem(a, b, P)
    return len(a) == 1


@lru_cache(maxsize=1 << 12)
def _monomial_on_line(mono):
    """Dense coefficients mod _P, constant term first, of the monomial mono
    on the certificate line x_i = a_i + b_i*t (_line)."""
    i = max((i for i, e in enumerate(mono) if e), default=None)
    if i is None:
        return (1,)
    a, b = _line(i)
    rest = _monomial_on_line(mono[:i] + (mono[i] - 1,) + mono[i + 1:])
    return tuple((a * x + b * y) % _P for x, y in zip(rest + (0,), (0,) + rest))


def _squarefree_by_image(p):
    """True when the image of p on the certificate line mod _P keeps the
    total degree of p and is coprime to its t-derivative, which proves p
    squarefree (see ideals.squarefree_part).  False decides nothing."""
    h = [0] * (p.total_degree() + 1)
    for m, c in integer_coeffs(p).items():
        for k, v in enumerate(_monomial_on_line(m)):
            h[k] += c * v
    h = [v % _P for v in h]
    if not h[-1]:
        return False
    # the derivative leads with D*h[D], D the total degree: nonzero mod _P
    # since 0 < D < _P
    dh = [k * c % _P for k, c in enumerate(h)][1:]
    return _coprime(h, dh, _P)


# -- text grammar -----------------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := ('-' | '+') factor | atom ('^' integer)?
#   atom   := integer | name | name '(' expr ')' | '(' expr ')'
#
# One findall splits a component into token strings; whitespace is skipped
# and every other character that starts no token becomes a token of its own,
# which no rule accepts.  The descent works on plain {monomial: Q} dicts.
# Line and column are worked out from the text only for an error or a hook.

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]|\S")
# the characters that only _TOKEN_RE's last alternative takes
_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _Fail(Exception):
    """A parse error at token number `at`, positioned when it is raised."""

    def __init__(self, at, message, expected=None):
        self.at, self.message, self.expected = at, message, expected


def _found(toks, at, expected):
    return _Fail(at, f"found {toks[at] or 'end of input'!r}", expected)


def _position(text, offset, line, col):
    """Line and column of text[offset], for text starting at (line, col);
    the column restarts at 1 after each newline."""
    newlines = text.count("\n", 0, offset)
    if newlines:
        return line + newlines, offset - text.rfind("\n", 0, offset)
    return line, col + offset


def _token_offset(text, at):
    """Offset of token number `at` in text; the end of input is at len(text)."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == at:
            return m.start()
    return len(text)


@cache
def _monomials(n):
    """The constant monomial and the n unit monomials of width n."""
    zero = (0,) * n
    return zero, tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))


class _Descent:
    """Recursive descent over one component's tokens, a method per rule of
    the grammar but atom, which factor parses.  Each takes the number of its
    first token and returns (coefficient dict, number of the next token);
    every dict it returns is new, so callers update it in place."""

    __slots__ = ("toks", "text", "line", "col", "vars", "index", "zero", "units",
                 "resolve_call", "resolve_division")

    def __init__(self, text, vars, line, col, resolve_call, resolve_division):
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")
        self.text = text
        self.line = line
        self.col = col
        self.vars = vars
        self.index = vars._index
        self.zero, self.units = _monomials(len(vars.names))
        self.resolve_call = resolve_call
        self.resolve_division = resolve_division

    def where(self, at):
        return _position(self.text, _token_offset(self.text, at), self.line, self.col)

    def polynomial(self, d):
        return Polynomial(self.vars, d, _clean=False)

    def expr(self, i):
        d, i = self.term(i)
        toks = self.toks
        op = toks[i]
        while op == "+" or op == "-":
            e, i = self.term(i + 1)
            _add_into(d, e, op == "-")
            op = toks[i]
        return d, i

    def term(self, i):
        d, i = self.factor(i)
        toks = self.toks
        op = toks[i]
        while op == "*" or op == "/":
            e, j = self.factor(i + 1)
            d = _times(d, e) if op == "*" else self.divide(d, e, i)
            i = j
            op = toks[i]
        return d, i

    def divide(self, d, e, at):
        if not e:
            raise _Fail(at, "division by zero")
        if len(e) == 1 and self.zero in e:
            inv = ONE / e[self.zero]
            return {m: c * inv for m, c in d.items()}
        if self.resolve_division is None:
            raise _Fail(at, "division by a non-constant polynomial")
        q = self.resolve_division(self.polynomial(d), self.polynomial(e), *self.where(at))
        return dict(q.coeffs)

    def factor(self, i):
        toks = self.toks
        tok = toks[i]
        if tok == "-":
            d, i = self.factor(i + 1)
            for m, c in d.items():
                d[m] = -c
            return d, i
        if tok == "+":
            return self.factor(i + 1)
        # the atom
        if tok.isdecimal():
            c = Q(int(tok))
            d = {self.zero: c} if c else {}
            i += 1
        elif tok[:1] in _NAME_START:
            if toks[i + 1] == "(":
                d, i = self.call(i)
            else:
                slot = self.index.get(tok)
                if slot is None:
                    raise _Fail(i, f"unknown variable {tok!r}")
                d = {self.units[slot]: ONE}
                i += 1
        elif tok == "(":
            d, i = self.expr(i + 1)
            if toks[i] != ")":
                raise _found(toks, i, "')'")
            i += 1
        else:
            raise _found(toks, i, "a number, variable or '('")
        if toks[i] != "^":
            return d, i
        if not toks[i + 1].isdecimal():
            raise _found(toks, i + 1, "a non-negative integer exponent")
        return _power(d, int(toks[i + 1]), self.zero), i + 2

    def call(self, at):
        toks = self.toks
        arg, i = self.expr(at + 2)
        if toks[i] != ")":
            raise _found(toks, i, "')'")
        if self.resolve_call is None:
            raise _Fail(at, f"unknown function {toks[at]!r}")
        p = self.resolve_call(toks[at], self.polynomial(arg), *self.where(at))
        return dict(p.coeffs), i + 1


def parse_polynomial(text, vars, *, line=1, col=1, resolve_call=None, resolve_division=None):
    """Parse the polynomial text grammar: integers, rationals a/b, variables,
    + - * ^ and parentheses; whitespace insignificant.  Errors are ParseErrors
    positioned in text, which starts at (line, col); a character that starts
    no token is reported before anything else."""
    parser = _Descent(text, vars, line, col, resolve_call, resolve_division)
    toks = parser.toks
    try:
        d, i = parser.expr(0)
        if toks[i]:
            raise _Fail(i, f"trailing input {toks[i]!r}")
    except (_Fail, ValueError, RecursionError) as err:
        # any failure, a hook's ParseError included, yields to a character
        # that starts no token
        bad = _BAD_CHAR_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}",
                             *_position(text, bad.start(), line, col)) from None
        if not isinstance(err, _Fail):
            raise
        raise ParseError(err.message, *parser.where(err.at), err.expected) from None
    # a compact copy: d may have grown and shed terms in place
    return Polynomial(vars, dict(d), _clean=False)
