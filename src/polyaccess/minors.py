"""Matrices with vector-field columns: exact determinants, minor ideals,
column pruning, and certified generic rank."""

from __future__ import annotations

from itertools import combinations
from random import Random
from typing import NamedTuple

from .poly import Polynomial, exact_div
from .rationals import ONE, Q
from .ideals import Ideal
from .modules import PolySubmodule, _mv_key, _mv_monic, dict_to_field
from .vectorfields import VectorField


class FieldMatrix:
    """n x m matrix whose columns are vector fields over one table."""

    __slots__ = ("vars", "entries", "labels")

    def __init__(self, vars, entries, labels):
        self.vars = vars
        self.entries = tuple(tuple(row) for row in entries)
        self.labels = tuple(labels)

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def submatrix(self, rows, cols):
        return [[self.entries[i][j] for j in cols] for i in rows]

    def evaluate(self, point):
        point = [Q(v) for v in point]
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def __repr__(self):
        return f"FieldMatrix({self.nrows}x{self.ncols}, cols={list(self.labels)})"


def build_matrix(columns):
    """Matrix whose j-th column is the j-th field, in the given order."""
    columns = tuple(columns)
    if not columns:
        raise ValueError("matrix needs at least one column")
    vars = columns[0].vars
    n = len(columns[0])
    for c in columns:
        if c.vars != vars or len(c) != n:
            raise ValueError("columns live over different spaces")
    entries = [[c[i] for c in columns] for i in range(n)]
    return FieldMatrix(vars, entries, [c.label for c in columns])


def determinant(rows):
    """Exact determinant of a square array of polynomials."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _bareiss(rows)


def _bareiss(rows):
    n = len(rows)
    M = [list(r) for r in rows]
    vars = M[0][0].vars
    order = M[0][0].order
    one = Polynomial.constant(vars, 1, order)
    zero = Polynomial.zero(vars, order)
    sign = 1
    prev = one
    for k in range(n - 1):
        if M[k][k].is_zero():
            for p in range(k + 1, n):
                if not M[p][k].is_zero():
                    M[k], M[p] = M[p], M[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = M[k][k]
        for i in range(k + 1, n):
            row_i = M[i]
            head = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - head * M[k][j]
                row_i[j] = _exact_quot(num, prev)
            row_i[k] = zero
        prev = pivot
    det = M[n - 1][n - 1]
    return det if sign > 0 else -det


def _exact_quot(num, den):
    if den.is_constant():
        c = den.constant_value()
        if c == ONE:
            return num
        return num * (ONE / c)
    return exact_div(num, den)


def minor_ideal(matrix, size):
    """Ideal generated by all size x size minors, monic and deduplicated."""
    n, m = matrix.nrows, matrix.ncols
    if size < 1 or size > min(n, m):
        raise ValueError(f"no {size}x{size} minors in a {n}x{m} matrix")
    # a column can only contribute rows where it is nonzero
    support = [
        frozenset(i for i in range(n) if not matrix.entries[i][j].is_zero())
        for j in range(m)
    ]
    gens = []
    seen = set()
    for rows in combinations(range(n), size):
        rowset = frozenset(rows)
        usable = [j for j in range(m) if support[j] & rowset]
        if len(usable) < size:
            continue
        for cols in combinations(usable, size):
            d = determinant(matrix.submatrix(rows, cols))
            if d.is_zero():
                continue
            d = d.monic()
            k = frozenset(d.coeffs.items())
            if k not in seen:
                seen.add(k)
                gens.append(d)
    key = matrix.entries[0][0].order.key if gens else None
    if gens:
        gens.sort(key=lambda g: key(g.leading_monomial()), reverse=True)
    return Ideal(matrix.vars, gens)


def reduce_columns(columns):
    """Smaller column list spanning the same submodule of Q[x]^n.

    Each column is replaced by its normal form against the span of the
    columns already kept, and dropped if that is zero.  Column spans are
    preserved, so every minor ideal and every pointwise rank is too.
    """
    columns = tuple(columns)
    if not columns:
        return columns
    vars = columns[0].vars
    dim = len(columns[0])
    kept = []
    module = PolySubmodule(vars, dim, [], columns[0].components[0].order)
    keyf = _mv_key(module.order)
    for col in columns:
        nf = module.normal_form(col)
        if not nf:
            continue
        nf = _mv_monic(nf, keyf)
        kept.append(dict_to_field(vars, dim, nf, col.label, module.order))
        module = module.extended([nf])
    return tuple(kept)


def rational_rank(rows):
    """Rank of a matrix of exact rationals by Gaussian elimination."""
    M = [list(r) for r in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    rank = 0
    col = 0
    while rank < n and col < m:
        pivot = None
        for i in range(rank, n):
            if M[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        pv = M[rank][col]
        for i in range(rank + 1, n):
            f = M[i][col] / pv
            if f:
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


def matrix_rank_at(matrix, point):
    return rational_rank(matrix.evaluate(point))


class GenericRank(NamedTuple):
    rank: int
    witness: tuple  # sample point achieving the rank, or None


def generic_rank(matrix, seed=0, samples=5, span=1000, module=None):
    """Exact maximal rank of the matrix over all real points.

    Random integer points give a fast lower bound with a witness.  Below
    full size the value is certified as the rank over Q(x), read off a
    Groebner basis of the column module.  A caller that already holds a
    PolySubmodule spanned by exactly the matrix columns (a ChainResult's
    module) passes it as module, and its cached basis is used.
    """
    n, m = matrix.nrows, matrix.ncols
    cap = min(n, m)
    rng = Random(seed)
    best = 0
    witness = None
    for _ in range(samples):
        point = [rng.randint(-span, span) for _ in range(len(matrix.vars))]
        r = rational_rank(matrix.evaluate(point))
        if r > best:
            best = r
            witness = tuple(Q(v) for v in point)
        if best == cap:
            return GenericRank(best, witness)
    if module is None:
        columns = [VectorField(matrix.column(j), label)
                   for j, label in enumerate(matrix.labels)]
        module = PolySubmodule(matrix.vars, n, columns, matrix.entries[0][0].order)
    rank = module.rank()
    return GenericRank(rank, witness if rank == best else None)
