"""Bracket matrices, given as their column fields: minor ideals and
certified generic rank."""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import lcm, prod
from random import Random

from .poly import mono_key
from .ideals import Ideal
from .modules import PolySubmodule


def _shape(columns):
    """The columns as a tuple, with their row count: they must be nonempty
    and share one variable table and one length."""
    columns = tuple(columns)
    if not columns:
        raise ValueError("matrix needs at least one column")
    vars = columns[0].vars
    n = len(columns[0])
    for c in columns:
        if c.vars != vars or len(c) != n:
            raise ValueError("columns live over different spaces")
    return columns, n


def _extend_minors(minors, row):
    """Nonzero minors of a row prefix extended by one more row.

    minors maps each column tuple of the prefix to its nonzero k x k minor.
    Each (k+1) x (k+1) minor is expanded along the new row: the entry in
    column c times the prefix minor on the other columns, with sign
    (-1)^(k + pos), pos being the place of c among the sorted columns.
    """
    out = {}
    entries = [(c, e) for c, e in enumerate(row) if e]
    for sub, d in minors.items():
        k = len(sub)
        for c, e in entries:
            if c in sub:
                continue
            pos = bisect_left(sub, c)
            cols = sub[:pos] + (c,) + sub[pos:]
            t = e * d
            acc = out.get(cols)
            if (k + pos) & 1:
                out[cols] = -t if acc is None else acc - t
            else:
                out[cols] = t if acc is None else acc + t
    return {cols: d for cols, d in out.items() if d}


def _leaf_minors(entries, minors, last, size):
    """Nonzero size x size minors on every row set that extends a prefix
    ending at row last, in lexicographic order of (rows, cols)."""
    k = len(next(iter(minors)))
    if k == size:
        for cols in sorted(minors):
            yield minors[cols]
        return
    for r in range(last + 1, len(entries) - (size - k) + 1):
        extended = _extend_minors(minors, entries[r])
        # a prefix whose minors all vanish has rank below its row count,
        # so every minor through it vanishes too
        if extended:
            yield from _leaf_minors(entries, extended, r, size)


def minor_ideal(columns, size):
    """Ideal generated by all size x size minors of the matrix whose j-th
    column is the j-th field, monic and deduplicated.

    The minors come from one shared cofactor expansion: row sets are walked
    in lexicographic order as a tree of row prefixes, and each prefix keeps
    its nonzero minors, so no minor is computed twice and only one chain of
    prefixes is held at a time.  Generators are the distinct monic nonzero
    minors, first occurrence in (rows, cols) lexicographic order, then
    stably sorted by leading monomial, largest first.
    """
    columns, n = _shape(columns)
    m = len(columns)
    if size < 1 or size > min(n, m):
        raise ValueError(f"no {size}x{size} minors in a {n}x{m} matrix")
    rows = tuple(zip(*columns))
    gens = []
    seen = set()
    for r, row in enumerate(rows[:n - size + 1]):
        # the prefix tree starts at the 1 x 1 minors, the nonzero entries
        ones = {(c,): e for c, e in enumerate(row) if e}
        if not ones:
            continue
        for d in _leaf_minors(rows, ones, r, size):
            d = d.monic()
            if d not in seen:
                seen.add(d)
                gens.append(d)
    gens.sort(key=lambda g: mono_key(g.lt()[1]), reverse=True)
    return Ideal(columns[0].vars, gens)


def rational_rank(rows):
    """Rank of a matrix of exact rationals or integers.

    Each row is scaled by the lcm of its denominators, then Bareiss's
    fraction-free elimination (Bareiss 1968) runs over the integers.  After
    k pivots every entry below them is a (k+1) x (k+1) minor of the scaled
    matrix, so each division by the previous pivot is exact.
    """
    M = []
    for row in rows:
        den = lcm(*[a.denominator for a in row])
        M.append([a.numerator * (den // a.denominator) for a in row])
    n = len(M)
    rank, prev = 0, 1
    for col in range(len(M[0]) if n else 0):
        pivot = next((i for i in range(rank, n) if M[i][col]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        top = M[rank]
        pv = top[col]
        for i in range(rank + 1, n):
            f = M[i][col]
            M[i] = [(pv * a - f * b) // prev for a, b in zip(M[i], top)]
        prev = pv
        rank += 1
        if rank == n:
            break
    return rank


def _integer_entries(columns):
    """Each column's entries as (exponents, int) terms, the column scaled by
    the lcm of its denominators, which leaves the rank at every point
    unchanged."""
    out = []
    for col in columns:
        terms = [list(e.coeffs.items()) for e in col]
        den = lcm(*[c.denominator for t in terms for _, c in t])
        out.append([[(m, c.numerator * (den // c.denominator)) for m, c in t]
                    for t in terms])
    return out


_SAMPLES = 5  # sample points generic_rank tries before the module rank


@lru_cache(maxsize=1 << 8)
def _sample_points(seed, nvars):
    """generic_rank's sample points: _SAMPLES points of nvars integers in
    [-1000, 1000], drawn in order from Random(seed)."""
    rng = Random(seed)
    return tuple(tuple(rng.randint(-1000, 1000) for _ in range(nvars))
                 for _ in range(_SAMPLES))


def generic_rank(columns, seed=0, module=None):
    """Rank over Q(x): the exact maximal rank, at real points, of the matrix
    whose j-th column is the j-th field.

    The matrix is scaled to integer coefficients once, column by column, and
    evaluated at _SAMPLES random integer points, drawn once per seed and
    variable count.  A point of rank min(n, m) proves that rank.  Otherwise
    the rank is read off a Groebner basis of the column module.  A caller
    that already holds a PolySubmodule spanned by exactly these columns (a
    chain depth's module) passes it as module, and its cached basis is
    used.  The sampling is kept because the generic test asks at every depth
    up to the first of full rank, and that depth's module basis is one the
    index search never needs: reading the module rank at every depth made
    the 400-system sweep 7x slower (1.2 s against 0.17 s, 2 vCPUs).
    """
    columns, n = _shape(columns)
    cap = min(n, len(columns))
    entries = _integer_entries(columns)
    for point in _sample_points(seed, len(columns[0].vars)):
        # the rank of the transpose, evaluated column by column, is the rank
        if rational_rank([[sum(c * prod(map(pow, point, mono)) for mono, c in e)
                           for e in col] for col in entries]) == cap:
            return cap
    if module is None:
        module = PolySubmodule(columns[0].vars, n, columns)
    return module.rank()
