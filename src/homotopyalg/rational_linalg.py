"""Exact sparse linear algebra over the rationals.

Everything downstream (homology ranks, quotient dimensions, canonical subspace
representatives) reduces to the incremental echelon maintained here.  Rows are
kept as primitive integer vectors (gcd 1, pivot entry positive) and eliminated
by integer cross-multiplication, so no rounding can ever occur and coefficient
growth is controlled by content reduction instead of pivot heuristics.  The
public `Subspace` form divides each row by its pivot, giving the unique reduced
echelon basis; two equal subspaces always compare equal structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "SparseMatrix",
    "Subspace",
    "RowReducer",
    "LinearSolver",
    "kernel",
]


def _to_primitive_int(vec):
    """Scale a {col: Fraction|int} vector to a primitive integer vector.

    Returns a new dict with gcd-1 integer entries and the leading (smallest
    column) entry positive.  Zero vector maps to {}.
    """
    clean = {}
    denom = 1
    for c, v in vec.items():
        f = Fraction(v)
        if f:
            clean[c] = f
            denom = lcm(denom, f.denominator)
    if not clean:
        return {}
    ints = {c: int(f * denom) for c, f in clean.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    lead = min(ints)
    if ints[lead] < 0:
        g = -g
    if g not in (1, 0):
        ints = {c: v // g for c, v in ints.items()}
    return ints


class RowReducer:
    """Incrementally maintained reduced echelon form of a growing row span.

    Rows are fully inter-reduced: no row contains another row's pivot column,
    and each row's pivot is its leading column.  This makes the row set the
    canonical (up to scale) echelon basis of the span at every moment, and
    lets both `insert` and `residual` run in a single pass over a vector's
    pivot columns.
    """

    def __init__(self):
        self.rows = {}   # pivot column -> {col: int}, primitive, row[pivot] > 0
        self._touch = {}  # column -> set of pivot columns whose row hits it

    @property
    def dim(self):
        return len(self.rows)

    def pivot_columns(self):
        return sorted(self.rows)

    def _register(self, pivot, row):
        self.rows[pivot] = row
        for c in row:
            self._touch.setdefault(c, set()).add(pivot)

    def _unregister(self, pivot):
        row = self.rows.pop(pivot)
        for c in row:
            s = self._touch.get(c)
            if s is not None:
                s.discard(pivot)
                if not s:
                    del self._touch[c]
        return row

    @staticmethod
    def _eliminate_int(vec, col, row):
        """vec := a*vec - b*row with a,b chosen so vec[col] becomes 0 (ints)."""
        a = vec[col]
        b = row[col]
        g = gcd(a, b)
        mul_vec = b // g
        mul_row = a // g
        if mul_vec < 0:
            mul_vec, mul_row = -mul_vec, -mul_row
        for c, rv in row.items():
            nv = mul_vec * vec.get(c, 0) - mul_row * rv
            if nv:
                vec[c] = nv
            else:
                vec.pop(c, None)
        if mul_vec != 1:
            for c in list(vec):
                if c not in row:
                    vec[c] = mul_vec * vec[c]
        return vec

    def insert(self, vec):
        """Add a vector to the span.  Returns the new pivot column, or None
        if the vector was already in the span."""
        iv = _to_primitive_int(vec)
        if not iv:
            return None
        rows = self.rows
        for c in sorted(iv):
            if c in rows and iv.get(c):
                self._eliminate_int(iv, c, rows[c])
        if not iv:
            return None
        g = 0
        for v in iv.values():
            g = gcd(g, v)
        p = min(iv)
        if iv[p] < 0:
            g = -g
        if g != 1:
            iv = {c: v // g for c, v in iv.items()}
        # back-reduce existing rows that touch the new pivot column
        for q in list(self._touch.get(p, ())):
            row = self._unregister(q)
            self._eliminate_int(row, p, iv)
            g2 = 0
            for v in row.values():
                g2 = gcd(g2, v)
            if row[q] < 0:
                g2 = -g2
            if g2 != 1:
                row = {c: v // g2 for c, v in row.items()}
            self._register(q, row)
        self._register(p, iv)
        return p

    def residual(self, vec):
        """Reduce a {col: Fraction|int} vector against the span (no insert).

        The result is the unique representative of vec's class modulo the span
        supported away from the pivot columns, with Fraction entries.
        """
        rv = {}
        for c, v in vec.items():
            f = Fraction(v)
            if f:
                rv[c] = f
        rows = self.rows
        for c in sorted(rv):
            if c in rows and rv.get(c):
                row = rows[c]
                f = rv[c] / row[c]
                for cc, e in row.items():
                    nv = rv.get(cc, 0) - f * e
                    if nv:
                        rv[cc] = nv
                    else:
                        rv.pop(cc, None)
        return rv

    def contains(self, vec):
        return not self.residual(vec)

    def canonical_rows(self):
        """Leading-1 rational rows, sorted by pivot column."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            lead = row[p]
            out.append(tuple((c, Fraction(v, lead)) for c, v in sorted(row.items())))
        return tuple(out)


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix, entries stored as a sorted (row, col, value)
    tuple with no explicit zeros.  Equality is structural."""

    nrows: int
    ncols: int
    entries: tuple  # ((r, c, Fraction), ...) sorted by (r, c)

    @staticmethod
    def from_entries(nrows, ncols, entries):
        cleaned = []
        for r, c, v in entries:
            f = Fraction(v)
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) outside {nrows}x{ncols} shape")
            if f:
                cleaned.append((r, c, f))
        cleaned.sort(key=lambda e: (e[0], e[1]))
        seen = set()
        for r, c, _ in cleaned:
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))
        return SparseMatrix(nrows, ncols, tuple(cleaned))

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held by its unique reduced echelon basis.

    `basis` rows are tuples of (col, Fraction) pairs, pivot entry 1, sorted by
    pivot column; no row meets another row's pivot column.  Structural equality
    therefore decides subspace equality.
    """

    ambient_dim: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        red = RowReducer()
        for v in vectors:
            for c in v:
                if not 0 <= c < ambient_dim:
                    raise ValueError(f"coordinate {c} outside ambient dim {ambient_dim}")
            red.insert(v)
        return Subspace(ambient_dim, red.canonical_rows())

    def reducer(self):
        red = RowReducer()
        for row in self.basis:
            red.insert(dict(row))
        return red

    def contains(self, vec):
        return self.reducer().contains(vec)


class LinearSolver:
    """Span membership with coefficient recovery.

    Vectors are inserted with a tag; `express(target)` returns {tag: coeff}
    with target = sum coeff * vector, or None if target is outside the span.
    Implemented by echelonizing augmented rows [vec | e_tag] where tag
    coordinates sit above every real coordinate.
    """

    def __init__(self, ambient_dim):
        self.ambient = ambient_dim
        self.red = RowReducer()
        self.tags = []

    def add(self, vec, tag=None):
        if tag is None:
            tag = len(self.tags)
        slot = self.ambient + len(self.tags)
        self.tags.append(tag)
        aug = dict(vec)
        aug[slot] = Fraction(1)
        self.red.insert(aug)

    def express(self, target):
        res = self.red.residual(target)
        if any(c < self.ambient for c in res):
            return None
        coeffs = {}
        for c, v in res.items():
            tag = self.tags[c - self.ambient]
            coeffs[tag] = coeffs.get(tag, 0) - v
        return {t: v for t, v in coeffs.items() if v}


def kernel(matrix: SparseMatrix) -> Subspace:
    """Canonical basis of the right null space."""
    red = RowReducer()
    for row in matrix.row_dicts():
        red.insert(row)
    pivots = red.pivot_columns()
    pivot_rows = {p: row for p, row in zip(pivots, red.canonical_rows())}
    free = [c for c in range(matrix.ncols) if c not in red.rows]
    vectors = []
    for f in free:
        v = {f: Fraction(1)}
        for p in pivots:
            entry = dict(pivot_rows[p]).get(f)
            if entry:
                v[p] = -entry
        vectors.append(v)
    return Subspace.from_vectors(matrix.ncols, vectors)
