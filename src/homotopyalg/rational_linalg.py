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

Scalar = Fraction

__all__ = [
    "Scalar",
    "SparseMatrix",
    "Subspace",
    "RowReducer",
    "LinearSolver",
    "rank",
    "kernel",
    "column_space",
    "row_space",
    "quotient_dim",
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

    @staticmethod
    def from_rows(rows, ncols=None):
        """rows: sequence of {col: value} dicts."""
        nrows = len(rows)
        width = ncols if ncols is not None else max(
            (c + 1 for row in rows for c in row), default=0)
        ents = [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]
        return SparseMatrix.from_entries(nrows, width, ents)

    def row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return rows

    def col_dicts(self):
        cols = [dict() for _ in range(self.ncols)]
        for r, c, v in self.entries:
            cols[c][r] = v
        return cols

    def transpose(self):
        ents = [(c, r, v) for r, c, v in self.entries]
        return SparseMatrix.from_entries(self.ncols, self.nrows, ents)

    def apply(self, vec):
        """Matrix times {col: coeff} vector -> {row: coeff}."""
        out = {}
        for r, c, v in self.entries:
            f = vec.get(c)
            if f:
                nv = out.get(r, 0) + v * f
                if nv:
                    out[r] = nv
                else:
                    out.pop(r, None)
        return out

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.col_dicts()
        ents = []
        for c, colvec in enumerate(cols):
            img = self.apply(colvec)
            ents.extend((r, c, v) for r, v in img.items())
        return SparseMatrix.from_entries(self.nrows, other.ncols, ents)


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

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            return False
        red = self.reducer()
        return all(red.contains(dict(row)) for row in other.basis)


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


def rank(matrix: SparseMatrix) -> int:
    red = RowReducer()
    for row in matrix.row_dicts():
        red.insert(row)
    return red.dim


def row_space(matrix: SparseMatrix) -> Subspace:
    return Subspace.from_vectors(matrix.ncols, matrix.row_dicts())


def column_space(matrix: SparseMatrix) -> Subspace:
    return Subspace.from_vectors(matrix.nrows, matrix.col_dicts())


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


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big/small); raises ValueError unless small is contained in big."""
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if not big.contains_subspace(small):
        raise ValueError("quotient undefined: second subspace not contained in first")
    return big.dim - small.dim
