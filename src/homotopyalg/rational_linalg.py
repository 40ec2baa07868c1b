"""Exact sparse linear algebra over the rationals.

Everything downstream (homology ranks, quotient dimensions, canonical subspace
representatives, null spaces) reduces to the incremental echelon maintained
here.  One `LinearSolver` elimination of tagged columns gives their rank,
their relations (the null space) and the coefficients of any vector of
their span, so a caller that needs all three eliminates a column once.
Rows are kept as primitive integer vectors (gcd 1, pivot entry positive)
and eliminated by integer cross-multiplication, so no rounding can ever
occur and coefficient growth is controlled by content reduction instead
of pivot heuristics.  A subspace is a `RowReducer` holding its span;
`canonical_rows` divides each row by its pivot, giving the unique reduced
echelon basis, so two equal subspaces always give equal rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "RowReducer",
    "LinearSolver",
]


def _primitive(ints):
    """An integer vector with nonzero entries divided by its content, signed
    so that its leading (smallest column) entry is positive."""
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return ints if g == 1 else {c: v // g for c, v in ints.items()}


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
        """vec := a*vec - b*row with a,b chosen so vec[col] becomes 0 (ints).
        row[col] is the pivot of a primitive row, hence positive, and so is
        the multiplier of vec."""
        a = vec[col]
        b = row[col]
        g = gcd(a, b)
        mul_vec = b // g
        mul_row = a // g
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
        clean = {c: f for c, v in vec.items() if (f := Fraction(v))}
        if not clean:
            return None
        denom = lcm(*(f.denominator for f in clean.values()))
        iv = _primitive({c: int(f * denom) for c, f in clean.items()})
        rows = self.rows
        for c in sorted(iv):
            if c in rows and iv.get(c):
                self._eliminate_int(iv, c, rows[c])
        if not iv:
            return None
        iv = _primitive(iv)
        p = min(iv)
        # back-reduce existing rows that touch the new pivot column; each
        # keeps its pivot, which lies left of p
        for q in list(self._touch.get(p, ())):
            row = self._unregister(q)
            self._register(q, _primitive(self._eliminate_int(row, p, iv)))
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

    def canonical_rows(self, start=0):
        """Leading-1 rational rows, sorted by pivot column, of the rows whose
        pivot is `start` or above."""
        return tuple(tuple((c, Fraction(v, row[p]))
                           for c, v in sorted(row.items()))
                     for p, row in sorted(self.rows.items()) if p >= start)


class LinearSolver:
    """Span membership with coefficient recovery.

    Vectors are inserted with a tag; `express(target)` returns {tag: coeff}
    with target = sum coeff * vector, or None if target is outside the span.
    Implemented by echelonizing augmented rows [vec | e_slot], where the
    slot of the k-th vector added is the coordinate ambient + k, above every
    real coordinate.
    """

    def __init__(self, ambient_dim):
        self.ambient = ambient_dim
        self.red = RowReducer()
        self.tags = []

    def add(self, vec, tag=None):
        """Add a vector of Q^ambient; returns the new pivot, which is a real
        coordinate exactly when the vector is independent of those before."""
        for c in vec:
            if not 0 <= c < self.ambient:
                raise ValueError(
                    f"coordinate {c} outside ambient dim {self.ambient}")
        if tag is None:
            tag = len(self.tags)
        slot = self.ambient + len(self.tags)
        self.tags.append(tag)
        aug = dict(vec)
        aug[slot] = Fraction(1)
        return self.red.insert(aug)

    def relations(self):
        """The null space of the map sending the k-th unit vector to the
        k-th vector added, as its reduced echelon rows {k: Fraction}: the
        slot parts of the rows with no real entry, already inter-reduced."""
        a = self.ambient
        return [{c - a: v for c, v in row}
                for row in self.red.canonical_rows(a)]

    def express(self, target):
        res = self.red.residual(target)
        if any(c < self.ambient for c in res):
            return None
        coeffs = {}
        for c, v in res.items():
            tag = self.tags[c - self.ambient]
            coeffs[tag] = coeffs.get(tag, 0) - v
        return {t: v for t, v in coeffs.items() if v}
