"""Homology of finite chain complexes over Q, with optional block quotients.

A complex is a family of finite basis lists indexed by integer degree and a
differential lowering degree by one, given as a function on basis keys.  Each
block may additionally be quotiented by the span of supplied generators (the
differential must descend).  All arithmetic is exact.

Each degree's boundary is evaluated once, as the images of the quotient basis
in the quotient basis below, and eliminated once, as one tagged echelon of
its columns: the rank and image basis of d_q are the columns that gained a
real pivot, the cycles are the tag parts of the rows left with no real
entry, and the class solver of degree q is the elimination of d_{q+1}
extended by the representatives of degree q.  `rank` is the one rank of a
boundary, and the class of a cycle is read off that solver in the
representative basis.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import exact
from .rational_linalg import LinearSolver, RowReducer

__all__ = ["BettiTable", "ChainComplex", "InconsistencyError"]


class InconsistencyError(Exception):
    """Two routes of the package that must agree did not: an internal
    fault, never a property of the input algebra."""


class BettiTable:
    """Homology dimensions by degree, with per-degree certification flags.

    `exact[q]` records whether dims[q] is complete as stated (no truncation
    artifact); callers that cap weights or degrees clear it accordingly.
    Tables compare by value.
    """

    def __init__(self, dims, exact=None, representatives=None):
        self.dims = dims
        self.exact = {} if exact is None else exact
        self.representatives = representatives

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dims, self.exact, self.representatives) == \
            (other.dims, other.exact, other.representatives)


class ChainComplex:
    """blocks: {degree: [keys]}; diff(degree, key) -> {key: coefficient} one
    degree down.  Degrees absent from `blocks` are zero.  `basis[q]` lists
    the keys whose classes form the canonical quotient basis of degree q."""

    def __init__(self, blocks, diff, quotient_spans=None):
        self.blocks = {q: list(ks) for q, ks in blocks.items() if ks}
        self.index = {q: {k: i for i, k in enumerate(ks)}
                      for q, ks in self.blocks.items()}
        self.diff = diff
        self.reducers = {}
        for q, elements in (quotient_spans or {}).items():
            red = RowReducer()
            for el in elements:
                red.insert(self._coords(el, q))
            self.reducers[q] = red
        self.basis, self._position = {}, {}
        for q, ks in self.blocks.items():
            pivots = self.reducers[q].rows if q in self.reducers else ()
            cols = [c for c in range(len(ks)) if c not in pivots]
            self.basis[q] = [ks[c] for c in cols]
            self._position[q] = {c: p for p, c in enumerate(cols)}
        self._boundaries, self._eliminations = {}, {}

    def _coords(self, el, q):
        """Element dict -> {column: int | Fraction} in block q's coordinates."""
        vec = {}
        for k, c in el.items():
            c = exact(c)
            if not c:
                continue
            idx = self.index.get(q)
            if idx is None or k not in idx:
                raise ValueError(f"key {k!r} not in block {q}")
            vec[idx[k]] = c
        return vec

    def dim(self, q):
        return len(self.basis.get(q, ()))

    def _vector(self, q, element):
        """A chain of degree q in the quotient basis: {position: coefficient}."""
        vec = self._coords(element, q)
        if q in self.reducers:
            vec = self.reducers[q].residual(vec)
        pos = self._position.get(q)
        return {pos[c]: v for c, v in vec.items()}

    def _boundary(self, q):
        """The images of the quotient basis of degree q, in the quotient
        positions of degree q - 1; `diff` runs once per key and degree."""
        if q not in self._boundaries:
            self._boundaries[q] = [self._vector(q - 1, self.diff(q, k))
                                   for k in self.basis.get(q, ())]
        return self._boundaries[q]

    def _image(self, q, vec):
        """The boundary of a quotient vector of degree q."""
        cols = self._boundary(q)
        out = {}
        for p, c in vec.items():
            for r, v in cols[p].items():
                out[r] = out.get(r, 0) + c * v
        return {r: v for r, v in out.items() if v}

    def differential(self, q, element):
        """The induced differential of a chain of degree q, over the quotient
        basis keys of degree q - 1."""
        return {self.basis[q - 1][r]: v
                for r, v in self._image(q, self._vector(q, element)).items()}

    def _elimination(self, q):
        """The one elimination of d_q's columns, tagged ("b", position), as
        [solver, image basis, cycles, representatives of degree q - 1]; the
        cycles are read off before anything else is added to the solver."""
        if q not in self._eliminations:
            ambient = self.dim(q - 1)
            solver = LinearSolver(ambient)
            image = [p for p, col in enumerate(self._boundary(q))
                     if solver.add(col, ("b", p)) < ambient]
            self._eliminations[q] = [solver, image, solver.relations(), None]
        return self._eliminations[q]

    def image_basis(self, q):
        """The positions in `basis[q]` whose boundary is independent of the
        boundaries before it: their boundaries form a basis of the image of
        d_q, so a linear check on boundaries need only run over them."""
        return self._elimination(q)[1]

    def rank(self, q, chains=None):
        """The rank of d_q on block q, or on the span of `chains` in it."""
        if chains is None:
            return len(self.image_basis(q))
        red = RowReducer()
        for chain in chains:
            red.insert(self._image(q, self._vector(q, chain)))
        return red.dim

    def _solver(self, q):
        """(solver, representatives) of degree q: the elimination of
        d_{q + 1}, extended once by each cycle of degree q that it does not
        yet reach, tagged ("r", index), so it expresses every cycle."""
        memo = self._elimination(q + 1)
        solver, reps = memo[0], memo[3]
        if reps is None:
            keys, reps = self.basis.get(q, []), []
            for vec in self._elimination(q)[2]:
                if solver.express(vec) is None:
                    solver.add(vec, ("r", len(reps)))
                    reps.append({keys[p]: c for p, c in vec.items()})
            memo[3] = reps
        return solver, reps

    def homology(self, qs, representatives=False):
        """The Betti table of the degrees `qs`, with representatives when
        asked: one per dimension, or `InconsistencyError` is raised."""
        qs = sorted(qs)
        dims = {q: self.dim(q) - self.rank(q) - self.rank(q + 1) for q in qs}
        reps = {q: self._solver(q)[1] for q in qs} if representatives else None
        if reps and {q: len(reps[q]) for q in qs} != dims:
            raise InconsistencyError("representative homology disagrees "
                                     "with the dimension computation")
        return BettiTable(dims=dims, exact={q: True for q in qs},
                          representatives=reps)

    def class_coefficients(self, q, element):
        """Express a cycle's homology class in the representative basis of
        homology(..., representatives=True); returns {rep position:
        Fraction}.  Raises ValueError when the element is not a cycle."""
        vec = self._vector(q, element)
        if self._image(q, vec):
            raise ValueError(f"element is not a cycle class in degree {q}")
        combo = self._solver(q)[0].express(vec)
        return {tag[1]: c for tag, c in combo.items() if tag[0] == "r"}
