"""Homology of finite chain complexes over Q, with optional block quotients.

A complex is a family of finite basis lists indexed by integer degree and a
differential lowering degree by one, given as a function on basis keys.  Each
block may additionally be quotiented by the span of supplied generators (the
differential must descend).  All arithmetic is exact.

Each degree's boundary is evaluated once, as the images of the quotient basis
in the quotient basis below; ranks, cycles and the per-degree solver that
holds boundaries, representatives and completing unit vectors all read from
it.  Reading representative coordinates off that solver is a chain map
p: C -> H that kills boundaries, so p (x) p gives the class of any cycle of
a tensor product of such complexes (Kunneth, over a field).
"""

from __future__ import annotations

from fractions import Fraction

from .graded import exact
from .rational_linalg import LinearSolver, RowReducer, kernel

__all__ = ["BettiTable", "ChainComplex"]


class BettiTable:
    """Homology dimensions by degree, with per-degree certification flags.

    `exact[q]` records whether dims[q] is complete as stated (no truncation
    artifact); callers that cap weights or degrees clear it accordingly.
    `block_dims[q]` is the chain-level dimension (after any quotient).
    Tables compare by value.
    """

    def __init__(self, dims, exact=None, block_dims=None,
                 representatives=None):
        self.dims = dims
        self.exact = {} if exact is None else exact
        self.block_dims = {} if block_dims is None else block_dims
        self.representatives = representatives

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dims, self.exact, self.block_dims,
                self.representatives) == (other.dims, other.exact,
                                          other.block_dims,
                                          other.representatives)

    def as_row(self, qs=None):
        qs = sorted(self.dims) if qs is None else list(qs)
        return tuple(self.dims.get(q, 0) for q in qs)


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
            if q not in self.blocks:
                continue
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
        self._boundaries, self._image_bases, self._solvers = {}, {}, {}

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

    def residual(self, q, element):
        """The canonical representative of a chain modulo the quotient span,
        over the quotient basis keys."""
        return {self.basis[q][p]: v
                for p, v in self._vector(q, element).items()}

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

    def image_basis(self, q):
        """The positions in `basis[q]` whose boundary is independent of the
        boundaries before it: their boundaries form a basis of the image of
        d_q, so a linear check on boundaries need only run over them."""
        if q not in self._image_bases:
            red = RowReducer()
            self._image_bases[q] = [p for p, col in enumerate(self._boundary(q))
                                    if red.insert(col) is not None]
        return self._image_bases[q]

    def _rank(self, q):
        return len(self.image_basis(q))

    def _solver(self, q):
        """(solver, representatives) of degree q: the solver holds the
        boundaries from degree q + 1, then the representatives, then unit
        vectors that complete a basis."""
        if q not in self._solvers:
            keys = self.basis.get(q, [])
            solver = LinearSolver(len(keys))
            for j, col in enumerate(self._boundary(q + 1)):
                solver.add(col, ("b", j))
            reps = []
            for row in kernel(self._boundary(q),
                              self.dim(q - 1)).canonical_rows():
                vec = dict(row)
                if solver.express(vec) is None:
                    solver.add(vec, ("r", len(reps)))
                    reps.append({keys[p]: c for p, c in vec.items()})
            for p in range(len(keys)):
                if p not in solver.red.rows:
                    solver.add({p: Fraction(1)}, ("u", p))
            self._solvers[q] = solver, reps
        return self._solvers[q]

    def homology(self, qs, representatives=False):
        qs = sorted(qs)
        dims, block_dims = {}, {}
        for q in qs:
            block_dims[q] = self.dim(q)
            dims[q] = block_dims[q] - self._rank(q) - self._rank(q + 1)
        reps = {q: self._solver(q)[1] for q in qs} if representatives else None
        return BettiTable(dims=dims, exact={q: True for q in qs},
                          block_dims=block_dims, representatives=reps)

    def _read(self, q, vec):
        combo = self._solver(q)[0].express(vec)
        return {tag[1]: c for tag, c in combo.items() if tag[0] == "r"}

    def project(self, q, element):
        """The representative coordinates of any chain of degree q:
        {representative position: Fraction}.  Boundaries and the completing
        unit vectors read as zero, so this is a chain map onto homology."""
        return self._read(q, self._vector(q, element))

    def class_coefficients(self, q, element):
        """Express a cycle's homology class in the representative basis of
        homology(..., representatives=True); returns {rep position:
        Fraction}.  Raises ValueError when the element is not a cycle."""
        vec = self._vector(q, element)
        if self._image(q, vec):
            raise ValueError(f"element is not a cycle class in degree {q}")
        return self._read(q, vec)
