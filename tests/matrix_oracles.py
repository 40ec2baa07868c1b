"""Element-level references for matrix algebras over a base: M_n(A) entry
by entry, corner inclusions, sparse matrix elements and the interleaved
block sum.

`entrywise_matrix_algebra` is the reference that `matrix_algebra` must
reproduce.  The others check the brackets that `gl` builds: the corner
inclusion gl_p(A) -> gl_q(A) and the block sum gl_n(A) x gl_n(A) ->
gl_2n(A) must intertwine them exactly.  The one-model block-sum product of
`lqt.hopf_product_on_homology` rests on the second fact in its coinvariant
form: letters on disjoint matrix positions have zero brackets.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from homotopyalg.ainfty import AInftyAlgebra
from homotopyalg.constructions import gl_index
from homotopyalg.graded import GradedSpace, add_into


def gl_entry(idx, n, base_dim):
    """Inverse of gl_index: flat index -> (base index, row, column)."""
    a, rest = divmod(idx, n * n)
    if not 0 <= a < base_dim:
        raise ValueError(f"index {idx} out of range")
    i, j = divmod(rest, n)
    return a, i, j


def entrywise_matrix_algebra(base, n):
    """M_n(A) = A (x) M_n(K) entry by entry, without certification.

    Every operation entry of the base meets every tuple of matrix units;
    the units are multiplied one at a time, E_ij E_kl = [j = k] E_il, and a
    tuple whose product vanishes contributes nothing.  Labels and layout
    are those of `gl_index`; at n = 1 the labels are the base's (M_1(A) is
    A) and its unit is kept, while for n > 1 the unit sum_i 1 (x) E_ii is
    not a basis vector and none is declared.
    """
    units = list(itertools.product(range(n), repeat=2))
    sep = "" if n <= 9 else "_"
    labels = (base.space.labels if n == 1 else
              tuple(f"{a}*E{i + 1}{sep}{j + 1}" for a in base.space.labels
                    for i, j in units))
    degrees = tuple(d for d in base.space.degrees for _ in units)
    ops = {}
    for k, table in base.ops.items():
        for word, val in table.items():
            for tup in itertools.product(units, repeat=k):
                prod = tup[0]
                for i, j in tup[1:]:
                    prod = (prod[0], j) if prod[1] == i else None
                    if prod is None:
                        break
                if prod is None:
                    continue
                letters = tuple(gl_index(n, base.space.dim, a, i, j)
                                for a, (i, j) in zip(word, tup))
                out = ops.setdefault(k, {}).setdefault(letters, {})
                for x, c in val.items():
                    add_into(out, gl_index(n, base.space.dim, x, *prod), c)
    return AInftyAlgebra(GradedSpace(labels, degrees), ops,
                         unit=base.unit if n == 1 else None)


def corner_embed(element, p, q, base_dim=1):
    """Push an element of M_p(A) into the upper-left corner of M_q(A).

    Strict inclusion of structures: it intertwines every bracket and
    every operation exactly, which the test suite asserts on basis pairs.
    """
    if q < p:
        raise ValueError("corner embedding needs target size >= source size")
    out = {}
    for idx, c in element.items():
        a, i, j = gl_entry(idx, p, base_dim)
        out[gl_index(q, base_dim, a, i, j)] = Fraction(c)
    return {k: v for k, v in out.items() if v}


def corner_embed_word(word, p, q, base_dim=1):
    """corner_embed on each letter of a basis word (canonical order is
    preserved: the index map is strictly monotone on each matrix row
    block, and rows keep their relative order)."""
    mapped = []
    for idx in word:
        a, i, j = gl_entry(idx, p, base_dim)
        mapped.append(gl_index(q, base_dim, a, i, j))
    return tuple(mapped)


# ---------------------------------------------------------------------------
# Matrix elements and the interleaved block sum


@dataclass
class MatrixElement:
    """An element of M_n(A), stored sparsely as {(a, i, j): coefficient}.

    Keys are (base index, row, column) with 0-based matrix positions; a
    two-entry key (i, j) abbreviates base index 0.  `vector` converts to
    the flat index layout used by the structured algebras.
    """

    n: int
    entries: dict
    base_dim: int = 1

    def __post_init__(self):
        clean = {}
        for key, c in self.entries.items():
            if len(key) == 2:
                key = (0,) + tuple(key)
            a, i, j = key
            gl_index(self.n, self.base_dim, a, i, j)
            c = Fraction(c)
            if c:
                clean[(a, i, j)] = c
        self.entries = clean

    @classmethod
    def from_vector(cls, vec, n, base_dim=1):
        return cls(n, {gl_entry(i, n, base_dim): c for i, c in vec.items()},
                   base_dim)

    @property
    def vector(self):
        """Flat {index: Fraction} over the basis of M_n(A)."""
        return {gl_index(self.n, self.base_dim, a, i, j): c
                for (a, i, j), c in self.entries.items()}


def block_plus(x, y):
    """Interleaved block sum of matrix elements.

    In 1-based matrix positions, entry a_ij of x lands at the odd
    positions (2i-1, 2j-1) and entry b_ij of y at the even positions
    (2i, 2j) of a square matrix of size 2 max(p, q); every other entry is
    zero.  The two images commute, and the map intertwines the commutator
    brackets entry by entry (see check_block_sum_morphism).
    """
    if x.base_dim != y.base_dim:
        raise ValueError("block sum needs matching base algebras")
    size = 2 * max(x.n, y.n)
    entries = {}
    for (a, i, j), c in x.entries.items():
        entries[(a, 2 * i, 2 * j)] = c
    for (a, i, j), c in y.entries.items():
        entries[(a, 2 * i + 1, 2 * j + 1)] = c
    return MatrixElement(size, entries, x.base_dim)


def check_block_sum_morphism(gl_left, gl_right, gl_target, pairs):
    """Verify that the block sum intertwines the structure brackets.

    `pairs` is a list of ((x, x2), (y, y2)) with x, y elements of the
    left matrix size and x2, y2 of the right; for each pair the identity

        block_plus(l(x, y), l(x2, y2)) = l(block_plus(x, x2), block_plus(y, y2))

    is checked exactly for the binary bracket, and the unary bracket is
    checked to commute with the embedding when one is present.  Returns
    None on success or a witness tuple (arity, inputs, left, right).
    """
    def apply1(algebra, vec):
        out = {}
        for i, c in vec.items():
            for idx, c2 in algebra.coderivation.apply((i,)).items():
                add_into(out, idx, Fraction(c) * c2)
        return {k: v for k, v in out.items() if v}

    for (x, x2), (y, y2) in pairs:
        lhs = block_plus(
            MatrixElement.from_vector(
                gl_left.bracket2(x.vector, y.vector), x.n, x.base_dim),
            MatrixElement.from_vector(
                gl_right.bracket2(x2.vector, y2.vector), x2.n, x2.base_dim))
        rhs = gl_target.bracket2(block_plus(x, x2).vector,
                                 block_plus(y, y2).vector)
        if lhs.vector != rhs:
            return (2, (x, x2, y, y2), lhs.vector, rhs)
    if 1 in gl_left.ops or 1 in gl_right.ops or 1 in gl_target.ops:
        for (x, x2), (y, y2) in pairs:
            for u, u2 in ((x, x2), (y, y2)):
                lhs = block_plus(
                    MatrixElement.from_vector(
                        apply1(gl_left, u.vector), u.n, u.base_dim),
                    MatrixElement.from_vector(
                        apply1(gl_right, u2.vector), u2.n, u2.base_dim))
                rhs = apply1(gl_target, block_plus(u, u2).vector)
                if lhs.vector != rhs:
                    return (1, (u, u2), lhs.vector, rhs)
    return None
