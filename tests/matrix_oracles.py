"""Element-level references for matrix algebras over a base: corner
inclusions, sparse matrix elements and the interleaved block sum.

They check the brackets that `gl` builds: the corner inclusion
gl_p(A) -> gl_q(A) and the block sum gl_n(A) x gl_n(A) -> gl_2n(A) must
intertwine them exactly.  The one-model block-sum product of
`lqt.hopf_product_on_homology` rests on the second fact in its coinvariant
form: letters on disjoint matrix positions have zero brackets.
"""

from dataclasses import dataclass
from fractions import Fraction

from homotopyalg.constructions import gl_entry, gl_index
from homotopyalg.graded import add_into


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
            for idx, c2 in algebra.ell.apply((i,)).items():
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
