"""Matrix algebras, commutator structures, and stabilization maps.

Builders that turn one structured algebra into another: the commutator
functor from homotopy-associative to homotopy-Lie structures, tensoring
with a degree-0 associative unital algebra, matrix algebras M_n(A) and
their Lie forms gl_n(A), corner inclusions, the interleaved block sum of
matrices, the trace, and the commutator-subspace membership test.

The Lie-ification antisymmetrizes the associative operations entry by
entry: an entry v -> mu_k(v) adds chi(v -> w) . prod_x mult_w(x)! . mu_k(v)
to the bracket l_k at the sorted word w, where chi is the sign of the
sorting permutation times its Koszul sign in unsuspended degrees, and a
word repeating a letter of even degree is skipped.  This is the full sum
over permutations l_k = sum_sigma chi(sigma) mu_k . sigma, grouped by the
entry each permutation reaches, so only the arities carried by the
associative structure occur; every result is re-certified rather than
trusted.

gl_n(A) carries the adjoint action of the matrix units of gl_n(K).  The
coinvariant Chevalley-Eilenberg complex splits over the weight lattice of
the diagonal torus, and every nonzero-weight summand dies in the
quotient: the coinvariant complex is isomorphic to the zero-weight words
modulo the off-diagonal adjoint images of the opposite-weight words.
When the base has a strict unit, every higher bracket with 1 (x) E
vanishes, so the matrix units act through a Lie action of gl_n(K).  Each
root alpha then gives an sl2 triple acting on every finite-dimensional
block, which is completely reducible over Q, so on weight zero
E_alpha . C_{-alpha} = E_{-alpha} . C_alpha; and every positive root unit
is an iterated commutator of the positive simple units E_{r,r+1}.  The
n-1 images of those units therefore already span the quotient.
`gl_coinvariant_model` materializes that small presentation exactly,
sorting the words of each degree by torus weight in one enumeration
pass; its agreement with the generic quotient-by-all-generators route,
and of its spans with the all-roots spans, is part of the test suite,
not assumed here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ainfty import AInftyAlgebra, check_stasheff, check_strict_unit
from .chain import ChainComplex
from .graded import GradedSpace, add_into, sign_of_arrangement
from .linfty import (
    LInftyAlgebra,
    check_linfty,
    coalgebra_on_homology,
    make_inner,
)
from .rational_linalg import LinearSolver

__all__ = [
    "MatrixAlgebraSpec",
    "MatrixElement",
    "GLCoinvariantModel",
    "lie_ify",
    "tensor_with_associative",
    "matrix_units",
    "matrix_algebra",
    "gl",
    "gl_index",
    "gl_entry",
    "corner_embed",
    "corner_embed_word",
    "block_plus",
    "check_block_sum_morphism",
    "trace",
    "in_commutator_subspace",
    "gl_coinvariant_model",
    "InconsistencyError",
]


class InconsistencyError(Exception):
    """Two routes of the package that must agree did not: an internal
    fault, never a property of the input algebra."""


# ---------------------------------------------------------------------------
# Lie-ification


def _antisymmetrize(space, ops, cap=None):
    """The brackets l_k = sum_sigma chi(sigma) mu_k . sigma of the
    unsuspended operations `ops` through arity `cap`, on ascending words,
    by the entrywise rule of the module docstring: the prod_x mult_w(x)!
    permutations that carry the sorted word w to an entry v all add the
    same term chi(v -> w) mu_k(v).
    """
    degs = space.degrees
    out = {}
    for k, table in ops.items():
        if cap is not None and k > cap:
            continue
        comp = out.setdefault(k, {})
        for v, val in table.items():
            order = sorted(range(k), key=v.__getitem__)
            w = tuple(v[i] for i in order)
            if any(a == b and degs[a] % 2 == 0 for a, b in zip(w, w[1:])):
                continue
            chi = (sign_of_arrangement([degs[i] for i in v], order)
                   * sign_of_arrangement((1,) * k, order))
            scale = chi * math.prod(math.factorial(w.count(x)) for x in set(w))
            target = comp.setdefault(w, {})
            for i, c in val.items():
                add_into(target, i, scale * c)
    return out


def lie_ify(alg, cap=None):
    """The homotopy Lie structure underlying a homotopy associative one.

    Each bracket is the antisymmetrization l_k = sum_sigma chi(sigma)
    mu_k . sigma, summed entry by entry over `alg.ops` (see
    `_antisymmetrize`); its suspension is the corestriction of
    "symmetrize, apply the associative coderivation, keep the weight-one
    part".  The result is certified with `check_linfty` before being
    returned; `cap` bounds both the arities built and the certification
    depth.

    An associative algebra yields the graded commutator and nothing else;
    a commutative one yields the abelian structure; a differential graded
    algebra yields the differential together with the graded commutator.
    """
    result = LInftyAlgebra(alg.space, _antisymmetrize(alg.space, alg.ops, cap),
                           name=f"{alg.name}^Lie" if alg.name else "")
    report = check_linfty(result, max_arity=cap)
    if not report:
        raise ValueError(
            f"commutator structure failed certification: {report.witness}")
    return result


# ---------------------------------------------------------------------------
# Tensor with a degree-0 associative unital algebra


def _two_sided_unit(alg):
    """Solve for a two-sided unit element of a degree-0 algebra.

    Returns {index: Fraction} with u * b = b * u = b for every basis b,
    or None when no such element exists.
    """
    dim = alg.space.dim
    solver = LinearSolver(2 * dim * dim)
    for j in range(dim):
        vec = {}
        for b in range(dim):
            for out, c in alg.op_value(2, (j, b)).items():
                add_into(vec, b * dim + out, c)
            for out, c in alg.op_value(2, (b, j)).items():
                add_into(vec, dim * dim + b * dim + out, c)
        solver.add(vec, j)
    target = {}
    for b in range(dim):
        target[b * dim + b] = Fraction(1)
        target[dim * dim + b * dim + b] = Fraction(1)
    return solver.express(target)


def tensor_with_associative(alg, factor):
    """Tensor a homotopy associative algebra with an associative unital one.

    The factor must be concentrated in degree 0 with a single binary
    operation that is associative and admits a two-sided unit (both
    checked; the unit is solved for, so it need not be a basis vector).
    The result has basis a (x) b with the operations

        m'_k(a_1 (x) b_1, ..., a_k (x) b_k) = m_k(a_1, ..., a_k) (x) b_1 b_2 ... b_k,

    and no additional signs arise because every b_i sits in degree 0.
    Tensoring with a one-dimensional factor (the ground field) returns
    `alg` itself under the canonical identification.  The result is
    re-certified with check_stasheff.
    """
    if any(d != 0 for d in factor.space.degrees):
        raise ValueError("tensor factor must be concentrated in degree 0")
    if set(factor.ops) - {2}:
        raise ValueError("tensor factor must have only a binary operation")
    report = check_stasheff(factor)
    if not report:
        raise ValueError(
            f"tensor factor is not associative: witness {report.witness}")
    unit = _two_sided_unit(factor)
    if unit is None:
        raise ValueError("tensor factor has no two-sided unit")
    dim_b = factor.space.dim
    if dim_b == 1:
        return alg

    labels = tuple(f"{la}*{lb}" for la in alg.space.labels
                   for lb in factor.space.labels)
    degrees = tuple(d for d in alg.space.degrees for _ in range(dim_b))
    space = GradedSpace(labels, degrees)

    ops = {}
    for k, table in alg.ops.items():
        entries = {}
        for word, val in table.items():
            for bs in itertools.product(range(dim_b), repeat=k):
                prod = {bs[0]: Fraction(1)}
                for b in bs[1:]:
                    nxt = {}
                    for i, c in prod.items():
                        for out, c2 in factor.op_value(2, (i, b)).items():
                            add_into(nxt, out, c * c2)
                    prod = nxt
                    if not prod:
                        break
                if not prod:
                    continue
                new_word = tuple(a * dim_b + b for a, b in zip(word, bs))
                out_val = {}
                for a_out, ca in val.items():
                    for b_out, cb in prod.items():
                        add_into(out_val, a_out * dim_b + b_out, ca * cb)
                if out_val:
                    entries[new_word] = out_val
        if entries:
            ops[k] = entries

    new_unit = None
    if alg.unit is not None and len(unit) == 1:
        (b_idx, coeff), = unit.items()
        if coeff == 1:
            new_unit = alg.unit * dim_b + b_idx
    result = AInftyAlgebra(space, ops, unit=new_unit,
                           name=f"{alg.name or 'A'}(x){factor.name or 'B'}")
    report = check_stasheff(result)
    if not report:
        raise ValueError(
            f"tensor construction failed certification: {report.witness}")
    return result


# ---------------------------------------------------------------------------
# Matrix algebras


@dataclass(frozen=True)
class MatrixAlgebraSpec:
    """A base algebra together with a matrix size n >= 1."""

    base: AInftyAlgebra
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"matrix size must be an integer >= 1, got {self.n!r}")


def matrix_units(n):
    """The associative algebra of n x n matrix units over the rationals.

    E_ij E_kl = [j = k] E_il on the basis E_ij (row-major, 1-based
    labels).  For n = 1 the unit is the single basis vector; for larger n
    the unit is the non-basis element sum of the E_ii, which the tensor
    construction recovers by solving.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    sep = "" if n <= 9 else "_"
    labels = tuple(f"E{i + 1}{sep}{j + 1}" for i in range(n) for j in range(n))
    space = GradedSpace(labels, (0,) * (n * n))
    table = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j == k:
            table[(i * n + j, k * n + l)] = {i * n + l: Fraction(1)}
    return AInftyAlgebra(space, {2: table}, unit=0 if n == 1 else None,
                         name=f"M{n}(K)")


def matrix_algebra(spec):
    """M_n(A): the base tensored with the n x n matrix units.

    Basis index layout: a * n^2 + i * n + j for base index a and 0-based
    matrix position (i, j); n = 1 returns the base itself.
    """
    result = tensor_with_associative(spec.base, matrix_units(spec.n))
    if result is not spec.base:
        result.name = f"M{spec.n}({spec.base.name or 'A'})"
    return result


def gl(spec):
    """gl_n(A): the commutator structure on the matrix algebra M_n(A).

    Defined as lie_ify(matrix_algebra(spec)); for n = 1 this is the
    commutator structure on the base itself.
    """
    result = lie_ify(matrix_algebra(spec))
    result.name = f"gl{spec.n}({spec.base.name or 'A'})"
    return result


def gl_index(n, base_dim, a, i, j):
    """Flat basis index of a (x) E_{i+1,j+1} in M_n(A)."""
    if not (0 <= a < base_dim and 0 <= i < n and 0 <= j < n):
        raise ValueError(f"entry ({a}, {i}, {j}) out of range for "
                         f"{n} x {n} matrices over a {base_dim}-dimensional base")
    return a * n * n + i * n + j


def gl_entry(idx, n, base_dim):
    """Inverse of gl_index: flat index -> (base index, row, column)."""
    a, rest = divmod(idx, n * n)
    if not 0 <= a < base_dim:
        raise ValueError(f"index {idx} out of range")
    i, j = divmod(rest, n)
    return a, i, j


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
# Matrix elements, block sum, trace


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
    zero.  The two images commute, traces add, and the map intertwines
    the commutator brackets entry by entry (see
    check_block_sum_morphism).
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


def trace(x):
    """The trace of a matrix element: the sum of its diagonal entries, an
    element of the base algebra as {base index: Fraction}."""
    out = {}
    for (a, i, j), c in x.entries.items():
        if i == j:
            add_into(out, a, c)
    return out


def _commutator_span_vectors(n, base_dim):
    """Spanning vectors of [M_n(K), M_n(A)]: commutators of matrix units
    with the elements a (x) E_ij, written in the flat layout."""
    vectors = []
    for k, l in itertools.product(range(n), repeat=2):
        for a in range(base_dim):
            for i, j in itertools.product(range(n), repeat=2):
                vec = {}
                if l == i:
                    add_into(vec, gl_index(n, base_dim, a, k, j), Fraction(1))
                if j == k:
                    add_into(vec, gl_index(n, base_dim, a, i, l), Fraction(-1))
                vec = {c: v for c, v in vec.items() if v}
                if vec:
                    vectors.append(vec)
    return vectors


def in_commutator_subspace(x, n=None):
    """Whether x lies in [M_n(K), M_n(A)].

    Decided by the trace criterion - the subspace is exactly the kernel
    of the trace - and, whenever the ambient dimension is small enough,
    cross-checked by solving for an explicit combination of commutators
    of matrix units with basis elements.  A disagreement between the two
    routes raises instead of picking a side.
    """
    if n is None:
        n = x.n
    elif n != x.n:
        raise ValueError(f"element lives in size {x.n}, not {n}")
    by_trace = not trace(x)
    ambient = x.base_dim * n * n
    if ambient <= 100:
        solver = LinearSolver(ambient)
        for tag, vec in enumerate(_commutator_span_vectors(n, x.base_dim)):
            solver.add(vec, tag)
        explicit = solver.express(x.vector) is not None
        if explicit != by_trace:
            raise InconsistencyError(
                "trace criterion and explicit span membership disagree")
    return by_trace


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


# ---------------------------------------------------------------------------
# The coinvariant model of gl_n(A) in zero weight


@dataclass
class GLCoinvariantModel:
    """The gl_n(K)-coinvariant Chevalley-Eilenberg complex of gl_n(A),
    presented on zero-weight words.

    The full complex splits over the weight lattice of the diagonal torus,
    whose matrix units act on a word by its total weight; every
    nonzero-weight summand is killed by its own torus action.  On the
    zero-weight summand the quotient is by the images of the positive
    simple-root units: E_{r,r+1} on the words of weight e_{r+1} - e_r,
    r = 1..n-1.  These n-1 actions span the same subspace as all n(n-1)
    off-diagonal ones: the sl2 triple of a root alpha acts completely
    reducibly on each finite-dimensional block, so on weight zero
    E_alpha . C_{-alpha} = E_{-alpha} . C_alpha, and every positive root
    unit is an iterated commutator of positive simple ones (see
    `gl_coinvariant_model`).  The quotient complex is therefore
    isomorphic to the generic coinvariant complex, a fact the test suite
    verifies against the all-generators construction.  `blocks` holds
    the zero-weight words per degree and `spans` the simple-root images.
    The reduced complex and the homology coalgebra are each built once
    and cached.
    """

    algebra: LInftyAlgebra
    n: int
    base: AInftyAlgebra
    max_degree: int
    blocks: dict
    spans: dict
    _cx: object = field(default=None, repr=False)
    _coalg: object = field(default=None, repr=False)

    def complex(self):
        if self._cx is None:
            d = self.algebra.coderivation()
            self._cx = ChainComplex(self.blocks, lambda q, w: d.eval_word(w),
                                    quotient_spans=self.spans)
        return self._cx

    def homology(self, representatives=False):
        table = self.complex().homology(range(0, self.max_degree + 1),
                                        representatives=representatives)
        for q in table.dims:
            table.exact[q] = True
        table.caps = {"max_degree": self.max_degree,
                      "coinvariants": "matrix-units"}
        return table

    def coproduct(self):
        """The induced coalgebra on the coinvariant homology, computed on
        the reduced complex; descent of the coproduct to this quotient is
        verified at computation time."""
        if self._coalg is None:
            result = coalgebra_on_homology(
                self.algebra.suspended, self.complex(), self.max_degree,
                spans=self.spans)
            result.table.caps = {"max_degree": self.max_degree,
                                 "coinvariants": "matrix-units"}
            for q in result.table.dims:
                result.table.exact[q] = True
            self._coalg = result
        return self._coalg


def _root_weight(n, r, s):
    """Torus weight e_r - e_s of the matrix unit E_{r+1,s+1}."""
    wt = [0] * n
    wt[r] += 1
    wt[s] -= 1
    return tuple(wt)


def _weight_buckets(space, n, base_dim, total_degree, weights):
    """The canonical words of one suspended degree whose torus weight is in
    `weights`, as {weight: [word, ...]}.

    One depth-first pass in `ce_words` order, so each bucket lists its
    words in that order.  The running weight is updated letter by letter:
    the letter a (x) E_{i+1,j+1} adds e_i - e_j.  Every target weight has
    L1 norm at most 2, every letter has suspended degree at least 1 and
    moves the L1 norm by at most 2, so a prefix whose norm exceeds
    2 * (remaining degree + 1) is abandoned.
    """
    degs = space.degrees
    dim = space.dim
    rows, cols = [], []
    for idx in range(dim):
        _, i, j = gl_entry(idx, n, base_dim)
        rows.append(i)
        cols.append(j)
    buckets = {wt: [] for wt in weights}
    net = [0] * n
    prefix = []

    def extend(start, remaining, norm):
        for idx in range(start, dim):
            d = degs[idx]
            if d > remaining or (prefix and prefix[-1] == idx and d % 2):
                continue
            i, j = rows[idx], cols[idx]
            a, b = net[i], net[j]
            if i != j:
                net[i] = a + 1
                net[j] = b - 1
                step = abs(a + 1) + abs(b - 1) - abs(a) - abs(b)
            else:
                step = 0
            if d == remaining:
                if norm + step <= 2:
                    bucket = buckets.get(tuple(net))
                    if bucket is not None:
                        bucket.append((*prefix, idx))
            elif norm + step <= 2 * (remaining - d) + 2:
                prefix.append(idx)
                extend(idx, remaining - d, norm + step)
                prefix.pop()
            net[i], net[j] = a, b

    if total_degree == 0 and tuple(net) in buckets:
        buckets[tuple(net)].append(())
    extend(0, total_degree, 0)
    return buckets


def gl_coinvariant_model(base, n, max_degree):
    """Build the zero-weight coinvariant model of gl_n(A) through the
    given degree.

    The base must carry a strict unit: it provides the copy of gl_n(K)
    acting by matrix units, and strictness makes every higher bracket
    with 1 (x) E vanish, so x -> [delta_ell, delta_x] is a Lie action of
    gl_n(K).  The zero-weight part of gl_n(K) . C is the sum of
    E_alpha . C_{-alpha} over the roots alpha (the torus acts by zero on
    weight zero), and the n-1 positive simple-root images alone span it:

    * each root alpha gives an sl2 triple (E_alpha, E_{-alpha}, H_alpha)
      acting on the sum of the weight spaces C_{k alpha} of a degree
      block, a finite-dimensional representation and so completely
      reducible over Q.  In each irreducible summand E_alpha maps the
      H_alpha-weight -2 space onto the weight 0 space exactly when
      E_{-alpha} maps the weight 2 space onto it, so on weight zero
      E_alpha . C_{-alpha} = E_{-alpha} . C_alpha, and negative roots
      add nothing;
    * every positive root unit is an iterated commutator of positive
      simple ones, E_{i,j} = [E_{i,i+1}, E_{i+1,j}] for j > i + 1, so by
      induction on the height of beta = alpha + gamma with alpha simple,
      E_beta x = E_alpha E_gamma x - E_gamma E_alpha x lies in
      E_alpha . C_{-alpha} + E_gamma . C_{-gamma} for x in C_{-beta}.
    """
    unitality = check_strict_unit(base)
    if not unitality:
        reason, _, word = unitality.failures[0]
        raise ValueError(
            "the coinvariant model needs a base algebra with a strict unit "
            f"({reason} at {word})")
    L = gl(MatrixAlgebraSpec(base, n))
    base_dim = base.space.dim
    susp = L.suspended

    zero = (0,) * n
    simple = []
    for r in range(n - 1):
        gen = {gl_index(n, base_dim, base.unit, r, r + 1): Fraction(1)}
        act = make_inner(L, gen).coderivation()
        # E_{r+1,r+2} adds e_r - e_{r+1}, so it maps the words of weight
        # e_{r+1} - e_r into weight zero
        simple.append((_root_weight(n, r + 1, r), act))
    weights = [zero] + [wt for wt, _ in simple]

    blocks, spans = {}, {}
    for q in range(0, max_degree + 2):
        buckets = _weight_buckets(susp, n, base_dim, q, weights)
        if buckets[zero]:
            blocks[q] = buckets[zero]
        gens = []
        for wt, act in simple:
            for word in buckets[wt]:
                img = act.eval_word(word)
                if img:
                    gens.append(img)
        if gens:
            spans[q] = gens
    return GLCoinvariantModel(L, n, base, max_degree, blocks, spans)
