"""Matrix algebras, commutator structures, and the coinvariant models.

Builders that turn one structured algebra into another: the commutator
functor from homotopy-associative to homotopy-Lie structures, matrix
algebras M_n(A) and their Lie forms gl_n(A), and two presentations of the
coinvariant Chevalley-Eilenberg complex of gl_n(A): on zero-weight words
modulo the E_12 images, for any n, and on permutation words alone, at the
stable size n = max_degree + 1.

M_n(A) = A (x) M_n(K) is built by the matrix-unit rule: the matrix units
sit in degree 0 and multiply by E_ij E_jl = E_il, so an operation of A
on a (x) E letters is the base operation times the product of the
units, which is E_{i_1 j_k} along a chain of positions j_t = i_{t+1} and
zero off it.  No sign arises and no unit has to be found; the result is
re-certified all the same.

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
coinvariant Chevalley-Eilenberg complex is isomorphic to the zero-weight
words modulo the off-diagonal adjoint images of the opposite-weight
words.  With a strict unit in the base, relabelling the matrix positions
of a word fixes its class up to the Koszul sign of sorting, and modulo
these identities the single image E_12 . C_{e_2 - e_1} spans the
relations, for the reasons `GLCoinvariantModel` gives (Weyl, The
Classical Groups, for the first fundamental theorem of GL_n).
`gl_coinvariant_model` keeps one
representative per S_n-orbit of zero-weight words, drops an orbit whose
stabilizer acts by -1, and rewrites the E_12 images on representatives.
One walk along adjacent transpositions, carrying Koszul signs, visits
each orbit once: it signs every member against the representative and
finds a stabilizer acting by -1, and with the first two positions fixed
it picks one E_12 source word per orbit of those permutations, whose
images agree up to sign.  Its agreement with the simple-root
presentation, with the word-by-word build and with the generic
quotient-by-all-generators route is part of the test suite, not assumed
here.

Once n is at least the number of letters, no E_12 image is needed: at n =
max_degree + 1, `PermutationModel` presents the same quotient on the
orbits of permutation words alone, enumerated directly and canonicalized
by their cycles instead of by an orbit walk.  Its agreement with
`gl_coinvariant_model` at that size is part of the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ainfty import AInftyAlgebra, check_stasheff, check_strict_unit
from .graded import GradedSpace, add_into, canonical_sym, sign_of_arrangement
from .linfty import (
    CEModel,
    InconsistencyError,
    LInftyAlgebra,
    check_linfty,
    make_inner,
)

__all__ = [
    "MatrixAlgebraSpec",
    "GLCoinvariantModel",
    "lie_ify",
    "matrix_algebra",
    "gl",
    "gl_index",
    "gl_coinvariant_model",
    "PermutationModel",
    "gl_permutation_model",
    "InconsistencyError",
]


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
# Matrix algebras


@dataclass(frozen=True)
class MatrixAlgebraSpec:
    """A base algebra together with a matrix size n >= 1."""

    base: AInftyAlgebra
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"matrix size must be an integer >= 1, got {self.n!r}")


def matrix_algebra(spec):
    """M_n(A) = A (x) M_n(K), by the matrix-unit rule.

    The matrix units sit in degree 0, so no sign arises and

        m_k(a_1 (x) E_{i_1 j_1}, ..., a_k (x) E_{i_k j_k})
            = m_k(a_1, ..., a_k) (x) E_{i_1 j_k}

    when j_t = i_{t+1} for every t, and 0 otherwise: each entry of the base
    spreads over the chains of positions (i_1, ..., i_{k+1}).  The basis
    a (x) E_{i+1,j+1} is labelled "a*E{i+1}{j+1}" (with "_" between the
    two positions once n > 9) and laid out as a * n^2 + i * n + j, as
    `gl_index` states.  The unit sum_i 1 (x) E_ii is not a basis vector for
    n > 1, so none is declared; n = 1 returns the base itself.  The result
    is re-certified with `check_stasheff`.
    """
    base, n = spec.base, spec.n
    if n == 1:
        return base
    nn = n * n
    sep = "" if n <= 9 else "_"
    labels = tuple(f"{a}*E{i + 1}{sep}{j + 1}" for a in base.space.labels
                   for i in range(n) for j in range(n))
    degrees = tuple(d for d in base.space.degrees for _ in range(nn))
    ops = {}
    for k, table in base.ops.items():
        entries = ops[k] = {}
        for word, val in table.items():
            for chain in itertools.product(range(n), repeat=k + 1):
                corner = chain[0] * n + chain[-1]
                entries[tuple(a * nn + chain[t] * n + chain[t + 1]
                              for t, a in enumerate(word))] = \
                    {out * nn + corner: c for out, c in val.items()}
    result = AInftyAlgebra(GradedSpace(labels, degrees), ops,
                           name=f"M{n}({base.name or 'A'})")
    report = check_stasheff(result)
    if not report:
        raise ValueError(
            f"matrix construction failed certification: {report.witness}")
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


# ---------------------------------------------------------------------------
# The coinvariant model of gl_n(A) in zero weight


@dataclass
class _MatrixWordModel(CEModel):
    """What both presentations of the coinvariant complex of gl_n(A) share:
    the (base index, row, column) table of the flat indices of M_n(A), the
    memo of `canonical`, and the block sum of two canonical words."""

    n: int = field(kw_only=True)
    base: AInftyAlgebra = field(kw_only=True)
    _letters: tuple = field(init=False, repr=False)
    _canon: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n, dim = self.n, self.base.space.dim
        self._letters = tuple((a, i, j) for a in range(dim)
                              for i in range(n) for j in range(n))

    def block_sum(self, left, right):
        """(sign, representative) of the block sum of two canonical words:
        `right` moved onto the positions past the largest one `left`
        touches, the union sorted with its Koszul sign and sent through
        `canonical`.  Raises ValueError when the two do not fit side by
        side in n positions."""
        letters, n = self._letters, self.n
        shift = 1 + max((max(letters[x][1:]) for x in left), default=-1)
        moved = tuple(gl_index(n, self.base.space.dim, a, i + shift, j + shift)
                      for a, i, j in (letters[x] for x in right))
        sign, word = canonical_sym(left + moved, self.algebra.suspended)
        orbit_sign, rep = self.canonical(word)
        return sign * orbit_sign, rep


class GLCoinvariantModel(_MatrixWordModel):
    """The gl_n(K)-coinvariant Chevalley-Eilenberg complex of gl_n(A),
    presented on S_n-orbits of zero-weight words.

    The full complex splits over the weight lattice of the diagonal torus,
    whose matrix units act on a word by its total weight; every
    nonzero-weight summand is killed by its own torus action, and the
    zero-weight summand C_0 is quotiented by S, the sum of the root images
    E_alpha . C_{-alpha}.  Conjugation by a permutation matrix sigma acts
    on words letterwise, a (x) E_ij -> a (x) E_{sigma i, sigma j}, followed
    by the Koszul sign of `canonical_sym`, and it fixes every class of
    C_0 / S:

    * with a strict unit, exp(t E_ij) (i != j) acts on the complex and
      trivially on its coinvariants, because E_ij acts there by zero;
    * the diagonal torus acts trivially on weight zero;
    * every permutation matrix is a product of these two kinds.

    So w = +-sigma(w) modulo S (Weyl's first fundamental theorem for
    GL_n is the classical form of this).  `canonical` sends a word to
    (sign, representative of its orbit): the representative is the
    smallest member touching the positions 0..t-1, in (base, row, column)
    order, and an orbit whose stabilizer acts on it by -1 is zero in the
    quotient and gets sign 0.  Every root is Weyl-conjugate to e_1 - e_2,
    so the single image E_12 . C_{e_2 - e_1} spans S modulo these
    identities.  `blocks[q]` lists the non-vanishing orbit representatives
    of degree q and `spans[q]` the E_12 images written on representatives,
    in the degrees `CEModel` states.  Through max_degree the quotient is
    isomorphic to C_0 / S, which the test suite checks against the
    simple-root presentation.  The coproduct canonicalizes each tensor
    factor on its own, since S_n acts trivially on each factor C_0 / S.
    """

    def __post_init__(self):
        super().__post_init__()
        n, dim = self.n, self.base.space.dim
        # the flat index of every letter once positions k and k+1 swap
        self._swaps = []
        for k in range(n - 1):
            move = list(range(n))
            move[k], move[k + 1] = k + 1, k
            self._swaps.append(tuple(a * n * n + move[i] * n + move[j]
                                     for a, i, j in self._letters))
        # one layer of dim * (n + 1) bits per position: an odd letter
        # (a, i, j) sets bit a of layer i and bit dim + a * n + i of layer j
        degrees, width = self.algebra.suspended.degrees, dim * (n + 1)
        self._codes = tuple(
            (1 << (i * width + a)) | (1 << (j * width + dim + a * n + i))
            if degrees[x] % 2 else 0
            for x, (a, i, j) in enumerate(self._letters))

    def canonical(self, word):
        """The class of a canonical word in the quotient, as (sign,
        representative).  Sign 0 means the word is zero there: either its
        weight is nonzero (representative None) or its orbit's stabilizer
        acts on it by -1.  A zero-weight word is relabelled onto positions
        0..t-1 in their order, which keeps its letters sorted; the first
        such word of an orbit is walked by `_orbit`, and the answer for
        every member is memoized."""
        canon, letters, n = self._canon, self._letters, self.n
        if word not in canon:
            net = {}
            for x in word:
                _, i, j = letters[x]
                net[i] = net.get(i, 0) + 1
                net[j] = net.get(j, 0) - 1
            if any(net.values()):
                canon[word] = (0, None)
            else:
                place = {p: r for r, p in enumerate(sorted(net))}
                segment = tuple(a * n * n + place[i] * n + place[j]
                                for a, i, j in (letters[x] for x in word))
                if segment not in canon:
                    signs, vanishes = self._orbit(segment, 0)
                    rep = min(signs)
                    for member, sign in signs.items():
                        canon[member] = \
                            (0 if vanishes else sign * signs[rep], rep)
                canon[word] = canon[segment]
        return canon[word]

    def _orbit(self, word, fixed):
        """The orbit of a segment word under the permutations of its
        touched positions 0..t-1 that fix the first `fixed` of them, as
        ({member: sign}, vanishes): word = sign . member in the quotient,
        and `vanishes` says that a stabilizer acts by -1.

        The walk steps along the adjacent transpositions (k, k+1), fixed <=
        k < t-1, which generate those permutations.  A step carries the
        Koszul sign of re-sorting: in (base, row, column) order, (k, k+1)
        reverses the pairs of letters with one base letter whose rows are
        {k, k+1}, or whose rows agree and whose columns are {k, k+1}.  In
        the XOR of the letters' codes, layer k holds the parity of the odd
        letters of each base in row k and the odd letters of each (base,
        row) in column k, so the bits of layer k of code & (code >> width)
        count the pairs of odd letters that (k, k+1) reverses, modulo 2.
        A step onto a member already signed the other way closes a loop
        acting by -1."""
        letters, swaps, codes = self._letters, self._swaps, self._codes
        width = self.base.space.dim * (self.n + 1)
        layer = (1 << width) - 1
        top = 1 + max((max(letters[x][1:]) for x in word), default=-1)
        signs, todo, vanishes = {word: 1}, [word], False
        while todo:
            u = todo.pop()
            here, code = signs[u], 0
            for x in u:
                code ^= codes[x]
            pairs = code & (code >> width)
            for k in range(fixed, top - 1):
                flips = ((pairs >> k * width) & layer).bit_count()
                sign = -here if flips % 2 else here
                image = tuple(sorted([swaps[k][x] for x in u]))
                known = signs.get(image)
                if known is None:
                    signs[image] = sign
                    todo.append(image)
                elif known != sign:
                    vanishes = True
        return signs, vanishes


def _segment_words(space, letters, n, total_degree, weight):
    """The canonical words of one suspended degree and torus weight whose
    touched matrix positions are an initial segment {0, ..., t-1}, in
    `ce_words` order; `letters` is the model's (base index, row, column)
    table of the flat indices of M_n(A).

    Every S_n-orbit of zero-weight words has such a member, and so does
    every orbit of words of weight e_2 - e_1 under the permutations fixing
    the first two positions.  The letter a (x) E_{i+1,j+1} adds e_i - e_j
    to the weight, and a word of k letters touches at most k positions
    beyond those its weight forces, so only rows and columns below that
    bound are used.  One depth-first pass takes the letters row by row;
    once a letter of row i is taken, the rows above i are closed, since
    later letters can only enter them as columns.  A prefix is abandoned
    when a closed row has too few outgoing letters or is untouched where
    its weight needs none, when the closed rows need more incoming letters
    than the remaining degree allows (each letter has degree >= 1), or
    when its distance to `weight`, or the number of untouched positions
    below its largest touched one, exceeds twice the remaining degree.
    """
    if total_degree == 0:
        return [()] if not any(weight) else []
    degs = space.degrees
    target = list(weight)
    reach = min(n, total_degree + sum(abs(x) for x in target) // 2)
    alphabet = sorted((i, idx, j) for idx, (_, i, j) in enumerate(letters)
                      if i < reach and j < reach)
    alphabet = [(idx, degs[idx], i, j) for i, idx, j in alphabet]
    excess = [-x for x in target]     # weight so far minus the target
    hits = [0] * reach
    prefix = []
    out = []

    def extend(start, remaining, closed, debt, dist, count, top):
        # count: touched positions; top: 1 + the largest touched position
        for pos in range(start, len(alphabet)):
            idx, d, i, j = alphabet[pos]
            while closed < i:
                e = excess[closed]
                if e < 0 or (not hits[closed] and not target[closed]):
                    return
                debt += e
                closed += 1
            if debt > remaining:
                return
            if d > remaining or (prefix and prefix[-1] == idx and d % 2):
                continue
            moved = i != j
            if moved and j < closed and not excess[j]:
                continue
            step = 0
            if moved:
                a, b = excess[i], excess[j]
                step = abs(a + 1) + abs(b - 1) - abs(a) - abs(b)
                excess[i] = a + 1
                excess[j] = b - 1
            ends = (i, j) if moved else (i,)
            grown = count + sum(1 for p in ends if not hits[p])
            gaps = max(top, i + 1, j + 1) - grown
            left = remaining - d
            prefix.append(idx)
            if left == 0:
                if dist + step == 0 and gaps == 0:
                    out.append(tuple(sorted(prefix)))
            elif dist + step <= 2 * left and gaps <= 2 * left:
                for p in ends:
                    hits[p] += 1
                extend(pos, left, closed, debt - (moved and j < closed),
                       dist + step, grown, max(top, i + 1, j + 1))
                for p in ends:
                    hits[p] -= 1
            prefix.pop()
            if moved:
                excess[i] -= 1
                excess[j] += 1

    extend(0, total_degree, 0, 0, sum(abs(x) for x in target), 0, 0)
    return sorted(out)


def _require_strict_unit(base):
    unitality = check_strict_unit(base)
    if not unitality:
        reason, _, word = unitality.failures[0]
        raise ValueError(
            "the coinvariant model needs a base algebra with a strict unit "
            f"({reason} at {word})")


def gl_coinvariant_model(base, n, max_degree):
    """Build the zero-weight coinvariant model of gl_n(A) on S_n-orbits
    through the given degree.

    The base must carry a strict unit: it provides the copy of gl_n(K)
    acting by matrix units, and strictness makes every higher bracket
    with 1 (x) E vanish, so x -> [delta_ell, delta_x] is a Lie action of
    gl_n(K) and exp(t E_ij) acts on the complex.  As `GLCoinvariantModel`
    explains, the words of one S_n-orbit then agree in the quotient up to
    the sign `canonical` returns.  Every orbit has a member touching the
    positions 0..t-1, and only those words are enumerated and sent through
    `canonical`; the block of degree q lists the representatives of the
    orbits whose stabilizer does not act by -1.

    The zero-weight part of gl_n(K) . C is the sum of E_alpha . C_{-alpha}
    over the roots alpha (the torus acts by zero on weight zero).  For a
    root e_i - e_j pick tau with tau(1) = i and tau(2) = j; then
    E_ij . y = tau(E_12 . tau^{-1} y), whose class is that of E_12 .
    tau^{-1} y.  So the E_12 images of the words of weight e_2 - e_1 span
    the quotient's relations, and since E_12 . tau x = tau(E_12 . x) for
    every tau fixing the first two positions, the words touching an
    initial segment suffice.  The same identity gives one image per orbit
    of those tau: tau(E_12 . x) has the class of E_12 . x, so `reduce`
    sends the images of one orbit to one vector up to sign.  E_12 is
    evaluated on one word per orbit, which `_orbit` finds with positions 0
    and 1 fixed; the span, and so the fully reduced echelon of the
    quotient, is the same.  At n = 1 there is no root: every word is its
    own orbit and nothing is quotiented.

    Blocks run through max_degree + 1 and spans through max_degree, as
    `CEModel` states, so the E_12 images of the top block (most of the span
    generators) are never built.
    """
    _require_strict_unit(base)
    L = gl(MatrixAlgebraSpec(base, n))
    base_dim = base.space.dim
    susp = L.suspended
    model = GLCoinvariantModel(L, max_degree, {}, {}, n=n, base=base)

    zero = (0,) * n
    root = None
    if n > 1:
        # E_12 adds e_1 - e_2, so it maps the words of weight e_2 - e_1
        # into weight zero
        gen = {gl_index(n, base_dim, base.unit, 0, 1): Fraction(1)}
        root = ((-1, 1) + (0,) * (n - 2), make_inner(L, gen).coderivation())

    letters = model._letters
    for q in range(0, max_degree + 2):
        reps = set()
        for word in _segment_words(susp, letters, n, q, zero):
            sign, rep = model.canonical(word)
            if sign:
                reps.add(rep)
        if reps:
            model.blocks[q] = sorted(reps)
        if root is None or q > max_degree:
            continue
        weight, act = root
        gens, seen = [], set()
        for word in _segment_words(susp, letters, n, q, weight):
            if word in seen:
                continue
            seen.update(model._orbit(word, 2)[0])
            img = model.reduce(act.eval_word(word))
            if img:
                gens.append(img)
        if gens:
            model.spans[q] = gens
    return model


# ---------------------------------------------------------------------------
# The stable model on permutation words


class PermutationModel(_MatrixWordModel):
    """The coinvariant complex of gl_n(A) at n = max_degree + 1, presented
    on permutation words, with no quotient left to take.

    A permutation word uses each position it touches exactly once as a row
    and once as a column: its letters are a_p (x) E_{p, sigma(p)} for a
    permutation sigma of the touched positions.  Its S_n-orbit is a multiset
    of cyclic words of base letters, one per cycle of sigma, read along the
    cycle.  For n >= k the gl_n(K)-coinvariants of k letters have a basis of
    such orbits (the first and second fundamental theorems for GL_n;
    Procesi, Adv. Math. 19 (1976); Loday-Quillen, Comment. Math. Helv. 59
    (1984)), and a word of degree q has at most q letters, so through
    max_degree + 1 every block of C_0 / S is spanned, without relations, by
    the non-vanishing orbit representatives: `spans` is empty.  The
    differential, the coproduct factors that have zero weight and the block
    sum all stay on permutation words, since a bracket merges letters only
    along a chain of sigma.  A zero-weight word that is not a permutation
    word reaching `canonical` is a fault of the package.
    """

    def canonical(self, word):
        """The class of a canonical word, as (sign, representative): the
        cycle form of a permutation word, (0, None) on nonzero weight.

        The cycles of sigma are read from their smallest position, each
        rotated to its smallest reading, sorted by reading (stably), and
        their positions relabelled 0..t-1 in that order; the sign is the
        Koszul sign of re-sorting the relabelled letters.  The word is
        zero when its stabilizer acts by -1, that is when turning a
        periodic cycle onto itself (`_least_rotation`), or swapping two
        equal cycles of odd degree, has sign -1.  Memoized."""
        canon = self._canon
        if word in canon:
            return canon[word]
        letters, n = self._letters, self.n
        rows = [letters[x][1] for x in word]
        cols = [letters[x][2] for x in word]
        if sorted(rows) != sorted(cols):
            canon[word] = 0, None
            return canon[word]
        if len(set(rows)) < len(rows):
            raise InconsistencyError(
                f"the zero-weight word {word} of the permutation model is "
                "not a permutation word")
        degrees = self.algebra.suspended.degrees
        slot = {i: t for t, i in enumerate(rows)}
        cycles, seen, vanishes = [], set(), False
        for start in sorted(rows):
            if start in seen:
                continue
            path, i = [], start
            while i not in seen:
                seen.add(i)
                path.append(slot[i])
                i = cols[slot[i]]
            odd = sum(degrees[word[t]] % 2 for t in path)
            key, s, flips = _least_rotation(
                [letters[word[t]][0] for t in path], odd)
            vanishes = vanishes or flips
            cycles.append((key, odd, path[s:] + path[:s]))
        cycles.sort(key=lambda c: c[0])
        if any(a[0] == b[0] and a[1] % 2 for a, b in zip(cycles, cycles[1:])):
            vanishes = True
        place = {}
        for _, _, path in cycles:
            for t in path:
                place[rows[t]] = len(place)
        nn = n * n
        sign, rep = canonical_sym(
            tuple(letters[x][0] * nn + place[i] * n + place[j]
                  for x, i, j in zip(word, rows, cols)),
            self.algebra.suspended)
        canon[word] = (0 if vanishes else sign), rep
        return canon[word]

    def relations(self):
        """For each representative of degree <= max_degree and each adjacent
        transposition (k, k+1) of its touched positions: the relabelled
        word w minus its class sign . target, whose coproduct must vanish.

        These are the identifications the presentation makes at its
        representatives only, a generating set of the relabellings there;
        the check is not complete over all words."""
        letters, n = self._letters, self.n
        nn, susp = n * n, self.algebra.suspended
        for q in range(self.max_degree + 1):
            for rep in self.blocks.get(q, ()):
                top = 1 + max((max(letters[x][1:]) for x in rep), default=-1)
                for k in range(top - 1):
                    move = {k: k + 1, k + 1: k}
                    _, w = canonical_sym(
                        tuple(a * nn + move.get(i, i) * n + move.get(j, j)
                              for a, i, j in (letters[x] for x in rep)), susp)
                    sign, target = self.canonical(w)
                    relation = {w: 1}
                    if sign:
                        add_into(relation, target, -sign)
                    if relation:
                        yield q, relation


def _least_rotation(reading, odd):
    """(smallest rotation of a cyclic word, where it starts, whether turning
    the word onto itself acts by -1); `odd` counts its odd letters.  A word
    whose reading repeats r times turns onto itself by permuting each
    residue class of its odd letters in an r-cycle."""
    turns = [tuple(reading[s:] + reading[:s]) for s in range(len(reading))]
    key = min(turns)
    r = turns.count(key)
    return key, turns.index(key), (r - 1) * (odd // r) % 2 == 1


def _necklaces(degrees, top):
    """The cyclic words of base letters of total degree <= top, each as its
    smallest rotation, in sorted order, as (reading, degree) pairs; a
    cyclic word whose rotation onto itself acts by -1 is left out."""
    out = []
    reading = []

    def extend(degree):
        if reading:
            odd = sum(degrees[a] % 2 for a in reading)
            key, start, flips = _least_rotation(reading, odd)
            if not start and not flips:
                out.append((key, degree))
        for a, d in enumerate(degrees):
            if degree + d <= top:
                reading.append(a)
                extend(degree + d)
                reading.pop()

    extend(0)
    return sorted(out)


def gl_permutation_model(base, max_degree):
    """Build the stable coinvariant model of gl_n(A), n = max_degree + 1,
    on permutation words (see `PermutationModel`).

    The base must carry a strict unit, as for `gl_coinvariant_model`.
    gl_n(A) is built and certified by `gl`.  The orbits are enumerated
    directly: a block of degree q lists, for every multiset of cyclic words
    of total degree q whose stabilizer does not act by -1, the word that
    puts the cycles in sorted order on consecutive positions, each read
    from its first position.  That word is its own cycle form, with sign 1.
    """
    _require_strict_unit(base)
    n = max_degree + 1
    L = gl(MatrixAlgebraSpec(base, n))
    model = PermutationModel(L, max_degree, {}, {}, n=n, base=base)
    necklaces = _necklaces(base.suspended.degrees, n)
    nn = n * n

    def extend(start, room, cycles, out):
        if not room:
            word, offset = [], 0
            for reading in cycles:
                size = len(reading)
                word.extend(a * nn + (offset + s) * n + offset + (s + 1) % size
                            for s, a in enumerate(reading))
                offset += size
            out.append(tuple(sorted(word)))
            return
        for p in range(start, len(necklaces)):
            reading, d = necklaces[p]
            # two equal cycles of odd degree swap with sign -1
            if d > room or (cycles and cycles[-1] == reading and d % 2):
                continue
            cycles.append(reading)
            extend(p, room - d, cycles, out)
            cycles.pop()

    for q in range(max_degree + 2):
        reps = []
        extend(0, q, [], reps)
        if reps:
            model.blocks[q] = sorted(reps)
    return model
