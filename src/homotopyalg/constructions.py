"""Matrix algebras, commutator structures, and the coinvariant models.

Builders that turn one structured algebra into another: the commutator
functor from homotopy-associative to homotopy-Lie structures, matrix
algebras M_n(A) and their Lie forms gl_n(A), and the coinvariant
Chevalley-Eilenberg complex of gl_n(A) for every n, all read off one
stable model.

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

gl_n(A) carries the adjoint action of the matrix units of gl_n(K), and so
does gl_n(I) for the ideal I of an augmented base (`augmentation_ideal`).  At
N = max_degree + 1, `PermutationModel(base, max_degree)` presents the
coinvariants of its Chevalley-Eilenberg complex on the orbits of
permutation words: a word of degree q has at most q letters, and for
N >= k the coinvariants of k letters have a basis of such orbits (the
first and second fundamental theorems for GL_N).

Every other size is a subcomplex of that one, not a quotient.  The corner
inclusion gl_n(A) -> gl_N(A) is a strict L-infinity map, and it is
injective on coinvariants: its dual restricts the trace invariants
tr_sigma of gl_N to gl_n, which by the first fundamental theorem for GL_n
span the invariants of gl_n (Procesi, Adv. Math. 19 (1976); Loday-Quillen,
Comment. Math. Helv. 59 (1984)).  So `gl_coinvariant_model` presents gl_n(A)
as the span of the classes of the words on the positions below n.  By the
splitting identity (`_split`), the class of a word is the sum over its
matchings - the bijections that send each letter to a letter whose row is
its column - of the permutation words that give each letter a position of
its own, with Koszul signs.  No root image, orbit walk or quotient echelon
is needed; the E_12 presentation is the test suite's oracle.
"""

from __future__ import annotations

import itertools
import math

from .ainfty import AInftyAlgebra, check_stasheff
from .chain import BettiTable
from .graded import GradedSpace, add_into, canonical_sym, sign_of_arrangement
from .linfty import (
    CEModel,
    InconsistencyError,
    LInftyAlgebra,
    ce_words,
    check_linfty,
)
from .rational_linalg import RowReducer

__all__ = [
    "GLCoinvariantModel",
    "augmentation_ideal",
    "lie_ify",
    "matrix_algebra",
    "gl",
    "gl_index",
    "gl_coinvariant_model",
    "PermutationModel",
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
    check_linfty(result, max_arity=cap).require(
        "commutator structure failed certification")
    return result


# ---------------------------------------------------------------------------
# Matrix algebras


def matrix_algebra(base, n):
    """M_n(A) = A (x) M_n(K), by the matrix-unit rule, for an integer n >= 1.

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
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix size must be an integer >= 1, got {n!r}")
    if n == 1:
        return base
    dim = base.space.dim
    sep = "" if n <= 9 else "_"
    labels = tuple(f"{a}*E{i + 1}{sep}{j + 1}" for a in base.space.labels
                   for i in range(n) for j in range(n))
    degrees = tuple(d for d in base.space.degrees for _ in range(n * n))
    ops = {}
    for k, table in base.ops.items():
        entries = ops[k] = {}
        for word, val in table.items():
            for chain in itertools.product(range(n), repeat=k + 1):
                entries[tuple(gl_index(n, dim, a, chain[t], chain[t + 1])
                              for t, a in enumerate(word))] = \
                    {gl_index(n, dim, out, chain[0], chain[-1]): c
                     for out, c in val.items()}
    result = AInftyAlgebra(GradedSpace(labels, degrees), ops,
                           name=f"M{n}({base.name or 'A'})")
    check_stasheff(result).require("matrix construction failed certification")
    return result


def gl(base, n):
    """gl_n(A): the commutator structure on the matrix algebra M_n(A).

    Defined as lie_ify(matrix_algebra(base, n)); for n = 1 this is the
    commutator structure on the base itself.
    """
    result = lie_ify(matrix_algebra(base, n))
    result.name = f"gl{n}({base.name or 'A'})"
    return result


def augmentation_ideal(base):
    """The ideal spanned by the basis elements of a strictly unital base
    other than its unit, as an algebra of its own, or None when they span
    no ideal.

    They span one exactly when no entry of an operation whose inputs are
    all non-unit letters has a unit component, which one pass over
    `base.ops` decides: an entry with a unit input is 1 a = a = a 1 or
    zero, by the strict unit.  The base is then augmented, A = K + I, and
    I keeps the restricted operations, on the non-unit letters in their
    order, certified with `check_stasheff`.
    """
    unit, space = base.unit, base.space
    letters = [a for a in range(space.dim) if a != unit]
    index = {a: t for t, a in enumerate(letters)}
    ops = {}
    for k, table in base.ops.items():
        entries = ops[k] = {}
        for word, val in table.items():
            if unit in word:
                continue
            if unit in val:
                return None
            entries[tuple(index[a] for a in word)] = \
                {index[b]: c for b, c in val.items()}
    result = AInftyAlgebra(
        GradedSpace([space.labels[a] for a in letters],
                    [space.degrees[a] for a in letters]),
        ops, name=f"I({base.name or 'A'})")
    check_stasheff(result).require("augmentation ideal failed certification")
    return result


def gl_index(n, base_dim, a, i, j):
    """Flat basis index of a (x) E_{i+1,j+1} in M_n(A)."""
    if not (0 <= a < base_dim and 0 <= i < n and 0 <= j < n):
        raise ValueError(f"entry ({a}, {i}, {j}) out of range for "
                         f"{n} x {n} matrices over a {base_dim}-dimensional base")
    return a * n * n + i * n + j


# ---------------------------------------------------------------------------
# The stable model on permutation words


class PermutationModel(CEModel):
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
    max_degree + 1 every block of the coinvariant complex has a basis of
    the non-vanishing orbit representatives: `spans` is empty.  The
    differential, the coproduct factors that have zero weight and the block
    sum all stay on permutation words, since a bracket merges letters only
    along a chain of sigma.  A zero-weight word that is not a permutation
    word reaching `canonical` is a fault of the package.

    The matrix units act on gl_n(A) through the factor M_n(K), whether or
    not the base has a unit, and the model is that of the coinvariants of
    this gl_n(K)-action; gl_n(A) is built and certified by `gl`.  Only with
    a strict unit is gl_n(K) inside gl_n(A), acting by inner derivations,
    so that the coinvariants have the homology of gl_n(A) itself: a caller
    that reads the model so checks the unit first with
    `require_strict_unit`, as `lqt.verify_lqt` does.  A base without a unit
    is, for instance, the ideal of `augmentation_ideal`.  The orbits are
    enumerated directly: a block of degree q lists, for every multiset of
    cyclic words of total degree q whose stabilizer does not act by -1,
    the word that puts the cycles in sorted order on consecutive
    positions, each read from its first position.  That word is its own
    cycle form, with sign 1.

    `_letters` is the (base index, row, column) table of the flat indices
    of M_n(A), and `_canon` the memo of `canonical`.  A canonical word of k
    letters touches exactly the positions 0..k-1.
    """

    def __init__(self, base, max_degree):
        self.n = n = max_degree + 1
        dim = base.space.dim
        necklaces = _necklaces(base.suspended.degrees, n)
        # the multisets are the canonical symmetric words over the
        # necklaces: two equal cycles of odd degree swap with sign -1
        degrees = [d for _, d in necklaces]
        blocks = {}
        for q in range(max_degree + 2):
            reps = []
            for picks in ce_words(degrees, q):
                word, offset = [], 0
                for p in picks:
                    reading = necklaces[p][0]
                    size = len(reading)
                    word.extend(gl_index(n, dim, a, offset + s,
                                         offset + (s + 1) % size)
                                for s, a in enumerate(reading))
                    offset += size
                reps.append(tuple(sorted(word)))
            if reps:
                blocks[q] = sorted(reps)
        super().__init__(gl(base, n), max_degree, blocks, {})
        self._letters = tuple((a, i, j) for a in range(dim)
                              for i in range(n) for j in range(n))
        self._canon = {}

    def relabel(self, entries, rows, cols=None):
        """The flat indices of the letters `entries`, given as (base index,
        row, column) triples, with row i moved to rows[i] and column j to
        cols[j] (to rows[j] when `cols` is None), in the order given."""
        n, cols = self.n, rows if cols is None else cols
        return tuple((a * n + rows[i]) * n + cols[j] for a, i, j in entries)

    def block_sum(self, left, right):
        """(sign, representative) of the block sum of two canonical words:
        `right` moved past the positions 0..len(left)-1 that `left`
        touches, and the concatenation sent through `canonical`, which
        signs it against the order it is given in.  Raises ValueError when
        the two do not fit side by side in n positions."""
        shift = len(left)
        if shift + len(right) > self.n:
            raise ValueError(f"block sum of {shift} and {len(right)} "
                             f"positions out of range for n = {self.n}")
        return self.canonical(left + self.relabel(
            [self._letters[x] for x in right], range(shift, self.n)))

    def canonical(self, word):
        """The class of a word of distinct letters, given in any order, as
        (sign, representative): the cycle form of a permutation word,
        (0, None) on nonzero weight.

        The cycles of sigma are read from their smallest position, each
        rotated to its smallest reading, sorted by reading (stably), and
        their positions relabelled 0..t-1 in that order; the sign is the
        Koszul sign of sorting the relabelled letters from the order given.
        The word is zero when its stabilizer acts by -1, that is when
        turning a periodic cycle onto itself (`_least_rotation`), or
        swapping two equal cycles of odd degree, has sign -1.  Memoized."""
        canon = self._canon
        if word in canon:
            return canon[word]
        entries = [self._letters[x] for x in word]
        rows = [i for _, i, _ in entries]
        cols = [j for _, _, j in entries]
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
                [entries[t][0] for t in path], odd)
            vanishes = vanishes or flips
            cycles.append((key, odd, path[s:] + path[:s]))
        cycles.sort(key=lambda c: c[0])
        if any(a[0] == b[0] and a[1] % 2 for a, b in zip(cycles, cycles[1:])):
            vanishes = True
        place = {}
        for _, _, path in cycles:
            for t in path:
                place[rows[t]] = len(place)
        sign, rep = canonical_sym(self.relabel(entries, place),
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
        letters, susp = self._letters, self.algebra.suspended
        for q in range(self.max_degree + 1):
            for rep in self.blocks.get(q, ()):
                entries = [letters[x] for x in rep]
                for k in range(len(rep) - 1):
                    move = list(range(len(rep)))
                    move[k], move[k + 1] = k + 1, k
                    _, w = canonical_sym(self.relabel(entries, move), susp)
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
    cyclic word whose rotation onto itself acts by -1 is left out.

    Generated directly (Fredricksen-Kessler-Maiorana; Ruskey, Savage and
    Wang, J. Algorithms 13 (1992)): a prefix of a smallest rotation, of
    length t with a longest Lyndon prefix of length p, extends only by the
    letters b >= reading[t - p]; p stays when b equals that letter and
    becomes t + 1 otherwise, and the prefix is itself a smallest rotation
    exactly when p divides t.  Depth first in increasing letters, the
    prefixes come in sorted order.  A word of period p repeats r = t / p
    times, and whether turning it onto itself acts by -1 is read from
    `_least_rotation`."""
    out, reading = [], []

    def extend(degree, odd, p):
        t = len(reading)
        if not t % p and not _least_rotation(reading, odd)[2]:
            out.append((tuple(reading), degree))
        low = reading[t - p]
        for b in range(low, len(degrees)):
            d = degrees[b]
            if degree + d <= top:
                reading.append(b)
                extend(degree + d, odd + d % 2, p if b == low else t + 1)
                reading.pop()

    for a, d in enumerate(degrees):
        if d <= top:
            reading.append(a)
            extend(d, d % 2, 1)
            reading.pop()
    return out


# ---------------------------------------------------------------------------
# Every size through the corner inclusion


class GLCoinvariantModel:
    """The coinvariant complex of gl_n(A) through degree max_degree + 1, as
    the image U of the corner inclusion in the stable model: `blocks[q]` is
    a basis of U_q, each vector a chain over the stable keys (the columns
    of its echelon), and `spans` is empty, since nothing is quotiented."""

    def __init__(self, stable, n, blocks):
        self.stable = stable
        self.n = n
        self.blocks = blocks
        self.spans = {}

    @property
    def max_degree(self):
        return self.stable.max_degree

    def homology(self):
        """Exact homology in degrees 0..max_degree.  U is a subcomplex, so
        dim H_q = dim U_q - rank d(U_q) - rank d(U_{q+1}), with d the
        memoized boundary of the stable complex; a block as long as the
        stable one is all of it and takes the stable rank."""
        cx, rank = self.stable.complex(), {}
        for q, chains in self.blocks.items():
            if len(chains) == len(self.stable.blocks[q]):
                rank[q] = cx._rank(q)
                continue
            red = RowReducer()
            for chain in chains:
                red.insert(cx.differential(q, chain))
            rank[q] = red.dim
        degrees = range(self.max_degree + 1)
        return BettiTable(
            dims={q: len(self.blocks.get(q, ())) - rank.get(q, 0)
                  - rank.get(q + 1, 0) for q in degrees},
            exact=dict.fromkeys(degrees, True))


def gl_coinvariant_model(stable, n):
    """The coinvariant complex of gl_n(A), n >= 1, inside the stable
    `PermutationModel` (see the module docstring): a basis of the span of
    the classes `_corner_classes` yields.  A block whose
    representatives have at most n letters each is all of U_q: each is its
    own class.  For n >= stable.n every word of degree <= stable.n has at
    most n letters, so U is the whole stable complex."""
    if n < 1:
        raise ValueError(f"matrix size must be an integer >= 1, got {n!r}")
    blocks = {}
    for q in range(stable.max_degree + 2):
        reps = stable.blocks.get(q, ())
        if reps and all(len(rho) <= n for rho in reps):
            blocks[q] = [{rho: 1} for rho in reps]
            continue
        red, basis = RowReducer(), []
        for _, chain in _corner_classes(stable, n, q):
            if red.insert(chain) is not None:
                basis.append(chain)
        if basis:
            blocks[q] = basis
    return GLCoinvariantModel(stable, n, blocks)


def _corner_classes(stable, n, q):
    """(word, class) pairs whose classes span U_q: words of degree q on the
    positions below n, with their classes over the stable keys.

    Every zero-weight word of gl_n(A) is a collapse of a stable
    representative rho of k letters: its positions glued along a partition.
    Coarser collapses are sums of finer ones, so the partitions into
    min(k, n) blocks suffice; for k <= n that is rho itself.  A collapse
    with a repeated odd letter is zero, and one whose
    `_first_appearance_form` was seen lies in the S_n-orbit of an earlier
    one."""
    letters, susp = stable._letters, stable.algebra.suspended
    seen = set()
    for rho in stable.blocks.get(q, ()):
        entries = [letters[x] for x in rho]
        for part in _set_partitions(len(rho), min(len(rho), n)):
            sign, word = canonical_sym(stable.relabel(entries, part), susp)
            if not sign:
                continue
            key = _first_appearance_form(word, stable)
            if key not in seen:
                seen.add(key)
                yield word, {rep: sign * c for rep, c in
                             _split(stable, entries, part).items()}


def _split(stable, entries, part):
    """The splitting identity: the class, over the stable keys, of the
    letters `entries` of a permutation word rho in the order given, with
    their positions glued along `part`.  Its matchings are the
    permutations tau keeping each block of `part`, and it is the sum of rho
    with its columns moved by tau, each term sent through `canonical`.  The
    rows of rho are distinct, so moving columns keeps its letters sorted and
    no Koszul sign arises."""
    rows = tuple(range(stable.n))
    blocks = [[p for p, c in enumerate(part) if c == b]
              for b in set(part)]
    chain = {}
    for images in itertools.product(*map(itertools.permutations, blocks)):
        tau = {}
        for block, image in zip(blocks, images):
            tau.update(zip(block, image))
        sign, rep = stable.canonical(stable.relabel(entries, rows, tau))
        add_into(chain, rep, sign)
    return chain


def _set_partitions(k, n, part=()):
    """The partitions of the positions 0..k-1 into exactly n blocks that
    extend `part`, each as the tuple of the block of every position, blocks
    numbered by first appearance."""
    used = max(part, default=-1) + 1
    if len(part) == k:
        if used == n:
            yield part
    # every block not yet opened needs a position of its own
    elif n - used <= k - len(part):
        for b in range(min(used + 1, n)):
            yield from _set_partitions(k, n, part + (b,))


def _first_appearance_form(word, stable):
    """The word of `stable` with its positions renumbered by first
    appearance along its letters and re-sorted, until nothing changes: a
    relabelling, so words of two S_N-orbits never share it.  A pass that
    moves a letter fixes the letters before the first one it moves and
    lowers that one, so the sorted word decreases and the passes end."""
    while True:
        entries = [stable._letters[x] for x in word]
        place = {}
        for _, i, j in entries:
            place.setdefault(i, len(place))
            place.setdefault(j, len(place))
        moved = tuple(sorted(stable.relabel(entries, place)))
        if moved == word:
            return word
        word = moved
