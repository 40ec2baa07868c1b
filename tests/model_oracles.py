"""Reference models: the E_12 presentation of the coinvariant model, its
simple-root and every-word variants, and the homology coalgebra with its
pair-complex reference.

`E12Model` and `e12_model` present the coinvariant Chevalley-Eilenberg
complex of gl_n(A), for any n, on zero-weight words modulo the adjoint
images of the opposite-weight words.  With a strict unit in the base,
relabelling the matrix positions of a word fixes its class up to the
Koszul sign of sorting, and modulo these identities the single image E_12
. C_{e_2 - e_1} spans the relations, for the reasons `E12Model` gives
(Weyl, The Classical Groups, for the first fundamental theorem of GL_n).
`e12_model` keeps one representative per S_n-orbit of zero-weight words,
drops an orbit whose stabilizer acts by -1, and rewrites the E_12 images
on representatives.  One walk along adjacent transpositions, carrying
Koszul signs, visits each orbit once: it signs every member against the
representative and finds a stabilizer acting by -1, and with the first two
positions fixed it picks one E_12 source word per orbit of those
permutations, whose images agree up to sign.  It is the oracle for both
models of the package: the permutation model at the stable size, and the
corner-inclusion subcomplex at every other size.  It keeps its own letter
table and block sum, so it shares no code with what it checks.

Before the orbit presentation, the E_12 build kept every zero-weight word
and quotiented by the images of the n-1 positive simple-root units
E_{r,r+1} on the words of weight e_{r+1} - e_r.  Those images span the
same subspace as all n(n-1) off-diagonal ones: the sl2 triple of a root
acts completely reducibly on each finite-dimensional block, so on weight
zero E_alpha . C_{-alpha} = E_{-alpha} . C_alpha, and every positive root
unit is an iterated commutator of positive simple ones.
`simple_root_model` keeps it as the reference the orbit model is compared
with.

Before orbit closure, the E_12 build evaluated E_12 on every segment word
of weight e_2 - e_1, although the words of one orbit under the
permutations fixing the first two positions give, up to sign, one image.
`every_word_model` keeps that route as the reference for the span
echelons of the orbit model.  Its zero-weight blocks are built as the
model builds them, every segment word sent through `canonical`, so the two
differ only on the E_12 source words.

`coalgebra_on_homology` is the homology coalgebra of a model: the reduced
shuffle coproduct taken on the quotient and read through the chain-level
projection p (x) p, with its descent, chain-map, representative-independence,
coassociativity and cocommutativity checks.  The package reads the
primitives of the stable model from its one-cycle words instead (see
`PermutationModel`), so this is the oracle those primitives are compared
with, and the route on which the Hopf identities of the homology are
checked.  Before the chain-level projection, the homology coproduct built
a second complex on pairs of quotient basis words and read classes there
against the tensor products of representatives; `pair_complex_coproduct`
keeps that route as the reference for `coalgebra_on_homology`.

Before the one-model product, the block-sum product was checked in the
doubled algebra gl_2n(A): chains of gl_n went into its odd and even slots,
and each product class was re-expressed through the corner inclusion in the
coordinates of size n.  `doubled_hopf_product` keeps that route as the
reference for `lqt.hopf_product_on_homology`.

Two read-offs of homology that only the tests use: `inner_action_on_homology`,
the induced map of an inner derivation, which the
inner-derivations-act-trivially lemma says is zero, and `primitive_dims`,
the dimension of every primitive subspace of a homology coalgebra.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from homotopyalg.ainfty import require_strict_unit
from homotopyalg.chain import BettiTable, ChainComplex, InconsistencyError
from homotopyalg.constructions import PermutationModel, gl, gl_index
from homotopyalg.graded import add_into, canonical_sym, unshuffle_splits
from homotopyalg.linfty import CEModel, ce_model, make_inner
from homotopyalg.rational_linalg import LinearSolver, RowReducer

from matrix_oracles import corner_embed_word, gl_entry


# ---------------------------------------------------------------------------
# The E_12 presentation


class E12Model(CEModel):
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

    `_letters` is the (base index, row, column) table of the flat indices
    of M_n(A), and `_canon` the memo of `canonical`.
    """

    def __init__(self, algebra, max_degree, blocks, spans, max_weight=None,
                 *, n, base):
        super().__init__(algebra, max_degree, blocks, spans, max_weight)
        self.n = n
        self.base = base
        dim = base.space.dim
        self._letters = tuple((a, i, j) for a in range(dim)
                              for i in range(n) for j in range(n))
        self._canon = {}
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

    def primitive_homology(self):
        """The primitive classes of `coalgebra_on_homology`, laid out as
        `PermutationModel.primitive_homology`: a table whose
        representatives are chains of the model spanning them."""
        coalg = coalgebra_on_homology(self)
        reps, chains = coalg.table.representatives, {}
        for q in reps:
            chains[q] = []
            for row in coalg.primitive_subspace(q).canonical_rows():
                chain = {}
                for i, c in row:
                    for w, c2 in reps[q][i].items():
                        add_into(chain, w, c * c2)
                chains[q].append(chain)
        return BettiTable(dims={q: len(cs) for q, cs in chains.items()},
                          representatives=chains)

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

def e12_model(base, n, max_degree):
    """Build the zero-weight coinvariant model of gl_n(A) on S_n-orbits
    through the given degree.

    The base must carry a strict unit: it provides the copy of gl_n(K)
    acting by matrix units, and strictness makes every higher bracket
    with 1 (x) E vanish, so x -> [delta_ell, delta_x] is a Lie action of
    gl_n(K) and exp(t E_ij) acts on the complex.  As `E12Model`
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
    require_strict_unit(base)
    L = gl(base, n)
    base_dim = base.space.dim
    susp = L.suspended
    model = E12Model(L, max_degree, {}, {}, n=n, base=base)

    zero = (0,) * n
    root = None
    if n > 1:
        # E_12 adds e_1 - e_2, so it maps the words of weight e_2 - e_1
        # into weight zero
        gen = {gl_index(n, base_dim, base.unit, 0, 1): Fraction(1)}
        root = ((-1, 1) + (0,) * (n - 2), make_inner(L, gen))

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
# Its simple-root and every-word variants


class SimpleRootModel(E12Model):
    """Every zero-weight word is its own basis key; a word of nonzero
    weight is zero in the quotient."""

    def canonical(self, word):
        net = [0] * self.n
        for x in word:
            _, i, j = self._letters[x]
            net[i] += 1
            net[j] -= 1
        return (0, None) if any(net) else (1, word)


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


def simple_root_model(base, n, max_degree):
    """The zero-weight words of gl_n(A) through the given degree, quotiented
    by the n-1 positive simple-root images."""
    L = gl(base, n)
    base_dim = base.space.dim
    zero = (0,) * n
    simple = []
    for r in range(n - 1):
        gen = {gl_index(n, base_dim, base.unit, r, r + 1): Fraction(1)}
        # E_{r+1,r+2} maps the words of weight e_{r+1} - e_r into weight zero
        simple.append((_root_weight(n, r + 1, r),
                       make_inner(L, gen)))
    weights = [zero] + [wt for wt, _ in simple]
    blocks, spans = {}, {}
    for q in range(0, max_degree + 2):
        buckets = _weight_buckets(L.suspended, n, base_dim, q, weights)
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
    return SimpleRootModel(L, max_degree, blocks, spans, n=n, base=base)


def every_word_model(base, n, max_degree):
    """The orbit model with E_12 evaluated on every segment word of weight
    e_2 - e_1, not on one per orbit."""
    L = gl(base, n)
    model = E12Model(L, max_degree, {}, {}, n=n, base=base)
    susp, letters = L.suspended, model._letters
    act = None
    if n > 1:
        gen = {gl_index(n, base.space.dim, base.unit, 0, 1): Fraction(1)}
        act = make_inner(L, gen)
    for q in range(0, max_degree + 2):
        reps = set()
        for word in _segment_words(susp, letters, n, q, (0,) * n):
            sign, rep = model.canonical(word)
            if sign:
                reps.add(rep)
        if reps:
            model.blocks[q] = sorted(reps)
        if act is None or q > max_degree:
            continue
        gens = []
        for word in _segment_words(susp, letters, n, q, _root_weight(n, 1, 0)):
            img = model.reduce(act.eval_word(word))
            if img:
                gens.append(img)
        if gens:
            model.spans[q] = gens
    return model


# ---------------------------------------------------------------------------
# The homology coalgebra


def word_degree(space, word):
    """The total degree of a word over `space`."""
    return sum(space.degrees[i] for i in word)


def coproduct_sym(word, space):
    """Shuffle coproduct on a canonical word, one term per shuffle, both
    counit terms included: {(left, right): sign}."""
    degs = [space.degrees[i] for i in word]
    out = {}
    for k in range(len(word) + 1):
        for sign, front, back in unshuffle_splits(word, degs, k):
            add_into(out, (front, back), sign)
    return out


def residual(cx, q, element):
    """The canonical representative of a chain of degree q of `cx` modulo
    its quotient span, over the quotient basis keys."""
    index, keys = cx.index.get(q, {}), cx.blocks.get(q, [])
    vec = {index[k]: c for k, c in element.items() if c}
    if q in cx.reducers:
        vec = cx.reducers[q].residual(vec)
    return {keys[c]: v for c, v in vec.items()}


def projection(cx):
    """The chain map p: C -> H of `cx`, as a function that sends a chain of
    degree q to its representative coordinates {representative position:
    Fraction}.  They are read off a solver per degree that holds the
    boundaries from degree q + 1, the representatives of `cx.homology` and
    unit vectors completing a basis; boundaries and the completing vectors
    read as zero, so p is a chain map, and p (x) p gives the class of any
    cycle of a tensor product of such complexes (Kunneth, over a field)."""
    solvers = {}

    def project(q, element):
        if q not in solvers:
            position = {k: p for p, k in enumerate(cx.basis.get(q, ()))}

            def vector(chain):
                return {position[k]: c for k, c in chain.items()}

            solver = LinearSolver(len(position))
            for j, key in enumerate(cx.basis.get(q + 1, ())):
                solver.add(vector(residual(cx, q, cx.diff(q + 1, key))),
                           ("b", j))
            reps = cx.homology([q], representatives=True).representatives[q]
            for i, rep in enumerate(reps):
                solver.add(vector(rep), ("r", i))
            for p in range(len(position)):
                if p not in solver.red.rows:
                    solver.add({p: Fraction(1)}, ("u", p))
            solvers[q] = solver, vector
        solver, vector = solvers[q]
        combo = solver.express(vector(residual(cx, q, element)))
        return {tag[1]: c for tag, c in combo.items() if tag[0] == "r"}

    return project


def relations(model):
    """(degree, element) pairs that are zero in the quotient of a model,
    whose coproducts `coalgebra_on_homology` checks.

    For a `PermutationModel`, for each representative of degree <=
    max_degree and each adjacent transposition (k, k+1) of its touched
    positions: the relabelled word w minus its class sign . target.  These
    are the identifications the presentation makes at its representatives
    only, a generating set of the relabellings there; the check is not
    complete over all words.  For any other model: every span generator."""
    if not isinstance(model, PermutationModel):
        for q, gens in sorted(model.spans.items()):
            for s in gens:
                yield q, s
        return
    letters, susp = model._letters, model.algebra.suspended
    for q in range(model.max_degree + 1):
        for rep in model.blocks.get(q, ()):
            entries = [letters[x] for x in rep]
            for k in range(len(rep) - 1):
                move = list(range(len(rep)))
                move[k], move[k + 1] = k + 1, k
                _, w = canonical_sym(model.relabel(entries, move), susp)
                sign, target = model.canonical(w)
                relation = {w: 1}
                if sign:
                    add_into(relation, target, -sign)
                if relation:
                    yield q, relation


class HomologyCoalgebra:
    """Homology with its induced coproduct in a fixed representative basis.

    A class is named (q, i), representative i of H_q.  `delta[q]` has one
    row per representative of H_q giving its reduced coproduct on the
    Kunneth basis of the degree-q homology of (C/S) (x) (C/S), keyed
    ((a, i), (b, j)) for class (a, i) tensor class (b, j), read through
    p (x) p from the chain-level projection p of the factor complex.
    Every check ran at construction time: the coproduct of every relation
    of the model vanishes in (C/S) (x) (C/S), the coproducts of the
    representatives and of the boundaries of the quotient basis words are
    cycles, the latter have zero class, and `delta` is coassociative and
    graded-cocommutative.
    """

    def __init__(self, table, delta):
        self.table = table
        self.delta = delta
        self._primitives = {}

    def primitive_subspace(self, q):
        """Primitive classes of H_q, as a RowReducer spanning them in its
        representative coordinates: the classes with vanishing reduced
        coproduct, and none in degree 0, where the counit splits them off.
        Its rows are the reduced echelon basis, whatever the order of the
        Kunneth columns.  It is computed once per degree and shared, so
        callers only read it."""
        if q not in self._primitives:
            rows = self.delta.get(q, []) if q else []
            tags = {t: i for i, t in enumerate(sorted(set().union(*rows)))}
            solver = LinearSolver(len(tags))
            for row in rows:
                solver.add({tags[t]: c for t, c in row.items()})
            null = RowReducer()
            for vec in solver.relations():
                null.insert(vec)
            self._primitives[q] = null
        return self._primitives[q]


def _coalgebra_defect(delta):
    """The first identity the reduced coproduct `delta` of a
    `HomologyCoalgebra` fails, as (identity, degree), or None.  Checked on
    every class x: coassociativity, (D (x) 1) D x = (1 (x) D) D x, where D
    has degree 0, so neither side carries a Koszul sign; and cocommutativity,
    D x fixed by the graded twist u (x) v -> (-1)^(|u||v|) v (x) u."""
    for q, rows in sorted(delta.items()):
        for row in rows:
            left, right = {}, {}
            for (u, v), c in row.items():
                for (u1, u2), c2 in delta[u[0]][u[1]].items():
                    add_into(left, (u1, u2, v), c * c2)
                for (v1, v2), c2 in delta[v[0]][v[1]].items():
                    add_into(right, (u, v1, v2), c * c2)
            if left != right:
                return "coassociative", q
            if row != {(v, u): -c if u[0] * v[0] % 2 else c
                       for (u, v), c in row.items()}:
                return "cocommutative", q
    return None


def coalgebra_on_homology(model):
    """Homology of a `CEModel` together with its induced coproduct.

    The reduced shuffle coproduct is taken on (C/S) (x) (C/S): each tensor
    factor is first sent through `model.canonical`, then replaced by its
    canonical `residual` in the quotient, and a factor whose key is absent
    from the complex counts as zero (in a graded presentation the absent
    words are exactly the ones the quotient map kills).  Classes are read
    through p (x) p, where p = `projection(cx)` is a chain map onto
    homology that kills boundaries and sends each representative to its
    basis vector; by the Kunneth theorem over a field, p (x) p sends a
    cycle of (C/S) (x) (C/S) to its class in the basis of representative
    pairs.
    Verified before that read-off: the coproduct of every element of
    `relations(model)` vanishes in (C/S) (x) (C/S) (descent); the
    coproducts of each representative and of a basis of each boundary
    image (`image_basis`) are cycles of the pair differential
    res(dx) (x) y + (-1)^|x| x (x) res(dy); and the latter have zero class
    (independence of the representative).  Both checks are linear, so that
    basis makes them complete.  Last, the coproduct on homology is checked
    coassociative and cocommutative under the graded twist on every class
    (`_coalgebra_defect`).  These hold whenever the relations are images of
    inner derivations or of relabellings by permutation matrices, because
    inner derivations and the differential are coderivations and a
    relabelling is a coalgebra automorphism; a failure raises
    `InconsistencyError`.  The check does not pin the shuffle formula, but
    it refuses a coproduct weighted by the length of its front, which
    passes the three linear checks on the stable model of gl(K) from
    max_degree 4, the first degree with a class whose reduced coproduct is
    nonzero.
    """
    space, max_degree = model.algebra.suspended, model.max_degree
    cx = model.complex()
    table = model.homology(representatives=True)
    reps = table.representatives

    residuals = {}

    def residual_of(word):
        """The class of a word in C/S, over the quotient basis words."""
        if word not in residuals:
            q = word_degree(space, word)
            sign, key = model.canonical(word)
            known = sign and key in cx.index.get(q, {})
            residuals[word] = residual(cx, q, {key: sign}) if known else {}
        return residuals[word]

    word_coproducts = {}

    def reduced_coproduct(el):
        """Shuffle coproduct without counit terms, in (C/S) (x) (C/S)."""
        out = {}
        for w, c in el.items():
            if w not in word_coproducts:
                terms = {}
                for (front, back), sign in coproduct_sym(w, space).items():
                    if not front or not back:
                        continue
                    right = residual_of(back)
                    for x, c1 in residual_of(front).items():
                        for y, c2 in right.items():
                            add_into(terms, (x, y), sign * c1 * c2)
                word_coproducts[w] = terms
            for pair, c2 in word_coproducts[w].items():
                add_into(out, pair, Fraction(c) * c2)
        return out

    boundaries, projections, project = {}, {}, projection(cx)

    def boundary(word):
        if word not in boundaries:
            boundaries[word] = cx.differential(word_degree(space, word),
                                               {word: 1})
        return boundaries[word]

    def coordinates(word):
        if word not in projections:
            projections[word] = project(word_degree(space, word),
                                        {word: 1})
        return projections[word]

    def pair_class(q, el, what):
        """The class of a cycle of (C/S) (x) (C/S), through p (x) p."""
        image = {}
        for (x, y), c in el.items():
            a = word_degree(space, x)
            # terms with a degree-0 factor lie outside the reduced tensor square
            if a > 1:
                for w, c2 in boundary(x).items():
                    add_into(image, (w, y), c * c2)
            if q - a > 1:
                sgn = -1 if a % 2 else 1
                for w, c2 in boundary(y).items():
                    add_into(image, (x, w), sgn * c * c2)
        if image:
            raise InconsistencyError(
                f"the coproduct of {what} is not a cycle in degree {q}")
        out = {}
        for (x, y), c in el.items():
            a = word_degree(space, x)
            right = coordinates(y)
            for i, ci in coordinates(x).items():
                for j, cj in right.items():
                    add_into(out, ((a, i), (q - a, j)), c * ci * cj)
        return out

    for q, relation in relations(model):
        if reduced_coproduct(relation):
            raise InconsistencyError(
                f"coproduct does not descend to the quotient in degree {q}")

    for q in range(2, max_degree + 1):
        words = cx.basis.get(q + 1, ())
        for p in cx.image_basis(q + 1):
            img = reduced_coproduct(boundary(words[p]))
            if pair_class(q, img, "a boundary"):
                raise InconsistencyError(
                    f"coproduct depends on the choice of representative in degree {q}")

    delta = {}
    for q in range(0, max_degree + 1):
        delta[q] = [pair_class(q, reduced_coproduct(rep), "a representative")
                    if q >= 2 else {} for rep in reps.get(q, [])]

    defect = _coalgebra_defect(delta)
    if defect:
        identity, q = defect
        raise InconsistencyError(
            f"the homology coproduct is not {identity} in degree {q}")

    return HomologyCoalgebra(table=table, delta=delta)


def _class_in(cx, q, element, reps):
    """Coefficients of a cycle's class over external representatives, from
    one solver on the boundaries of degree q + 1 and the representatives of
    an unquotiented complex; raises ValueError outside their span."""
    index = cx.index.get(q, {})
    solver = LinearSolver(len(index))
    for j, key in enumerate(cx.blocks.get(q + 1, ())):
        solver.add({index[k]: c for k, c in cx.diff(q + 1, key).items()},
                   ("b", j))
    for j, rep in enumerate(reps):
        solver.add({index[k]: c for k, c in rep.items()}, ("r", j))
    combo = solver.express({index[k]: c for k, c in element.items()})
    if combo is None:
        raise ValueError(f"element is not a cycle class in degree {q}")
    return {tag[1]: c for tag, c in combo.items() if tag[0] == "r"}


def pair_complex_coproduct(space, cx, max_degree, canonical=None):
    """The rows `delta` of the homology coproduct, read in the complex
    (C/S) (x) (C/S) on pairs of quotient basis words, with differential
    res(dx) (x) y + (-1)^|x| x (x) res(dy), against the tensor products of
    the representatives of `cx`, keyed as `HomologyCoalgebra.delta`."""
    reps = cx.homology(range(0, max_degree + 1),
                       representatives=True).representatives

    def word_residual(word):
        q = word_degree(space, word)
        sign, key = (1, word) if canonical is None else canonical(word)
        if not sign or key not in cx.index.get(q, {}):
            return {}
        return residual(cx, q, {key: sign})

    def residual_of(el):
        out = {}
        for w, c in el.items():
            for w2, c2 in word_residual(w).items():
                add_into(out, w2, c * c2)
        return out

    def reduced_coproduct(el):
        out = {}
        for w, c in el.items():
            for (front, back), sign in coproduct_sym(w, space).items():
                if not front or not back:
                    continue
                for x, c1 in word_residual(front).items():
                    for y, c2 in word_residual(back).items():
                        add_into(out, (x, y), Fraction(c) * sign * c1 * c2)
        return out

    pair_blocks = {}
    for t in range(2, max_degree + 2):
        pairs = [(x, y) for a in range(1, t) for x in cx.basis.get(a, ())
                 for y in cx.basis.get(t - a, ())]
        if pairs:
            pair_blocks[t] = pairs

    def pair_diff(t, pair):
        x, y = pair
        a = word_degree(space, x)
        out = {}
        if a > 1:
            for w, c in residual_of(cx.diff(a, x)).items():
                add_into(out, (w, y), c)
        if t - a > 1:
            sgn = -1 if a % 2 else 1
            for w, c in residual_of(cx.diff(t - a, y)).items():
                add_into(out, (x, w), sgn * c)
        return out

    pair_cx = ChainComplex(pair_blocks, pair_diff)
    delta = {}
    for q in range(0, max_degree + 1):
        tags, pair_reps = [], []
        for a in range(1, q):
            for i, ra in enumerate(reps.get(a, [])):
                for j, rb in enumerate(reps.get(q - a, [])):
                    tags.append(((a, i), (q - a, j)))
                    el = {}
                    for w1, c1 in ra.items():
                        for w2, c2 in rb.items():
                            add_into(el, (w1, w2), c1 * c2)
                    pair_reps.append(el)
        delta[q] = []
        for rep in reps.get(q, []):
            combo = _class_in(pair_cx, q, reduced_coproduct(rep), pair_reps) \
                if q >= 2 else {}
            delta[q].append({tags[p]: c for p, c in combo.items()})
    return delta


def _interleave_word(word, n, base_dim, side):
    """Relabel a gl_n word into gl_2n: side 0 takes position (i, j) to
    (2i, 2j) (the 1-based odd slots), side 1 to (2i+1, 2j+1)."""
    out = []
    for idx in word:
        a, i, j = gl_entry(idx, n, base_dim)
        out.append(gl_index(2 * n, base_dim, a, 2 * i + side, 2 * j + side))
    return tuple(out)


@dataclass
class DoubledHopfReport:
    """Exact verification record for the block-sum product on the
    gl_n(K)-coinvariant homology of gl_n(A).

    `products` maps ((qa, ia), (qb, ib)) - basis classes of the two
    factors - to the product class in the representative coordinates of
    the doubled algebra; `stabilized` re-expresses it through the corner
    inclusion in the coordinates of size n, or None when that fails
    (an unstable product).  All checks are exact; empty violation lists
    mean the property held on everything checked.
    """

    base: str
    n: int
    target: int
    max_degree: int
    class_dims: dict
    products: dict
    stabilized: dict
    unit_ok: bool
    commutative_violations: list
    associative_violations: list
    associative_unstable: list
    primitive_product_violations: list
    checked_pairs: int
    checked_triples: int

    @property
    def ok(self):
        return (self.unit_ok and not self.commutative_violations
                and not self.associative_violations
                and not self.primitive_product_violations)


def doubled_hopf_product(model_n, model_2n):
    """The product induced by the interleaved block sum on coinvariant
    homology, with its exact structure checks.

    `model_n` and `model_2n` are the coinvariant models of gl_n(A) and
    gl_2n(A) over one base and through one degree.  Chains of gl_n are pushed
    into the odd and even slots of gl_2n, wedged, rewritten on the orbit
    representatives of the doubled model, and expressed in a computed
    representative basis of the doubled coinvariant homology; the corner
    inclusion is rewritten on those representatives the same way.
    Graded commutativity is compared directly there; associativity is
    checked after re-expression through the corner inclusion, which on the
    zero-weight presentation induces the same stabilization map as either
    slot embedding.  Products of non-scalar primitive classes are
    additionally checked to leave the primitive subspace whenever they are
    nonzero.
    """
    base, n, max_degree = model_n.base, model_n.n, model_n.max_degree
    if (model_2n.n, model_2n.base, model_2n.max_degree) != \
            (2 * n, base, max_degree):
        raise ValueError(
            f"the doubled model must be gl_{2 * n} over the same base through "
            f"degree {max_degree}, got gl_{model_2n.n} through degree "
            f"{model_2n.max_degree}")
    base_dim = base.space.dim
    coalg = coalgebra_on_homology(model_n)
    table_n = coalg.table
    cx2 = model_2n.complex()
    table_2n = model_2n.homology()
    space_2n = model_2n.algebra.suspended

    reps_n = table_n.representatives
    degrees = sorted(q for q in table_n.dims if table_n.dims[q])

    def wedge(u, v):
        out = {}
        for w1, c1 in u.items():
            lw = _interleave_word(w1, n, base_dim, 0)
            for w2, c2 in v.items():
                rw = _interleave_word(w2, n, base_dim, 1)
                sign, cw = canonical_sym(lw + rw, space_2n)
                if sign:
                    add_into(out, cw, Fraction(c1) * Fraction(c2) * sign)
        return model_2n.reduce(out)

    def class_of(q, chain):
        if not chain:
            return {}
        return cx2.class_coefficients(q, chain)

    # stabilization through the corner inclusion, per degree
    stab_cols = {}
    stab_solver = {}
    for q in range(max_degree + 1):
        cols = []
        for rep in reps_n.get(q, []):
            chain = {}
            for w, c in rep.items():
                add_into(chain, corner_embed_word(w, n, 2 * n, base_dim), c)
            cols.append(class_of(q, model_2n.reduce(chain)))
        stab_cols[q] = cols
        solver = LinearSolver(table_2n.dims[q])
        for i, col in enumerate(cols):
            solver.add(col, i)
        stab_solver[q] = solver

    keys = [(q, i) for q in degrees for i in range(table_n.dims[q])]
    products = {}
    stabilized = {}
    for (qa, ia), (qb, ib) in itertools.product(keys, repeat=2):
        if qa + qb > max_degree:
            continue
        cls = class_of(qa + qb, wedge(reps_n[qa][ia], reps_n[qb][ib]))
        products[((qa, ia), (qb, ib))] = cls
        stabilized[((qa, ia), (qb, ib))] = stab_solver[qa + qb].express(cls)

    # unit: the degree-0 class multiplies as the stabilization map
    unit_ok = True
    u0 = reps_n[0][0]
    c0 = Fraction(u0.get((), 0))
    for q, i in keys:
        expect = {j: c0 * c for j, c in stab_cols[q][i].items() if c0 * c}
        for key in (((0, 0), (q, i)), ((q, i), (0, 0))):
            if key in products and products[key] != expect:
                unit_ok = False

    commutative_violations = []
    for ((qa, ia), (qb, ib)), cls in sorted(products.items()):
        twisted = products.get(((qb, ib), (qa, ia)))
        if twisted is None:
            continue
        sign = -1 if (qa * qb) % 2 else 1
        flipped = {j: sign * c for j, c in twisted.items()}
        if cls != flipped:
            commutative_violations.append(
                ((qa, ia), (qb, ib), cls, flipped))

    def linear_product(coeffs, qc, right_key=None, left_key=None):
        """Product of sum(coeffs[i] * class (qc, i)) with a basis class."""
        out = {}
        for i, lam in coeffs.items():
            key = ((qc, i), right_key) if right_key else (left_key, (qc, i))
            for j, c in products[key].items():
                add_into(out, j, lam * c)
        return {j: c for j, c in out.items() if c}

    associative_violations = []
    associative_unstable = []
    checked_triples = 0
    for x, y, z in itertools.product(keys, repeat=3):
        qt = x[0] + y[0] + z[0]
        if qt > max_degree:
            continue
        checked_triples += 1
        xy = stabilized[(x, y)]
        yz = stabilized[(y, z)]
        if xy is None or yz is None:
            associative_unstable.append((x, y, z))
            continue
        left = linear_product(xy, x[0] + y[0], right_key=z)
        right = linear_product(yz, y[0] + z[0], left_key=x)
        if left != right:
            associative_violations.append((x, y, z, left, right))

    prim = {q: coalg.primitive_subspace(q) for q in degrees if q >= 1}
    primitive_product_violations = []
    for (x, y), cls in sorted(products.items()):
        if x[0] < 1 or y[0] < 1 or not cls:
            continue
        if not prim[x[0]].contains({x[1]: Fraction(1)}):
            continue
        if not prim[y[0]].contains({y[1]: Fraction(1)}):
            continue
        back = stabilized[(x, y)]
        if back and prim.get(x[0] + y[0]) is not None and \
                prim[x[0] + y[0]].contains(back):
            primitive_product_violations.append((x, y, back))

    return DoubledHopfReport(
        base=base.name or "A", n=n, target=2 * n, max_degree=max_degree,
        class_dims={q: table_n.dims[q] for q in degrees},
        products=products, stabilized=stabilized, unit_ok=unit_ok,
        commutative_violations=commutative_violations,
        associative_violations=associative_violations,
        associative_unstable=associative_unstable,
        primitive_product_violations=primitive_product_violations,
        checked_pairs=len(products), checked_triples=checked_triples)


# ---------------------------------------------------------------------------
# Read-offs of homology


def inner_action_on_homology(alg, generator, max_degree):
    """The induced map of an inner derivation on homology, degree by degree.

    Returns {q: list of coefficient dicts over the representative basis of
    the target degree}; the content of the inner-derivations-act-trivially
    lemma is that every dict is empty, which callers assert.
    """
    action = make_inner(alg, generator)
    shift = action.degree
    cx = ce_model(alg, max_degree).complex()
    table = cx.homology(range(0, max_degree + 1), representatives=True)
    induced = {}
    for q in range(0, max_degree + 1):
        reps = table.representatives.get(q, [])
        rows = []
        for rep in reps:
            img = {}
            for w, c in rep.items():
                for w2, c2 in action.eval_word(w).items():
                    add_into(img, w2, c * c2)
            target = q + shift
            if not img:
                rows.append({})
                continue
            if target < 0 or target > max_degree:
                raise ValueError(f"induced image leaves the computed range at {q}")
            rows.append(cx.class_coefficients(target, img))
        induced[q] = rows
    return induced


def primitive_dims(coalg):
    """{degree: dimension of the primitive subspace} of a homology
    coalgebra, in every degree that has representatives."""
    return {q: coalg.primitive_subspace(q).dim
            for q in sorted(coalg.table.representatives)}
