"""Strongly homotopy Lie structures and Chevalley-Eilenberg homology.

A structure is stored as unsuspended antisymmetric brackets on canonically
sorted index words (ascending; a repeated index is legal only when its
unsuspended degree is odd) and as the induced symmetric degree -1 cochain ell
on the suspension, using the same suspension sign as the associative side.
Squaring the symmetric coderivation is the full tower of homotopy Jacobi
identities.

The Chevalley-Eilenberg complex is the symmetric coalgebra on the suspension:
degree q collects the canonical words of total suspended degree q, including
the empty word at q = 0.  Suspended degrees are positive, so every block is
finite with no weight cap; an optional cap is a speed filter whose effect on
each degree is flagged honestly.

Derivations are symmetric cochains d with [delta_ell, delta_d] = 0; inner
ones are brackets [delta_ell, delta_c], automatically derivations whenever
the structure squares to zero, and they act as zero on homology - asserted,
not assumed, by expressing their images in a computed representative basis.

Coinvariants by a degree-0 sub-Lie-algebra h quotient each block by the span
S of the inner-derivation images of h.  The homology coproduct is induced by
the reduced shuffle coproduct, taken on the quotient itself: the pair
complex is (C/S) (x) (C/S) on pairs of quotient basis words, the canonical
isomorph of C (x) C modulo S (x) C + C (x) S, and it is built from the
already-reduced complex rather than rebuilt.  Two facts are verified at
computation time rather than assumed: the coproduct of every generator of S
vanishes in (C/S) (x) (C/S) (descent), and the coproduct of the boundary of
every quotient basis word has zero class (independence of the
representative).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .ainfty import suspend_operations
from .chain import BettiTable, ChainComplex
from .coalgebra import (
    Cochain,
    StructureReport,
    bracket,
    certify,
    coproduct_sym,
    extend_coderivation,
)
from .graded import GradedSpace, add_into
from .rational_linalg import LinearSolver, SparseMatrix, Subspace, kernel

__all__ = [
    "LInftyAlgebra",
    "Derivation",
    "HomologyCoalgebra",
    "check_linfty",
    "check_derivation",
    "make_inner",
    "ce_words",
    "ce_complex",
    "lie_homology",
    "inner_action_on_homology",
    "coalgebra_on_homology",
    "homology_coproduct",
    "primitives",
]


@dataclass
class LInftyAlgebra:
    """Finite-dimensional strongly homotopy Lie algebra over Q."""

    space: GradedSpace            # unsuspended
    ops: dict                     # {arity: {ascending word: {index: Fraction}}}
    name: str = ""
    suspended: object = field(init=False)
    ell: Cochain = field(init=False)

    def __post_init__(self):
        clean = {}
        for k, table in self.ops.items():
            entries = {}
            for w, v in table.items():
                w = tuple(w)
                if tuple(sorted(w)) != w:
                    raise ValueError(
                        f"bracket entries must use ascending index words, got {w}")
                val = {i: Fraction(c) for i, c in v.items() if Fraction(c)}
                if val:
                    entries[w] = val
            if entries:
                clean[int(k)] = entries
        self.ops = clean
        self.suspended = self.space.suspend()
        self.ell = suspend_operations(self.space, self.ops, symmetric=True)

    @property
    def max_arity(self):
        return max(self.ops, default=0)

    def coderivation(self, max_weight=None):
        return extend_coderivation(self.ell, "sym", max_weight)

    def op_value(self, k, word):
        """ell_k on a sorted word of basis indices, {index: Fraction}."""
        return self.ops.get(k, {}).get(tuple(word), {})

    def bracket2(self, x, y):
        """The binary bracket of two elements of the suspension."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for idx, c in self.ell.apply((i, j)).items():
                    out[idx] = out.get(idx, Fraction(0)) + Fraction(a) * Fraction(b) * c
        return {i: v for i, v in out.items() if v}


def check_linfty(alg, max_arity=None):
    """Verify the homotopy Jacobi tower by squaring the coderivation.

    Complete once checked through arity 2K - 1 for top arity K; a smaller
    cap gives a partial certificate.  Passes are memoized by `certify`.
    """
    d = alg.coderivation()
    return certify(d, d, max(2 * alg.max_arity - 1, 0), max_arity)


@dataclass
class Derivation:
    """A symmetric cochain whose coderivation commutes with the structure."""

    cochain: Cochain
    certificate: StructureReport

    def __bool__(self):
        return bool(self.certificate)

    @property
    def degree(self):
        return self.cochain.degree

    def coderivation(self, max_weight=None):
        return extend_coderivation(self.cochain, "sym", max_weight)


def check_derivation(alg, d):
    """Certify [delta_ell, delta_d] = 0; returns a Derivation on success and
    the failing StructureReport otherwise.

    The commutator of cochains with top arities K and K' has components only
    through arity K + K' - 1, so the check is a complete proof.
    """
    report = certify(alg.coderivation(), extend_coderivation(d, "sym"),
                     max(alg.max_arity + d.max_arity() - 1, 0))
    return Derivation(d, report) if report else report


def _as_cochain(alg, generator):
    """Coerce an inner-derivation generator to a symmetric cochain: either a
    cochain already, a basis index, or an element dict (arity 0)."""
    if isinstance(generator, Cochain):
        return generator
    if isinstance(generator, int):
        generator = {generator: 1}
    el = {i: Fraction(c) for i, c in generator.items() if Fraction(c)}
    if not el:
        raise ValueError("zero generator has no well-defined degree")
    degs = {alg.suspended.degrees[i] for i in el}
    if len(degs) > 1:
        raise ValueError("generator must be homogeneous in suspended degree")
    c = Cochain(alg.suspended, degs.pop(), symmetric=True)
    c.set_value((), el)
    return c


def make_inner(alg, generator):
    """The inner derivation [delta_ell, delta_c] of a cochain or element.

    Certification is automatic whenever the structure squares to zero (the
    graded Jacobi identity of the coderivation bracket), but is checked
    by `check_derivation` and returned rather than assumed.
    """
    c = _as_cochain(alg, generator)
    inner = bracket(alg.coderivation(), extend_coderivation(c, "sym"),
                    max(alg.max_arity + c.max_arity() - 1, 0))
    result = check_derivation(alg, inner)
    if not result:
        raise ValueError(f"inner construction failed certification: {result.witness}")
    return result


def ce_words(space, total_degree):
    """Canonical symmetric words of the given total suspended degree, in
    lexicographic order: ascending indices, repeats only on even degrees.
    Includes the empty word at degree 0."""
    degs = space.degrees
    out = []

    def extend(prefix, start, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, space.dim):
            d = degs[i]
            if d > remaining:
                continue
            if prefix and prefix[-1] == i and d % 2:
                continue
            prefix.append(i)
            extend(prefix, i, remaining - d)
            prefix.pop()

    extend([], 0, total_degree)
    return out


def _h_elements(alg, h):
    """Normalize a subalgebra spec to a list of degree-0 element dicts."""
    out = []
    for item in h:
        if isinstance(item, int):
            item = {item: 1}
        el = {i: Fraction(c) for i, c in item.items() if Fraction(c)}
        if not el:
            continue
        for i in el:
            if alg.space.degrees[i] != 0:
                raise ValueError(
                    f"subalgebra generators must have degree 0, index {i} does not")
        out.append(el)
    return out


def _check_h_closed(alg, h_els):
    """Closure of the span under the binary bracket; raises on failure."""
    solver = LinearSolver(alg.space.dim)
    for j, el in enumerate(h_els):
        solver.add(el, j)
    for a, b in itertools.combinations_with_replacement(range(len(h_els)), 2):
        val = alg.bracket2(h_els[a], h_els[b])
        if val and solver.express(val) is None:
            raise ValueError(
                f"subalgebra not closed under the bracket at generators {(a, b)}")


def h_action_spans(alg, h, blocks, max_weight=None):
    """Per-degree spans of the h-action: images of each block under the inner
    derivations of the h generators."""
    h_els = _h_elements(alg, h)
    _check_h_closed(alg, h_els)
    actions = [make_inner(alg, el).coderivation(max_weight) for el in h_els]
    spans = {}
    for q, words in blocks.items():
        gens = []
        for act_ in actions:
            for w in words:
                img = act_.eval_word(w)
                if img:
                    gens.append(img)
        if gens:
            spans[q] = gens
    return spans


def _ce_complex(alg, max_degree, max_weight, h):
    """ce_complex together with its quotient generators (None without h)."""
    blocks = {}
    for q in range(0, max_degree + 2):
        words = ce_words(alg.suspended, q)
        if max_weight is not None:
            words = [w for w in words if len(w) <= max_weight]
        if words:
            blocks[q] = words
    spans = h_action_spans(alg, h, blocks, max_weight) if h else None
    d = alg.coderivation(max_weight)
    cx = ChainComplex(blocks, lambda q, w: d.eval_word(w), quotient_spans=spans)
    return cx, spans


def ce_complex(alg, max_degree, max_weight=None, h=None):
    """ChainComplex of canonical symmetric words in degrees 0..max_degree+1,
    with blockwise h-coinvariant quotients when a subalgebra is supplied."""
    return _ce_complex(alg, max_degree, max_weight, h)[0]


def lie_homology(alg, max_degree, max_weight=None, h=None):
    """Homology of the Chevalley-Eilenberg complex in degrees 0..max_degree,
    optionally after coinvariant reduction by a degree-0 subalgebra h.

    Exact unless the weight cap truncates a contributing block: degree q
    needs complete words through weight q+1.
    """
    cx = ce_complex(alg, max_degree, max_weight=max_weight, h=h)
    table = cx.homology(range(0, max_degree + 1))
    for q in table.dims:
        table.exact[q] = max_weight is None or max_weight >= q + 1
    table.caps = {"max_degree": max_degree, "max_weight": max_weight}
    return table


def inner_action_on_homology(alg, generator, max_degree, max_weight=None, h=None):
    """The induced map of an inner derivation on homology, degree by degree.

    Returns {q: list of coefficient dicts over the representative basis of
    the target degree}; the content of the inner-derivations-act-trivially
    lemma is that every dict is empty, which callers assert.
    """
    der = make_inner(alg, generator)
    shift = der.degree
    cx = ce_complex(alg, max_degree, max_weight=max_weight, h=h)
    table = cx.homology(range(0, max_degree + 1), representatives=True)
    action = der.coderivation(max_weight)
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
            target_reps = table.representatives.get(target, [])
            if not img:
                rows.append({})
                continue
            if target < 0 or target > max_degree:
                raise ValueError(f"induced image leaves the computed range at {q}")
            rows.append(cx.class_coefficients(target, img, target_reps))
        induced[q] = rows
    return induced


@dataclass
class HomologyCoalgebra:
    """Homology with its induced coproduct in a fixed representative basis.

    `pair_basis[q]` lists tags (a, b, i, j) for the class of rep i of H_a
    tensor rep j of H_b in the homology of (C/S) (x) (C/S); `delta[q]` has
    one row per representative of H_q giving its reduced coproduct in that
    tag basis.  Both well-definedness checks ran at construction time: the
    coproduct of every span generator vanishes in (C/S) (x) (C/S), and the
    coproduct of the boundary of every quotient basis word has zero class.
    """

    table: BettiTable
    pair_basis: dict
    delta: dict

    def primitive_subspace(self, q):
        """Classes with vanishing reduced coproduct, as a Subspace in the
        representative coordinates of H_q."""
        reps = self.table.representatives.get(q, [])
        rows = self.delta.get(q, [])
        tags = {t: i for i, t in enumerate(self.pair_basis.get(q, []))}
        entries = []
        for j, row in enumerate(rows):
            for t, c in row.items():
                entries.append((tags[t], j, c))
        mat = SparseMatrix.from_entries(len(tags), len(reps), entries)
        return kernel(mat)


def coalgebra_on_homology(space, cx, max_degree, spans=None):
    """Homology of a word complex together with its induced coproduct.

    `cx` is the complex of canonical symmetric words over `space` (degrees
    up to max_degree + 1), already reduced by its quotient generators;
    `spans` lists those generators per degree for the descent check.  The
    reduced shuffle coproduct is taken on (C/S) (x) (C/S): each tensor
    factor is replaced by its canonical residual in the quotient, and a
    factor whose word is absent from the complex counts as zero (in a
    graded presentation the absent words are exactly the ones the quotient
    map kills).  Verifies that the coproduct of every span generator of
    degree <= max_degree vanishes there, and that the coproduct of the
    boundary of every quotient basis word has zero class, before
    expressing the coproduct of each representative in the basis of
    representative pairs.
    """
    table = cx.homology(range(0, max_degree + 1), representatives=True)
    reps = table.representatives
    basis = {q: [cx.blocks[q][c] for c in cx.quotient_cols(q)]
             for q in cx.blocks}

    residuals = {}

    def residual(word):
        """The class of a word in C/S, over the quotient basis words."""
        if word not in residuals:
            q = space.word_degree(word)
            col = cx.index.get(q, {}).get(word)
            vec = {} if col is None else cx._residual({col: Fraction(1)}, q)
            residuals[word] = {cx.blocks[q][c]: v for c, v in vec.items()}
        return residuals[word]

    def residual_of(el):
        out = {}
        for w, c in el.items():
            for w2, c2 in residual(w).items():
                add_into(out, w2, c * c2)
        return out

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
                    right = residual(back)
                    for x, c1 in residual(front).items():
                        for y, c2 in right.items():
                            add_into(terms, (x, y), sign * c1 * c2)
                word_coproducts[w] = terms
            for pair, c2 in word_coproducts[w].items():
                add_into(out, pair, Fraction(c) * c2)
        return out

    pair_blocks = {}
    for t in range(2, max_degree + 2):
        pairs = [(x, y) for a in sorted(basis) if 1 <= a < t
                 for x in basis[a] for y in basis.get(t - a, ())]
        if pairs:
            pair_blocks[t] = pairs

    def pair_diff(t, pair):
        x, y = pair
        a = space.word_degree(x)
        b = t - a
        out = {}
        # terms with a degree-0 factor lie outside the reduced tensor square
        if a > 1:
            for w, c in residual_of(cx.diff(a, x)).items():
                add_into(out, (w, y), c)
        if b > 1:
            sgn = -1 if a % 2 else 1
            for w, c in residual_of(cx.diff(b, y)).items():
                add_into(out, (x, w), sgn * c)
        return out

    pair_cx = ChainComplex(pair_blocks, pair_diff)

    for q, gen_list in sorted((spans or {}).items()):
        if q > max_degree:
            continue
        for s in gen_list:
            if reduced_coproduct(s):
                raise ValueError(
                    f"coproduct does not descend to the quotient in degree {q}")

    pair_basis, pair_reps = {}, {}
    for q in range(2, max_degree + 1):
        tags, els = [], []
        for a in range(1, q):
            for i, ra in enumerate(reps.get(a, [])):
                for j, rb in enumerate(reps.get(q - a, [])):
                    tags.append((a, q - a, i, j))
                    el = {}
                    for w1, c1 in ra.items():
                        for w2, c2 in rb.items():
                            add_into(el, (w1, w2), Fraction(c1) * Fraction(c2))
                    els.append(el)
        pair_basis[q] = tags
        pair_reps[q] = els

    for q in range(2, max_degree + 1):
        for w in basis.get(q + 1, ()):
            img = reduced_coproduct(cx.diff(q + 1, w))
            if pair_cx.class_coefficients(q, img, pair_reps[q]):
                raise ValueError(
                    f"coproduct depends on the choice of representative in degree {q}")

    delta = {}
    for q in range(0, max_degree + 1):
        rows = []
        for rep in reps.get(q, []):
            if q < 2:
                rows.append({})
                continue
            combo = pair_cx.class_coefficients(q, reduced_coproduct(rep),
                                               pair_reps[q])
            rows.append({pair_basis[q][p]: c for p, c in combo.items()})
        delta[q] = rows

    return HomologyCoalgebra(table=table, pair_basis=pair_basis, delta=delta)


def homology_coproduct(alg, max_degree, max_weight=None, h=None):
    """The induced coalgebra structure on Chevalley-Eilenberg homology."""
    cx, spans = _ce_complex(alg, max_degree, max_weight, h)
    result = coalgebra_on_homology(alg.suspended, cx, max_degree, spans=spans)
    result.table.caps = {"max_degree": max_degree, "max_weight": max_weight}
    for q in result.table.dims:
        result.table.exact[q] = max_weight is None or max_weight >= q + 1
    return result


def primitives(H):
    """Primitive classes of a homology coalgebra: {degree: Subspace in the
    representative coordinates}.  Degree-0 classes are never primitive (the
    counit splits them off); weight-one generators always are."""
    out = {}
    for q, reps in sorted(H.table.representatives.items()):
        if q == 0:
            out[q] = Subspace.from_vectors(len(reps), [])
            continue
        out[q] = H.primitive_subspace(q)
    return out
