"""Strongly homotopy Lie structures and Chevalley-Eilenberg homology.

A structure is stored as unsuspended antisymmetric brackets on canonically
sorted index words (ascending; a repeated index is legal only when its
unsuspended degree is odd) and as the induced symmetric degree -1
coderivation ell = `alg.coderivation` on the suspension, with the layout
and the suspension sign of the associative side (`coalgebra.HomotopyAlgebra`).
Squaring the symmetric coderivation is the full tower of homotopy Jacobi
identities.

The Chevalley-Eilenberg complex is the symmetric coalgebra on the suspension:
degree q collects the canonical words of total suspended degree q, including
the empty word at q = 0.  Suspended degrees are positive, so every block is
finite with no weight cap; an optional cap is a speed filter whose effect on
each degree is flagged honestly.

Derivations are symmetric coderivations d with [ell, d] = 0; inner ones
are brackets [ell, c], automatically derivations whenever the structure
squares to zero, and they act as zero on homology.

Coinvariants by a degree-0 sub-Lie-algebra h quotient each block by the span
S of the inner-derivation images of h.  One `CEModel` owns the blocks, the
quotient generators and the one reduced complex built from them; homology,
the coproduct and the induced action of an inner derivation all read that
complex, for a generic h as for the gl_n(A) model of `constructions`, which
only changes the map of words to the keys of the complex.

The homology coproduct is induced by the reduced shuffle coproduct, taken on
the quotient itself: on (C/S) (x) (C/S), the canonical isomorph of C (x) C
modulo S (x) C + C (x) S, with no second complex built.  Classes there are
read through p (x) p, where p is the chain-level projection of the reduced
complex onto its homology (Kunneth over a field).  Three facts are verified
at computation time rather than assumed: the coproduct of every relation of
the model (each generator of S, or for a model with no S the identifications
its `canonical` makes) vanishes in (C/S) (x) (C/S) (descent), the
coproducts of the representatives and of the boundaries are cycles of the
pair differential, and the coproduct of the boundary of every quotient basis
word has zero class (independence of the representative).  The coproduct on
homology is then checked coassociative and graded-cocommutative on every
class.  That does not pin the shuffle formula, but it refuses a coproduct
weighted by the length of its front, which passes the three checks above
on the stable model of gl(K) - from max_degree 4, the first degree with a
class whose reduced coproduct is nonzero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chain import ChainComplex, InconsistencyError
from .coalgebra import (
    Coderivation,
    HomotopyAlgebra,
    bracket,
    certify,
    coproduct_sym,
)
from .graded import add_into, require_bound
from .rational_linalg import RowReducer, kernel

__all__ = [
    "InconsistencyError",
    "SubalgebraError",
    "LInftyAlgebra",
    "HomologyCoalgebra",
    "check_linfty",
    "make_inner",
    "ce_words",
    "ce_letters",
    "CEModel",
    "ce_model",
    "lie_homology",
    "coalgebra_on_homology",
]


class SubalgebraError(ValueError):
    """A coinvariant subalgebra refused: a generator of nonzero degree, or
    a span not closed under the bracket."""


class LInftyAlgebra(HomotopyAlgebra):
    """Finite-dimensional strongly homotopy Lie algebra over Q, its
    brackets stored on ascending index words."""

    symmetric = True

    def bracket2(self, x, y):
        """The binary bracket of two elements of the suspension."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for idx, c in self.coderivation.apply((i, j)).items():
                    out[idx] = out.get(idx, Fraction(0)) + Fraction(a) * Fraction(b) * c
        return {i: v for i, v in out.items() if v}


def check_linfty(alg, max_arity=None):
    """Verify the homotopy Jacobi tower by squaring the coderivation.

    Complete once checked through arity 2K - 1 for top arity K; a smaller
    cap gives a partial certificate.
    """
    d = alg.coderivation
    return certify(d, d, max_arity)


def _element(generator):
    """A generator given as a basis index or a sparse dict, as an element
    {index: Fraction} with its zero coefficients dropped."""
    if isinstance(generator, int):
        return {generator: Fraction(1)}
    return {i: f for i, c in generator.items() if (f := Fraction(c))}


def _as_coderivation(alg, generator):
    """Coerce an inner-derivation generator to a symmetric coderivation:
    either one already, a basis index, or an element dict (arity 0)."""
    if isinstance(generator, Coderivation):
        return generator
    el = _element(generator)
    if not el:
        raise ValueError("zero generator has no well-defined degree")
    degs = {alg.suspended.degrees[i] for i in el}
    if len(degs) > 1:
        raise ValueError("generator must be homogeneous in suspended degree")
    c = Coderivation(alg.suspended, degs.pop(), symmetric=True)
    c.set_value((), el)
    return c


def make_inner(alg, generator):
    """The inner derivation [ell, c] of a coderivation or an element c.

    Certification is automatic whenever the structure squares to zero (the
    graded Jacobi identity of the coderivation bracket), but [ell, [ell, c]]
    = 0 is certified rather than assumed.
    """
    c = _as_coderivation(alg, generator)
    inner = bracket(alg.coderivation, c)
    certify(alg.coderivation, inner).require(
        "inner construction failed certification")
    return inner


def ce_words(degs, total_degree):
    """Canonical symmetric words of the given total degree over letters of
    (positive) degrees `degs`, in lexicographic order: ascending indices,
    repeats only on even degrees.  Includes the empty word at degree 0."""
    out = []

    def extend(prefix, start, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for i in range(start, len(degs)):
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
    for el in filter(None, map(_element, h)):
        for i in el:
            if alg.space.degrees[i] != 0:
                raise SubalgebraError(
                    f"subalgebra generators must have degree 0, index {i} does not")
        out.append(el)
    return out


def _check_h_closed(alg, h_els):
    """Closure of the span under the binary bracket; raises on failure."""
    span = RowReducer()
    for el in h_els:
        span.insert(el)
    for a, b in itertools.combinations_with_replacement(range(len(h_els)), 2):
        if not span.contains(alg.bracket2(h_els[a], h_els[b])):
            raise SubalgebraError(
                f"subalgebra not closed under the bracket at generators {(a, b)}")


def h_action_spans(alg, h, blocks):
    """Per-degree spans of the h-action: images of each block under the inner
    derivations of the h generators."""
    h_els = _h_elements(alg, h)
    _check_h_closed(alg, h_els)
    actions = [make_inner(alg, el) for el in h_els]
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


def ce_letters(q):
    """The most letters a word that H_q of a Chevalley-Eilenberg complex
    reads can have: degree q takes boundaries from the words of total
    suspended degree q + 1, and every letter has suspended degree >= 1.
    A weight cap below this truncates degree q."""
    return q + 1


class CEModel:
    """A Chevalley-Eilenberg complex with its quotient generators, owned
    once: `blocks[q]` lists the keys of degree q for q through
    max_degree + 1, and `spans[q]` the generators of the quotient S_q, for
    q through max_degree only.

    Every span is made of images of inner derivations, which commute with
    the differential d, so d(S_{m+1}) lies in S_m for m = max_degree: the
    boundary rank from C_{m+1} into C_m / S_m is that of C_{m+1} / S_{m+1},
    and the top block, which only sources boundaries into degree m, is
    never quotiented.  `canonical` sends a word to (sign, key of the
    complex), sign 0 for a word the quotient kills; here it is the
    identity.  Every consumer - the differential, each tensor factor of the
    coproduct, and the callers that rewrite chains through `reduce` -
    passes its words through it.  The reduced complex and the homology
    coalgebra are each built once and cached.
    """

    def __init__(self, algebra, max_degree, blocks, spans, max_weight=None):
        self.algebra = algebra
        self.max_degree = max_degree
        self.blocks = blocks
        self.spans = spans
        self.max_weight = max_weight
        self._cx = self._coalg = None

    def canonical(self, word):
        return 1, word

    def relations(self):
        """(degree, element) pairs that are zero in the quotient, whose
        coproducts `coalgebra_on_homology` checks: here every span
        generator."""
        for q, gens in sorted(self.spans.items()):
            for s in gens:
                yield q, s

    def reduce(self, element):
        """An element over canonical words, rewritten on the keys of the
        complex."""
        out = {}
        for w, c in element.items():
            sign, key = self.canonical(w)
            if sign:
                add_into(out, key, sign * c)
        return out

    def complex(self):
        if self._cx is None:
            d = self.algebra.coderivation
            self._cx = ChainComplex(
                self.blocks, lambda q, w: self.reduce(d.eval_word(w)),
                quotient_spans=self.spans)
        return self._cx

    def homology(self, representatives=False):
        """Homology in degrees 0..max_degree, with its representatives
        when asked.  Degree q is exact unless the weight cap is below
        `ce_letters(q)`."""
        table = self.complex().homology(range(0, self.max_degree + 1),
                                        representatives=representatives)
        weight = self.max_weight
        for q in table.dims:
            table.exact[q] = weight is None or weight >= ce_letters(q)
        return table

    def coproduct(self):
        """The induced coalgebra on homology (`coalgebra_on_homology`)."""
        if self._coalg is None:
            self._coalg = coalgebra_on_homology(self)
        return self._coalg


def ce_model(alg, max_degree, max_weight=None, h=None):
    """The model of canonical symmetric words in degrees 0..max_degree+1,
    optionally capped in weight, with the h-coinvariant quotient generators
    through max_degree when a degree-0 subalgebra h is supplied.
    `max_degree` must be a bound (`graded.is_bound`), and `max_weight` None
    or one; anything else is refused with ValueError before a word is
    listed."""
    require_bound("max_degree", max_degree)
    if max_weight is not None:
        require_bound("max_weight", max_weight)
    blocks = {}
    for q in range(0, max_degree + 2):
        words = ce_words(alg.suspended.degrees, q)
        if max_weight is not None:
            words = [w for w in words if len(w) <= max_weight]
        if words:
            blocks[q] = words
    spans = {}
    if h:
        spans = h_action_spans(
            alg, h, {q: ws for q, ws in blocks.items() if q <= max_degree})
    return CEModel(alg, max_degree, blocks, spans, max_weight)


def lie_homology(alg, max_degree, max_weight=None, h=None):
    """Homology of the Chevalley-Eilenberg complex in degrees 0..max_degree,
    optionally after coinvariant reduction by a degree-0 subalgebra h."""
    return ce_model(alg, max_degree, max_weight, h).homology()


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
            rows = self.delta.get(q, [])
            tags = {t: i for i, t in enumerate(sorted(set().union(*rows)))}
            columns = [{tags[t]: c for t, c in row.items()} for row in rows]
            self._primitives[q] = (kernel(columns, len(tags)) if q
                                   else RowReducer())
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
    canonical residual in the quotient, and a factor whose key is absent
    from the complex counts as zero (in a graded presentation the absent
    words are exactly the ones the quotient map kills).  Classes are read
    through p (x) p, where p = `cx.project` is a chain map onto homology
    that kills boundaries and sends each representative to its basis
    vector; by the Kunneth theorem over a field, p (x) p sends a cycle of
    (C/S) (x) (C/S) to its class in the basis of representative pairs.
    Verified before that read-off: the coproduct of every element of
    `model.relations()` - every span generator, unless the model says
    otherwise - vanishes in (C/S) (x) (C/S) (descent); the coproducts of each
    representative and of a basis of each boundary image (`image_basis`)
    are cycles of the pair differential res(dx) (x) y + (-1)^|x| x (x)
    res(dy); and the latter have zero class (independence of the
    representative).  Both checks are linear, so that basis makes them
    complete.  Last, the coproduct on homology is checked coassociative and
    cocommutative under the graded twist on every class
    (`_coalgebra_defect`).
    These hold whenever the relations are images of inner derivations or
    of relabellings by permutation matrices, as they are for every model
    the package builds, because inner derivations and the differential are
    coderivations and a relabelling is a coalgebra automorphism; a failure
    is a fault of the package and raises `InconsistencyError`.
    """
    space, max_degree = model.algebra.suspended, model.max_degree
    cx = model.complex()
    table = model.homology(representatives=True)
    reps = table.representatives

    residuals = {}

    def residual(word):
        """The class of a word in C/S, over the quotient basis words."""
        if word not in residuals:
            q = space.word_degree(word)
            sign, key = model.canonical(word)
            known = sign and key in cx.index.get(q, {})
            residuals[word] = cx.residual(q, {key: sign}) if known else {}
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
                    right = residual(back)
                    for x, c1 in residual(front).items():
                        for y, c2 in right.items():
                            add_into(terms, (x, y), sign * c1 * c2)
                word_coproducts[w] = terms
            for pair, c2 in word_coproducts[w].items():
                add_into(out, pair, Fraction(c) * c2)
        return out

    boundaries, projections = {}, {}

    def boundary(word):
        if word not in boundaries:
            boundaries[word] = cx.differential(space.word_degree(word),
                                               {word: 1})
        return boundaries[word]

    def project(word):
        if word not in projections:
            projections[word] = cx.project(space.word_degree(word), {word: 1})
        return projections[word]

    def pair_class(q, el, what):
        """The class of a cycle of (C/S) (x) (C/S), through p (x) p."""
        image = {}
        for (x, y), c in el.items():
            a = space.word_degree(x)
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
            a = space.word_degree(x)
            right = project(y)
            for i, ci in project(x).items():
                for j, cj in right.items():
                    add_into(out, ((a, i), (q - a, j)), c * ci * cj)
        return out

    for q, relation in model.relations():
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

