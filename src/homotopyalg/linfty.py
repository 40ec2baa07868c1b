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
quotient generators and the one reduced complex built from them; homology
and every class read-off use that complex, for a generic h as for the
gl_n(A) model of `constructions`, which only changes the map of words to
the keys of the complex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .chain import ChainComplex, InconsistencyError
from .coalgebra import Coderivation, HomotopyAlgebra, bracket, certify
from .graded import add_into, is_integer, require_bound
from .rational_linalg import RowReducer

__all__ = [
    "InconsistencyError",
    "SubalgebraError",
    "LInftyAlgebra",
    "check_linfty",
    "make_inner",
    "ce_words",
    "ce_letters",
    "CEModel",
    "ce_model",
    "lie_homology",
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
                    add_into(out, idx, Fraction(a) * Fraction(b) * c)
        return out


def check_linfty(alg, max_arity=None):
    """Verify the homotopy Jacobi tower by squaring the coderivation.

    Complete once checked through arity 2K - 1 for top arity K; a smaller
    cap gives a partial certificate.
    """
    d = alg.coderivation
    return certify(d, d, max_arity)


def _element(alg, generator):
    """A generator given as a basis index of `alg` or a sparse dict over
    such indices, as an element {index: Fraction} with its zero
    coefficients dropped.  Anything else - a bool, an index out of range,
    or a dict with such a key - is refused with ValueError."""
    def is_index(i):
        return is_integer(i) and 0 <= i < alg.space.dim

    if is_index(generator):
        return {generator: Fraction(1)}
    if not isinstance(generator, dict) or not all(map(is_index, generator)):
        raise ValueError(
            f"a generator must be a basis index in range({alg.space.dim}) "
            f"or a dict over such indices, got {generator!r}")
    return {i: f for i, c in generator.items() if (f := Fraction(c))}


def _as_coderivation(alg, generator):
    """Coerce an inner-derivation generator to a symmetric coderivation:
    either one already, a basis index, or an element dict (arity 0)."""
    if isinstance(generator, Coderivation):
        return generator
    el = _element(alg, generator)
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
    for el in filter(None, (_element(alg, g) for g in h)):
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
    identity.  Every consumer - the differential and the callers that
    rewrite chains through `reduce` - passes its words through it.  The
    reduced complex is built once and cached.
    """

    def __init__(self, algebra, max_degree, blocks, spans, max_weight=None):
        self.algebra = algebra
        self.max_degree = max_degree
        self.blocks = blocks
        self.spans = spans
        self.max_weight = max_weight
        self._cx = None

    def canonical(self, word):
        return 1, word

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
