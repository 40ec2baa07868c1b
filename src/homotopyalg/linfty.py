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
word has zero class (independence of the representative).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ainfty import suspend_operations
from .chain import ChainComplex
from .coalgebra import (
    Cochain,
    bracket,
    certify,
    coproduct_sym,
    extend_coderivation,
)
from .graded import add_into, exact
from .rational_linalg import LinearSolver, RowReducer, kernel

__all__ = [
    "InconsistencyError",
    "LInftyAlgebra",
    "Derivation",
    "HomologyCoalgebra",
    "check_linfty",
    "check_derivation",
    "make_inner",
    "ce_words",
    "CEModel",
    "ce_model",
    "lie_homology",
    "inner_action_on_homology",
    "coalgebra_on_homology",
    "homology_coproduct",
    "primitives",
]


class InconsistencyError(Exception):
    """Two routes of the package that must agree did not: an internal
    fault, never a property of the input algebra."""


class LInftyAlgebra:
    """Finite-dimensional strongly homotopy Lie algebra over Q."""

    def __init__(self, space, ops, name=""):
        self.space = space  # unsuspended
        self.name = name
        clean = {}          # {arity: {ascending word: {index: int | Fraction}}}
        for k, table in ops.items():
            entries = {}
            for w, v in table.items():
                w = tuple(w)
                if tuple(sorted(w)) != w:
                    raise ValueError(
                        f"bracket entries must use ascending index words, got {w}")
                val = {i: e for i, c in v.items() if (e := exact(c))}
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

    def coderivation(self):
        return extend_coderivation(self.ell, "sym")

    def op_value(self, k, word):
        """ell_k on a sorted word of basis indices, {index: int | Fraction}."""
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


class Derivation:
    """A symmetric cochain whose coderivation commutes with the structure."""

    def __init__(self, cochain, certificate):
        self.cochain = cochain
        self.certificate = certificate

    def __bool__(self):
        return bool(self.certificate)

    @property
    def degree(self):
        return self.cochain.degree

    def coderivation(self):
        return extend_coderivation(self.cochain, "sym")


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


def h_action_spans(alg, h, blocks):
    """Per-degree spans of the h-action: images of each block under the inner
    derivations of the h generators."""
    h_els = _h_elements(alg, h)
    _check_h_closed(alg, h_els)
    actions = [make_inner(alg, el).coderivation() for el in h_els]
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
            d = self.algebra.coderivation()
            images = {}

            def diff(q, word):
                if word not in images:
                    images[word] = self.reduce(d.eval_word(word))
                return images[word]

            self._cx = ChainComplex(self.blocks, diff, quotient_spans=self.spans)
        return self._cx

    def homology(self):
        """Homology in degrees 0..max_degree.  Exact unless the weight cap
        truncates a contributing block: degree q needs complete words
        through weight q+1."""
        table = self.complex().homology(range(0, self.max_degree + 1))
        for q in table.dims:
            table.exact[q] = self.max_weight is None or self.max_weight >= q + 1
        return table

    def coproduct(self):
        """The induced coalgebra on homology, with the exactness flags of
        `homology`."""
        if self._coalg is None:
            self._coalg = coalgebra_on_homology(self)
            self._coalg.table.exact = self.homology().exact
        return self._coalg


def ce_model(alg, max_degree, max_weight=None, h=None):
    """The model of canonical symmetric words in degrees 0..max_degree+1,
    optionally capped in weight, with the h-coinvariant quotient generators
    through max_degree when a degree-0 subalgebra h is supplied."""
    blocks = {}
    for q in range(0, max_degree + 2):
        words = ce_words(alg.suspended, q)
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


def inner_action_on_homology(alg, generator, max_degree, max_weight=None, h=None):
    """The induced map of an inner derivation on homology, degree by degree.

    Returns {q: list of coefficient dicts over the representative basis of
    the target degree}; the content of the inner-derivations-act-trivially
    lemma is that every dict is empty, which callers assert.
    """
    der = make_inner(alg, generator)
    shift = der.degree
    cx = ce_model(alg, max_degree, max_weight, h).complex()
    table = cx.homology(range(0, max_degree + 1), representatives=True)
    action = der.coderivation()
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


class HomologyCoalgebra:
    """Homology with its induced coproduct in a fixed representative basis.

    `pair_basis[q]` lists tags (a, b, i, j) for the class of rep i of H_a
    tensor rep j of H_b, the Kunneth basis of the degree-q homology of
    (C/S) (x) (C/S); `delta[q]` has one row per representative of H_q giving
    its reduced coproduct in that tag basis, read through p (x) p from the
    chain-level projection p of the factor complex.  Every check ran at
    construction time: the coproduct of every relation of the model
    vanishes in (C/S) (x) (C/S), the coproducts of the representatives and
    of the boundaries of the quotient basis words are cycles, and the
    latter have zero class.
    """

    def __init__(self, table, pair_basis, delta):
        self.table = table
        self.pair_basis = pair_basis
        self.delta = delta

    def primitive_subspace(self, q):
        """Classes with vanishing reduced coproduct, as a RowReducer
        spanning them in the representative coordinates of H_q."""
        tags = {t: i for i, t in enumerate(self.pair_basis.get(q, []))}
        columns = [{tags[t]: c for t, c in row.items()}
                   for row in self.delta.get(q, [])]
        return kernel(columns, len(tags))


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
    complete.
    These hold whenever the relations are images of inner derivations or
    of relabellings by permutation matrices, as they are for every model
    the package builds, because inner derivations and the differential are
    coderivations and a relabelling is a coalgebra automorphism; a failure
    is a fault of the package and raises `InconsistencyError`.
    """
    space, max_degree = model.algebra.suspended, model.max_degree
    cx = model.complex()
    table = cx.homology(range(0, max_degree + 1), representatives=True)
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
                    add_into(out, (a, q - a, i, j), c * ci * cj)
        return out

    for q, relation in model.relations():
        if reduced_coproduct(relation):
            raise InconsistencyError(
                f"coproduct does not descend to the quotient in degree {q}")

    pair_basis = {}
    for q in range(2, max_degree + 1):
        pair_basis[q] = [(a, q - a, i, j) for a in range(1, q)
                         for i in range(len(reps.get(a, [])))
                         for j in range(len(reps.get(q - a, [])))]
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

    return HomologyCoalgebra(table=table, pair_basis=pair_basis, delta=delta)


def homology_coproduct(alg, max_degree, max_weight=None, h=None):
    """The induced coalgebra structure on Chevalley-Eilenberg homology."""
    return ce_model(alg, max_degree, max_weight, h).coproduct()


def primitives(H):
    """Primitive classes of a homology coalgebra: {degree: RowReducer
    spanning them in the representative coordinates}.  Degree-0 classes are
    never primitive (the counit splits them off); weight-one generators
    always are."""
    out = {}
    for q in sorted(H.table.representatives):
        out[q] = RowReducer() if q == 0 else H.primitive_subspace(q)
    return out
