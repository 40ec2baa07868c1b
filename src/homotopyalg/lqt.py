"""Loday-Quillen-Tsygan-type verification harness.

Two independently built sides of one classical comparison, checked
degree by degree:

* the left side computes Chevalley-Eilenberg homology of gl_n(A) with
  coefficients reduced by the adjoint gl_n(K)-action: at the stable size
  on the permutation words of `PermutationModel`, and at every
  requested size as the subcomplex `gl_coinvariant_model` reads off that
  stable model through the corner inclusion;
* the right side computes the cyclic homology of A by the Connes
  complex and expands the free graded-commutative algebra on its
  shift, Lambda(HC(A)[1]), by exact Poincare-series multiplication.

The two paths share no differential code, so their agreement is evidence
rather than tautology.

Stability is proved by a degree bound, not detected.  Unsuspended degrees
are >= 0, so every letter has suspended degree >= 1 and a word of degree q
has at most q letters.  For n >= k the gl_n(K)-coinvariants of k letters
have a basis of the non-vanishing S_n-orbits of permutation words, each a
multiset of cyclic words of base letters (the first and second fundamental
theorems for GL_n), and neither these orbits nor the brackets of matrix
units see n.  Degree q of the homology reads the blocks through q + 1, so
through degree q the complex is the same for every n >= q + 1, and one
model at N = max_degree + 1, `PermutationModel(A, max_degree)`, carries
every verdict (on an augmented base, the model of its ideal; see below).

A requested size n is not built again: the corner inclusion embeds its
coinvariant complex in the stable one (see `constructions`), and its table
is the homology of that subcomplex.

The stable model is Lambda(P) on its one-cycle words P, so its homology is
Lambda(H(P)) and its primitives are H(P) (see `PermutationModel`).  The
primitives are read from H(P), and every model a run builds must have the
table of Lambda(H(P)), which is checked.

On an augmented base, A = K + I with I the ideal of `augmentation_ideal`,
the left side splits.  gl_n(A) is the semidirect product of gl_n(K) and
the L-infinity ideal gl_n(I), and gl_n(K) is reductive and acts
semisimply, so by Hochschild-Serre (Ann. of Math. 57 (1953))
H(gl_n(A)) = Lambda(x_1, x_3, ..., x_{2n-1}) (x) H(gl_n(I))_{gl_n(K)} at
every n, with primitives one generator x_{2i-1} in each odd degree beside
those of the second factor.  The second factor is the same permutation
model over the letters of I alone: its words are the ones with no unit
letter, so it is far smaller, and every table of the left side is the
closed form times a table of that model.  On K, where I = 0, the left side
is the closed form alone; the evidence there is the Connes complex of the
right side and, wherever the block-sum product builds the model of gl_N(A)
itself, the check that its dimensions and primitives equal the closed form
times those of the ideal.  The closed form is a product of Poincare
series and the model of the ideal a Chevalley-Eilenberg complex, so the
two sides still share no differential code.  One routine, `_free_series`,
gives the Poincare series of every free graded-commutative algebra here:
Lambda(HC[1]), the closed form and Lambda(H(P)).  A base whose non-unit
letters span no ideal, such as a differential algebra with d(x) = 1,
keeps the model of gl_N(A).

The block-sum product on coinvariant homology is computed in the stable
model of gl_N(A).  Representatives of degrees q_a + q_b <= max_degree
touch at most max_degree < N positions together, so the block sum of two
words is the canonical form of their union after the positions of the
second are shifted past those of the first.  Brackets between letters on
disjoint positions vanish, so this is a chain map, and S_N acts trivially
on the quotient, so the class does not depend on where the blocks sit.
Unit, graded commutativity, associativity and the products of primitives
are checked exactly on one product table, the primitives being the classes
of the representatives of H(P).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ainfty import (
    check_stasheff,
    cyclic_homology,
    cyclic_letters,
    require_strict_unit,
)
from .chain import BettiTable, InconsistencyError
from .constructions import (
    PermutationModel,
    augmentation_ideal,
    gl,
    gl_coinvariant_model,
    is_matrix_size,
)
from .graded import add_into, require_bound
from .linfty import ce_letters, lie_homology
from .rational_linalg import RowReducer

__all__ = [
    "HopfProductReport",
    "LQTReport",
    "expand_exterior",
    "hopf_product_on_homology",
    "lqt_letters",
    "verify_lqt",
]

MATCH = "MATCH"
MISMATCH = "MISMATCH"

# verify_lqt runs the block-sum product check when dim(A) * (2 min(3, n))^2
# is at most this, n the largest requested size.  The check runs on the
# stable model, so this no longer tracks its cost; the condition and the skip
# string are kept because lifting them changes the `lqt` payloads, the
# `lqt-dual` benchmark workload's among them.  On an augmented base it also
# decides whether the model of gl_N(A) is built at all: the product reads it,
# and nothing else does.
HOPF_BUDGET = 40


# ---------------------------------------------------------------------------
# Free graded-commutative algebras by Poincare series


def _free_series(generators, max_degree, dims=None):
    """{q: dimension} through max_degree of the free graded-commutative
    algebra on generators of the degrees `generators`, each >= 1, times the
    table `dims` (the ground field when None): a factor (1 + t^d) for each
    odd generator and 1 / (1 - t^d) for each even one.  All coefficients
    are exact integers."""
    dims = {0: 1} if dims is None else dims
    series = [dims.get(q, 0) for q in range(max_degree + 1)]
    for d in generators:
        if d % 2:
            for q in range(max_degree, d - 1, -1):
                series[q] += series[q - d]
        else:
            for q in range(d, max_degree + 1):
                series[q] += series[q - d]
    return dict(enumerate(series))


def expand_exterior(hc, max_degree):
    """BettiTable of Lambda(H[1]) truncated at max_degree: the free
    graded-commutative algebra on the shifted homology table.

    A class in H_k becomes a generator in degree k + 1 (`_free_series`).
    The input table must be exact in degrees 0..max_degree-1 (those are the
    classes whose shifted generators can reach the truncation), and
    max_degree a bound (`graded.is_bound`); anything else is refused with
    ValueError.
    """
    require_bound("max_degree", max_degree)
    D = max_degree
    for k in range(0, D):
        if k not in hc.dims or not hc.exact.get(k, False):
            raise ValueError(
                f"the source table must be exact through degree {D - 1}; "
                f"degree {k} is missing or truncated")
    series = _free_series(
        [k + 1 for k in range(D) for _ in range(hc.dims[k])], D)
    return BettiTable(dims=series, exact=dict.fromkeys(range(D + 1), True))


# ---------------------------------------------------------------------------
# The block-sum product on coinvariant homology


class HopfProductReport:
    """Exact verification record for the block-sum product on the
    gl_n(K)-coinvariant homology of gl_n(A), for n > max_degree.

    `products` maps ((qa, ia), (qb, ib)) - the two factor classes, each
    named (degree, index of its representative) - to the product class in
    the representative coordinates of the same model, and `checked_pairs`
    counts them.  All checks are exact; empty violation lists mean the
    property held on everything checked.
    """

    def __init__(self, n, products, unit_ok,
                 commutative_violations, associative_violations,
                 primitive_product_violations, checked_triples):
        self.n = n
        self.products = products
        self.unit_ok = unit_ok
        self.commutative_violations = commutative_violations
        self.associative_violations = associative_violations
        self.primitive_product_violations = primitive_product_violations
        self.checked_triples = checked_triples

    @property
    def checked_pairs(self):
        return len(self.products)

    @property
    def ok(self):
        return (self.unit_ok and not self.commutative_violations
                and not self.associative_violations
                and not self.primitive_product_violations)


def hopf_product_on_homology(model):
    """The product induced by the block sum on coinvariant homology, with
    its exact structure checks, on one coinvariant model of gl_n(A).

    The model must have n > max_degree, so that two representatives whose
    degrees add up to at most max_degree fit side by side (see the module
    docstring).  Each pair of words is multiplied by
    `PermutationModel.block_sum`.  The unit class must multiply as
    the identity, products must be graded-commutative and associative, and
    a nonzero product of two primitive classes of positive degree must not
    be primitive.  The primitives of degree q are spanned by the classes of
    the representatives of H(P)_q (`PermutationModel.primitive_homology`).
    """
    n, max_degree = model.n, model.max_degree
    if n <= max_degree:
        raise ValueError(
            f"the block-sum product needs a model with n > max_degree = "
            f"{max_degree}, got gl_{n}")
    table = model.homology(representatives=True)
    cx = model.complex()
    reps = table.representatives
    degrees = sorted(q for q in table.dims if table.dims[q])

    def block_sum(u, v):
        out = {}
        for (w1, c1), (w2, c2) in itertools.product(u.items(), v.items()):
            sign, rep = model.block_sum(w1, w2)
            if sign:
                add_into(out, rep, Fraction(c1) * Fraction(c2) * sign)
        return out

    keys = [(q, i) for q in degrees for i in range(table.dims[q])]
    products = {}
    for (qa, ia), (qb, ib) in itertools.product(keys, repeat=2):
        if qa + qb > max_degree:
            continue
        chain = block_sum(reps[qa][ia], reps[qb][ib])
        products[((qa, ia), (qb, ib))] = \
            cx.class_coefficients(qa + qb, chain) if chain else {}

    # unit: the degree-0 class multiplies as the identity
    c0 = Fraction(reps[0][0].get((), 0))
    unit_ok = all(products[key] == {i: c0}
                  for q, i in keys
                  for key in (((0, 0), (q, i)), ((q, i), (0, 0))))

    commutative_violations = []
    for ((qa, ia), (qb, ib)), cls in sorted(products.items()):
        sign = -1 if (qa * qb) % 2 else 1
        twisted = products[((qb, ib), (qa, ia))]
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
        return out

    associative_violations = []
    checked_triples = 0
    for x, y, z in itertools.product(keys, repeat=3):
        if x[0] + y[0] + z[0] > max_degree:
            continue
        checked_triples += 1
        left = linear_product(products[(x, y)], x[0] + y[0], right_key=z)
        right = linear_product(products[(y, z)], y[0] + z[0], left_key=x)
        if left != right:
            associative_violations.append((x, y, z, left, right))

    prim = {}
    for q, chains in model.primitive_homology().representatives.items():
        prim[q] = RowReducer()
        for chain in chains:
            prim[q].insert(cx.class_coefficients(q, chain))
    primitive_product_violations = []
    for (x, y), cls in sorted(products.items()):
        if x[0] < 1 or y[0] < 1 or not cls:
            continue
        if not prim[x[0]].contains({x[1]: Fraction(1)}):
            continue
        if not prim[y[0]].contains({y[1]: Fraction(1)}):
            continue
        if prim[x[0] + y[0]].contains(cls):
            primitive_product_violations.append((x, y, cls))

    return HopfProductReport(
        n=n, products=products, unit_ok=unit_ok,
        commutative_violations=commutative_violations,
        associative_violations=associative_violations,
        primitive_product_violations=primitive_product_violations,
        checked_triples=checked_triples)


# ---------------------------------------------------------------------------
# The degree-by-degree comparison


class LQTReport:
    """Degree-by-degree comparison of coinvariant matrix homology with
    the exterior expansion of cyclic homology.

    `left` holds the computed dimensions per requested size, `stable_dims`
    those of the stable model at n = max_degree + 1, `right` the expansion
    of the cyclic homology table, and `primitive_dims` the dimensions of the
    primitive subspaces of the stable model.  Degree q is stable from
    `stable_from[q]` = q + 1 by the degree bound of the module docstring.
    The verdicts are MATCH / MISMATCH per degree: `verdicts` read
    `stable_dims` against `right`, and `primitive_verdicts` each
    `primitive_dims[q]` against `hc_dims[q - 1]`.  Every equality is exact.
    """

    def __init__(self, sizes, max_degree, left, right, hc_dims,
                 primitive_dims, stable_dims, hopf=None):
        self.sizes = sizes
        self.max_degree = max_degree
        self.left = left
        self.right = right
        self.hc_dims = hc_dims
        self.primitive_dims = primitive_dims
        self.stable_dims = stable_dims
        self.hopf = hopf

    @property
    def stable_from(self):
        return {q: ce_letters(q) for q in range(self.max_degree + 1)}

    @property
    def verdicts(self):
        return {q: MATCH if d == self.right[q] else MISMATCH
                for q, d in self.stable_dims.items()}

    @property
    def primitive_verdicts(self):
        return {q: MATCH if self.primitive_dims.get(q, 0)
                == self.hc_dims.get(q - 1, 0) else MISMATCH
                for q in range(1, self.max_degree + 1)}

    @property
    def all_match(self):
        return all(v == MATCH for v in self.verdicts.values()) and \
            all(v == MATCH for v in self.primitive_verdicts.values())


def _ground_generators(n, max_degree):
    """The degrees of the generators x_1, x_3, ..., x_{2n-1} of
    H(gl_n(K)) = Lambda(x_1, x_3, ..., x_{2n-1}) through max_degree."""
    return range(1, min(2 * n, max_degree + 1), 2)


def _stable_tables(model, generators):
    """(dimensions, primitive dimensions) of the stable homology of `model`
    times the exterior algebra on the odd `generators`, whose primitives
    are its generators: the dimensions from the model's homology, the
    primitives from H(P).  The homology must be Lambda(H(P)), or
    `InconsistencyError` is raised."""
    m = model.max_degree
    dims = model.homology().dims
    primitives = model.primitive_homology().dims
    free = _free_series([q for q, d in primitives.items()
                         for _ in range(d)], m)
    for q in range(m + 1):
        if dims[q] != free[q]:
            raise InconsistencyError(
                f"the stable model of {model.algebra.name} is not "
                f"Lambda(H(P)) on its one-cycle words P in degree {q}: "
                f"{dims[q]} != {free[q]}")
    return (_free_series(generators, m, dims),
            {q: primitives[q] + (q in generators) for q in range(m + 1)})


def _hc_top(max_degree):
    """The top degree of the cyclic homology `verify_lqt` computes:
    Lambda(HC[1]) reads HC_k in degree k + 1, so through max_degree it
    reads HC_{max_degree - 1}, and HC_0 is computed even at max_degree 0."""
    return max(max_degree - 1, 0)


def lqt_letters(max_degree):
    """The most letters a word that `verify_lqt` reads through max_degree
    can have, max(max_degree + 1, 2): the stable blocks and the unreduced
    check read `ce_letters(max_degree)`, and the Connes complex
    `cyclic_letters` of the top degree `_hc_top(max_degree)`."""
    return max(ce_letters(max_degree), cyclic_letters(_hc_top(max_degree)))


def verify_lqt(base, sizes, max_degree):
    """Run the full comparison for a unital certified algebra at `sizes`,
    each one `is_matrix_size`, through a bound max_degree
    (`graded.is_bound`); other arguments are refused with ValueError
    before anything is built.

    Every left-side table is the homology of a `PermutationModel` at
    N = max_degree + 1, stable through max_degree by the degree bound of
    the module docstring, times a closed form.  The bound needs every
    letter to have suspended degree >= 1, which holds because documents
    and `GradedSpace` refuse negative unsuspended degrees.  On an
    augmented base (`augmentation_ideal`) the model is that of gl_N of the
    ideal I and the closed form is H(gl_n(K)) = Lambda(x_1, x_3, ...,
    x_{2n-1}); otherwise the model is that of gl_N(A) and the closed form
    is 1.  The stable dimensions are read from the model's homology, which
    must be Lambda(H(P)) on its one-cycle words P, and the primitives from
    H(P); each requested size is read from its subcomplex
    `gl_coinvariant_model`: a size n must agree with the stable table in
    every degree q with n >= q + 1, or `InconsistencyError` is raised;
    below that its table is reported as it is.  For sizes <= 2 the table
    is also checked against the full (unreduced) homology of gl_n(A),
    built on its own, which reductivity makes equal.

    The model of gl_N(A) itself is built on an augmented base only when
    the block-sum product runs, as the historical budget allows; its
    stable dimensions and primitives must then equal the closed form times
    those of the ideal, or `InconsistencyError` is raised.  The report
    derives its verdicts from these tables.
    """
    sizes = list(sizes)
    if not sizes or not all(map(is_matrix_size, sizes)):
        raise ValueError("matrix sizes must be integers >= 1")
    require_bound("max_degree", max_degree)
    require_strict_unit(base)
    check_stasheff(base).require("the base algebra is not certified")
    sizes = sorted(set(sizes))

    n_h = min(3, max(sizes))
    ambient = base.space.dim * (2 * n_h) ** 2
    hopf_runs = ambient <= HOPF_BUDGET
    try:
        ideal = augmentation_ideal(base)
        full = (PermutationModel(base, max_degree)
                if ideal is None or hopf_runs else None)
        stable = full if ideal is None else PermutationModel(ideal, max_degree)
        unreduced = {n: full.algebra if full and n == full.n else gl(base, n)
                     for n in set(sizes) | {stable.n} if n <= 2}
    except ValueError as exc:
        # the base is certified above, so a refusal or a failed
        # re-certification while building is a fault of the package
        raise InconsistencyError(
            f"a model of gl_n failed on a certified base: {exc}") from exc

    def ground(n):
        return () if ideal is None else _ground_generators(n, max_degree)

    degrees = range(max_degree + 1)
    stable_dims, primitive_dims = _stable_tables(stable, ground(stable.n))
    if full is not None and full is not stable and \
            _stable_tables(full, ()) != (stable_dims, primitive_dims):
        raise InconsistencyError(
            "the model of gl_N(A) disagrees with Lambda(x_1, x_3, ...) "
            "times the model of gl_N of its augmentation ideal")
    left = {}
    for n in sizes:
        table = gl_coinvariant_model(stable, n).homology()
        left[n] = _free_series(ground(n), max_degree, table.dims)
        for q in degrees:
            if n > q and left[n][q] != stable_dims[q]:
                raise InconsistencyError(
                    f"gl_{n} disagrees with the stable model in degree {q}, "
                    f"which is stable from n = {q + 1}: "
                    f"{left[n][q]} != {stable_dims[q]}")

    for n, L in sorted(unreduced.items()):
        dims, plain = left.get(n, stable_dims), lie_homology(L, max_degree)
        for q in degrees:
            if plain.dims.get(q, 0) != dims[q]:
                raise InconsistencyError(
                    f"coinvariant reduction changed homology at size {n}, "
                    f"degree {q}: {plain.dims.get(q, 0)} != {dims[q]}")

    hc = cyclic_homology(base, _hc_top(max_degree))
    right = expand_exterior(hc, max_degree)

    if hopf_runs:
        hopf = hopf_product_on_homology(full)
    else:
        hopf = (f"skipped: doubled ambient dimension {ambient} exceeds "
                f"the harness budget {HOPF_BUDGET}")

    return LQTReport(
        sizes=sizes, max_degree=max_degree, left=left,
        right={q: right.dims.get(q, 0) for q in degrees},
        hc_dims={q: hc.dims.get(q, 0) for q in sorted(hc.dims)},
        primitive_dims=primitive_dims, stable_dims=stable_dims, hopf=hopf)
