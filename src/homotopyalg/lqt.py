"""Loday-Quillen-Tsygan-type verification harness.

Two independently built sides of one classical comparison, checked
degree by degree:

* the left side computes Chevalley-Eilenberg homology of gl_n(A) with
  coefficients reduced by the adjoint gl_n(K)-action: at the stable size
  on the permutation words of `gl_permutation_model`, and at every
  requested size as the subcomplex `gl_coinvariant_model` reads off that
  stable model through the corner inclusion;
* the right side computes the cyclic homology of A by the Connes
  complex and expands the free graded-commutative coalgebra on its
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
model at N = max_degree + 1, `gl_permutation_model`, carries every verdict.

A requested size n is not built again: the corner inclusion embeds its
coinvariant complex in the stable one (see `constructions`), and its table
is the homology of that subcomplex.

The block-sum product on coinvariant homology is computed in the stable
model.  Representatives of degrees q_a + q_b <= max_degree touch at most
max_degree < N positions together, so the block sum of two words is the
canonical form of their union after the positions of the second are
shifted past those of the first.  Brackets between letters on disjoint
positions vanish, so this is a chain map, and S_N acts trivially on the
quotient, so the class does not depend on where the blocks sit.  Unit,
graded commutativity, associativity and the products of primitives are
checked exactly on one product table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ainfty import check_stasheff, cyclic_homology, require_strict_unit
from .chain import BettiTable
from .constructions import gl, gl_coinvariant_model, gl_permutation_model
from .graded import add_into
from .linfty import InconsistencyError, lie_homology

__all__ = [
    "HopfProductReport",
    "LQTReport",
    "expand_exterior",
    "hopf_product_on_homology",
    "verify_lqt",
]

MATCH = "MATCH"
MISMATCH = "MISMATCH"

# verify_lqt runs the block-sum product check when dim(A) * (2 min(3, n))^2
# is at most this, n the largest requested size.  The check runs on the
# stable model, so this no longer tracks its cost; the condition and the skip
# string are kept because lifting them changes the `lqt` payloads, the
# `lqt-dual` benchmark workload's among them.
HOPF_BUDGET = 40


# ---------------------------------------------------------------------------
# The right side: Lambda(HC[1]) by Poincare series


def expand_exterior(hc, max_degree):
    """BettiTable of Lambda(H[1]) truncated at max_degree: the free
    graded-commutative coalgebra on the shifted homology table.

    A class in H_k becomes a generator in degree k + 1; odd-degree
    generators contribute an exterior factor (1 + t^d) to the Poincare
    series, even-degree generators a truncated polynomial factor
    1 / (1 - t^d).  All coefficients are exact integers.  The input table
    must be exact in degrees 0..max_degree-1 (those are the classes whose
    shifted generators can reach the truncation).
    """
    D = max_degree
    series = [1] + [0] * D
    for k in range(0, D):
        if k not in hc.dims or not hc.exact.get(k, False):
            raise ValueError(
                f"the source table must be exact through degree {D - 1}; "
                f"degree {k} is missing or truncated")
        d = k + 1
        for _ in range(hc.dims[k]):
            if d % 2:
                for i in range(D, d - 1, -1):
                    series[i] += series[i - d]
            else:
                for i in range(d, D + 1):
                    series[i] += series[i - d]
    return BettiTable(dims={q: series[q] for q in range(D + 1)},
                      exact=dict.fromkeys(range(D + 1), True))


# ---------------------------------------------------------------------------
# The block-sum product on coinvariant homology


class HopfProductReport:
    """Exact verification record for the block-sum product on the
    gl_n(K)-coinvariant homology of gl_n(A), for n > max_degree.

    `products` maps ((qa, ia), (qb, ib)) - basis classes of the two
    factors - to the product class in the representative coordinates of
    the same model, and `checked_pairs` counts them.  All checks are exact; empty violation lists mean the
    property held on everything checked.
    """

    def __init__(self, base, n, max_degree, class_dims, products, unit_ok,
                 commutative_violations, associative_violations,
                 primitive_product_violations, checked_triples):
        self.base = base
        self.n = n
        self.max_degree = max_degree
        self.class_dims = class_dims
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
    be primitive.
    """
    base, n, max_degree = model.base, model.n, model.max_degree
    if n <= max_degree:
        raise ValueError(
            f"the block-sum product needs a model with n > max_degree = "
            f"{max_degree}, got gl_{n}")
    coalg = model.coproduct()
    table = coalg.table
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

    prim = {q: coalg.primitive_subspace(q) for q in degrees if q >= 1}
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
        base=base.name or "A", n=n, max_degree=max_degree,
        class_dims={q: table.dims[q] for q in degrees},
        products=products, unit_ok=unit_ok,
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
    `stable_from[q]` = q + 1 by the degree bound of the module docstring;
    `verdicts` and `primitive_verdicts` carry MATCH / MISMATCH per degree.
    Every equality is exact.
    """

    def __init__(self, algebra, sizes, max_degree, left, right, hc_dims,
                 primitive_dims, stable_dims, verdicts,
                 primitive_verdicts, hopf=None):
        self.algebra = algebra
        self.sizes = sizes
        self.max_degree = max_degree
        self.left = left
        self.right = right
        self.hc_dims = hc_dims
        self.primitive_dims = primitive_dims
        self.stable_dims = stable_dims
        self.verdicts = verdicts
        self.primitive_verdicts = primitive_verdicts
        self.hopf = hopf

    @property
    def stable_from(self):
        return {q: q + 1 for q in range(self.max_degree + 1)}

    @property
    def all_match(self):
        return all(v == MATCH for v in self.verdicts.values()) and \
            all(v == MATCH for v in self.primitive_verdicts.values())


def verify_lqt(base, sizes, max_degree):
    """Run the full comparison for a unital certified algebra.

    Builds the permutation model of gl_N(A) at N = max_degree + 1, which is
    stable through max_degree by the degree bound of the module docstring.
    The bound needs every letter to have suspended degree >= 1, which holds
    because documents and `GradedSpace` refuse negative unsuspended degrees.
    The verdicts, the primitives and - when the historical budget allows -
    the block-sum product are read from that one model, and each requested
    size from its subcomplex `gl_coinvariant_model`: a size n must agree
    with the stable model in every degree q with n >= q + 1, or
    `InconsistencyError` is raised; below that its table is reported as it
    is.  For sizes <= 2 the table is also checked against the full
    (unreduced) homology of gl_n(A), built on its own, which reductivity
    makes equal.
    """
    require_strict_unit(base)
    report = check_stasheff(base)
    if not report:
        raise ValueError(
            f"the base algebra is not certified: witness {report.witness}")
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("matrix sizes must be integers >= 1")

    try:
        stable = gl_permutation_model(base, max_degree)
        unreduced = {n: stable.algebra if n == stable.n else gl(base, n)
                     for n in set(sizes) | {stable.n} if n <= 2}
    except ValueError as exc:
        # the base is certified above, so a refusal or a failed
        # re-certification while building is a fault of the package
        raise InconsistencyError(
            f"a model of gl_n failed on a certified base: {exc}") from exc

    degrees = range(max_degree + 1)
    table = stable.homology()
    stable_dims = {q: table.dims.get(q, 0) for q in degrees}
    left = {}
    for n in sizes:
        table = gl_coinvariant_model(stable, n).homology()
        left[n] = {q: table.dims.get(q, 0) for q in degrees}
        for q in degrees:
            if n > q and left[n][q] != stable_dims[q]:
                raise InconsistencyError(
                    f"gl_{n} disagrees with the stable model in degree {q}, "
                    f"which is stable from n = {q + 1}: "
                    f"{left[n][q]} != {stable_dims[q]}")

    for n, L in sorted(unreduced.items()):
        dims, full = left.get(n, stable_dims), lie_homology(L, max_degree)
        for q in degrees:
            if full.dims.get(q, 0) != dims[q]:
                raise InconsistencyError(
                    f"coinvariant reduction changed homology at size {n}, "
                    f"degree {q}: {full.dims.get(q, 0)} != {dims[q]}")

    hc = cyclic_homology(base, max_degree - 1 if max_degree else 0)
    right = expand_exterior(hc, max_degree)

    coalg = stable.coproduct()
    reps = coalg.table.representatives
    if {q: len(reps.get(q, [])) for q in degrees} != stable_dims:
        raise InconsistencyError("representative homology disagrees with the "
                                 "dimension computation of the stable model")
    primitive_dims = {q: coalg.primitive_subspace(q).dim
                      for q in sorted(reps)}
    for q, d in primitive_dims.items():
        if d > stable_dims.get(q, 0):
            raise InconsistencyError(
                f"primitive dimension exceeds homology dimension at degree {q}")

    verdicts = {q: MATCH if stable_dims[q] == right.dims.get(q, 0)
                else MISMATCH for q in degrees}
    primitive_verdicts = {
        q: MATCH if primitive_dims.get(q, 0) == hc.dims.get(q - 1, 0)
        else MISMATCH for q in degrees if q >= 1}

    n_h = min(3, max(sizes))
    ambient = base.space.dim * (2 * n_h) ** 2
    if ambient <= HOPF_BUDGET:
        hopf = hopf_product_on_homology(stable)
    else:
        hopf = (f"skipped: doubled ambient dimension {ambient} exceeds "
                f"the harness budget {HOPF_BUDGET}")

    return LQTReport(
        algebra=base.name or "A", sizes=sizes, max_degree=max_degree,
        left=left, right={q: right.dims.get(q, 0) for q in degrees},
        hc_dims={q: hc.dims.get(q, 0) for q in sorted(hc.dims)},
        primitive_dims=primitive_dims,
        stable_dims=stable_dims,
        verdicts=verdicts, primitive_verdicts=primitive_verdicts,
        hopf=hopf)
