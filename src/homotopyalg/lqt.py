"""Loday-Quillen-Tsygan-type verification harness.

Two independently built sides of one classical comparison, checked
degree-by-degree at finite matrix size:

* the left side computes Chevalley-Eilenberg homology of gl_n(A) with
  coefficients reduced by the adjoint gl_n(K)-action, over a range of
  sizes n, on the zero-weight coinvariant presentation;
* the right side computes the cyclic homology of A by the Connes
  complex and expands the free graded-commutative coalgebra on its
  shift, Lambda(HC(A)[1]), by exact Poincare-series multiplication.

The two paths share no differential code, so their agreement in the
stable range is evidence rather than tautology.  Stability is detected
empirically - the dimensions must agree at two consecutive sizes n and
n+1 with n+1 at least the homological degree - and degrees that fail
the test are reported UNSTABLE, never silently compared.

The block-sum product on coinvariant homology is verified to be
graded-commutative directly in the doubled algebra, and associative
after re-expressing each product class through the corner inclusion of
gl_n into gl_2n; on the zero-weight coinvariant complex every monomial
conjugation acts trivially, so all stabilization maps induce the same
map on homology and the re-expression is exact on the stable range.  A
product class that cannot be re-expressed is reported unstable rather
than guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .ainfty import check_stasheff, check_strict_unit, cyclic_homology
from .chain import BettiTable
from .constructions import (
    corner_embed_word,
    gl_coinvariant_model,
    gl_entry,
    gl_index,
)
from .graded import add_into, canonical_sym
from .linfty import InconsistencyError, lie_homology, primitives
from .rational_linalg import LinearSolver

__all__ = [
    "ExteriorExpansion",
    "HopfProductReport",
    "LQTReport",
    "expand_exterior",
    "hopf_product_on_homology",
    "verify_lqt",
]

MATCH = "MATCH"
MISMATCH = "MISMATCH"
UNSTABLE = "UNSTABLE"

# Largest ambient dimension of the doubled algebra gl_2n(A) for which
# verify_lqt runs the block-sum product check.
HOPF_BUDGET = 40


# ---------------------------------------------------------------------------
# The right side: Lambda(HC[1]) by Poincare series


@dataclass
class ExteriorExpansion:
    """Dimensions of the free graded-commutative coalgebra on a shifted
    homology table.

    A class in HC_k becomes a generator in degree k + 1; odd-degree
    generators contribute an exterior factor (1 + t^d) to the Poincare
    series, even-degree generators a truncated polynomial factor
    1 / (1 - t^d).  All coefficients are exact integers.
    """

    source: BettiTable
    max_degree: int
    generator_dims: dict = field(init=False)
    dims: dict = field(init=False)

    def __post_init__(self):
        D = self.max_degree
        gens = {}
        for k in range(0, D):
            if k not in self.source.dims or not self.source.exact.get(k, False):
                raise ValueError(
                    f"the source table must be exact through degree {D - 1}; "
                    f"degree {k} is missing or truncated")
            count = self.source.dims[k]
            if count:
                gens[k + 1] = count
        series = [0] * (D + 1)
        series[0] = 1
        for d, count in sorted(gens.items()):
            for _ in range(count):
                if d % 2:
                    for i in range(D, d - 1, -1):
                        series[i] += series[i - d]
                else:
                    for i in range(d, D + 1):
                        series[i] += series[i - d]
        self.generator_dims = gens
        self.dims = {q: series[q] for q in range(D + 1)}

    def as_table(self):
        return BettiTable(dims=dict(self.dims),
                          exact={q: True for q in self.dims})


def expand_exterior(hc, max_degree):
    """BettiTable of Lambda(H[1]) truncated at max_degree.

    The input table must be exact in degrees 0..max_degree-1 (those are
    the classes whose shifted generators can reach the truncation).
    """
    return ExteriorExpansion(hc, max_degree).as_table()


# ---------------------------------------------------------------------------
# The block-sum product on coinvariant homology


def _interleave_word(word, n, base_dim, side):
    """Relabel a gl_n word into gl_2n: side 0 takes position (i, j) to
    (2i, 2j) (the 1-based odd slots), side 1 to (2i+1, 2j+1)."""
    out = []
    for idx in word:
        a, i, j = gl_entry(idx, n, base_dim)
        out.append(gl_index(2 * n, base_dim, a, 2 * i + side, 2 * j + side))
    return tuple(out)


@dataclass
class HopfProductReport:
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


def hopf_product_on_homology(model_n, model_2n):
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
    coalg = model_n.coproduct()
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

    return HopfProductReport(
        base=base.name or "A", n=n, target=2 * n, max_degree=max_degree,
        class_dims={q: table_n.dims[q] for q in degrees},
        products=products, stabilized=stabilized, unit_ok=unit_ok,
        commutative_violations=commutative_violations,
        associative_violations=associative_violations,
        associative_unstable=associative_unstable,
        primitive_product_violations=primitive_product_violations,
        checked_pairs=len(products), checked_triples=checked_triples)


# ---------------------------------------------------------------------------
# The degree-by-degree comparison


@dataclass
class LQTReport:
    """Degree-by-degree comparison of coinvariant matrix homology with
    the exterior expansion of cyclic homology.

    `left` holds the computed dimensions per tested size, `right` the
    expansion of the cyclic homology table, `primitive_dims` the
    dimensions of the primitive subspaces at the largest tested size.
    A degree is stable when two consecutive tested sizes n, n+1 with
    n+1 >= degree agree there; `verdicts` and `primitive_verdicts` carry
    MATCH / MISMATCH / UNSTABLE per degree, and unstable degrees are
    never silently compared.  Every equality is exact.
    """

    algebra: str
    sizes: list
    max_degree: int
    left: dict
    right: dict
    hc_dims: dict
    primitive_dims: dict
    stable_from: dict
    stable_dims: dict
    verdicts: dict
    primitive_verdicts: dict
    hopf: object = None

    @property
    def all_match(self):
        return all(v == MATCH for v in self.verdicts.values()) and \
            all(v == MATCH for v in self.primitive_verdicts.values())


def verify_lqt(base, sizes, max_degree):
    """Run the full comparison for a unital certified algebra.

    Builds the coinvariant homology of gl_n(A) for each size, detects
    stability, expands the cyclic homology table, compares homology and
    primitive dimensions, and - when the doubled algebra fits the
    budget - verifies the block-sum product.  For sizes <= 2 the
    coinvariant reduction is additionally checked against the full
    (unreduced) homology, which reductivity makes equal.
    """
    if base.unit is None or not check_strict_unit(base):
        raise ValueError("the comparison needs a strictly unital algebra")
    report = check_stasheff(base)
    if not report:
        raise ValueError(
            f"the base algebra is not certified: witness {report.witness}")
    sizes = sorted(set(int(n) for n in sizes))
    if not sizes or sizes[0] < 1:
        raise ValueError("matrix sizes must be integers >= 1")

    def build(n):
        # the base is certified above, so a refusal or a failed
        # re-certification while building the model is a fault of the package
        try:
            return gl_coinvariant_model(base, n, max_degree)
        except ValueError as exc:
            raise InconsistencyError(
                f"the model of gl_{n} failed on a certified base: {exc}") from exc

    models = {n: build(n) for n in sizes}
    left = {}
    for n in sizes:
        table = models[n].homology()
        left[n] = {q: table.dims.get(q, 0) for q in range(max_degree + 1)}

    for n in sizes:
        if n > 2:
            continue
        full = lie_homology(models[n].algebra, max_degree)
        for q in range(max_degree + 1):
            if full.dims.get(q, 0) != left[n][q]:
                raise InconsistencyError(
                    f"coinvariant reduction changed homology at size {n}, "
                    f"degree {q}: {full.dims.get(q, 0)} != {left[n][q]}")

    hc = cyclic_homology(base, max_degree - 1 if max_degree else 0)
    right = expand_exterior(hc, max_degree)

    n_big = max(sizes)
    coalg = models[n_big].coproduct()
    reps = coalg.table.representatives
    if {q: len(reps.get(q, [])) for q in range(max_degree + 1)} != left[n_big]:
        raise InconsistencyError("representative homology disagrees with the "
                                 "dimension computation at the largest size")
    prim = primitives(coalg)
    primitive_dims = {q: prim[q].dim for q in sorted(prim)}
    for q, d in primitive_dims.items():
        if d > left[n_big].get(q, 0):
            raise InconsistencyError(
                f"primitive dimension exceeds homology dimension at degree {q}")

    stable_from = {}
    stable_dims = {}
    for q in range(max_degree + 1):
        certifying = None
        values = []
        for n in sizes:
            if n + 1 in models and left[n][q] == left[n + 1][q] and n + 1 >= q:
                certifying = n + 1
                values.append(left[n + 1][q])
        if certifying is not None and len(set(values)) == 1:
            stable_from[q] = certifying
            stable_dims[q] = values[0]
        else:
            stable_from[q] = None

    verdicts = {}
    for q in range(max_degree + 1):
        if stable_from[q] is None:
            verdicts[q] = UNSTABLE
        elif stable_dims[q] == right.dims.get(q, 0):
            verdicts[q] = MATCH
        else:
            verdicts[q] = MISMATCH

    primitive_verdicts = {}
    for q in range(1, max_degree + 1):
        if stable_from[q] is None:
            primitive_verdicts[q] = UNSTABLE
        elif primitive_dims.get(q, 0) == hc.dims.get(q - 1, 0):
            primitive_verdicts[q] = MATCH
        else:
            primitive_verdicts[q] = MISMATCH

    n_h = min(3, n_big)
    ambient = base.space.dim * (2 * n_h) ** 2
    if ambient <= HOPF_BUDGET:
        for n in (n_h, 2 * n_h):
            if n not in models:
                models[n] = build(n)
        hopf = hopf_product_on_homology(models[n_h], models[2 * n_h])
    else:
        hopf = (f"skipped: doubled ambient dimension {ambient} exceeds "
                f"the harness budget {HOPF_BUDGET}")

    return LQTReport(
        algebra=base.name or "A", sizes=sizes, max_degree=max_degree,
        left=left, right={q: right.dims.get(q, 0) for q in range(max_degree + 1)},
        hc_dims={q: hc.dims.get(q, 0) for q in sorted(hc.dims)},
        primitive_dims=primitive_dims,
        stable_from=stable_from, stable_dims=stable_dims,
        verdicts=verdicts, primitive_verdicts=primitive_verdicts,
        hopf=hopf)
