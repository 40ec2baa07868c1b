"""Homotopy-associative structures and their cyclic complexes.

An algebra is stored twice (the layout of `coalgebra.HomotopyAlgebra`): the
input-level operations mu_k on the unsuspended graded space (mu_k raises
degree by k-2), and the coderivation m = `alg.coderivation` on the
suspension, where all mu_k collapse to a single degree -1 coderivation of
the tensor coalgebra.  The sign of the translation on basis elements is

    m_k(s a_1, ..., s a_k) = (-1)^(sum_t (k-t) |a_t|) s mu_k(a_1, ..., a_k)

with unsuspended degrees in the exponent; squaring of the coderivation is then
exactly the full tower of higher associativity identities.

The cyclic complex lives on nonempty tensor words over the suspension, graded
so that degree q collects words of total suspended degree q+1; this is finite
in each degree because suspended degrees are >= 1, so no weight cap is ever
needed for correctness (one may still be imposed for speed, flagged inexact).
The cyclic rotation moves the last factor to the front with its Koszul sign,
and the boundary adds wraparound terms to the coderivation: rotate a tail
segment to the front, then apply m_k to the leading window with no prefix
sign.  For an ungraded associative algebra this reduces term-for-term to the
classical cyclic boundary and (-1)^n rotation.
"""

from __future__ import annotations

from .coalgebra import HomotopyAlgebra, StructureReport, certify
from .graded import GradedSpace, add_into, is_integer, require_bound

__all__ = [
    "AInftyAlgebra",
    "StructureReport",
    "UnitalityReport",
    "check_stasheff",
    "check_strict_unit",
    "require_strict_unit",
    "from_associative",
    "from_dga",
    "cyclic_words",
    "cyclic_boundary",
    "rotation_span",
    "cyclic_letters",
    "cyclic_complex",
    "cyclic_homology",
]


class AInftyAlgebra(HomotopyAlgebra):
    """Finite-dimensional homotopy-associative algebra over Q, with the basis
    index of a strict unit, if any, in `unit`."""

    def __init__(self, space, ops, unit=None, name=""):
        super().__init__(space, ops, name)
        if unit is not None and not (is_integer(unit)
                                     and 0 <= unit < space.dim):
            raise ValueError(f"a unit must be a basis index in "
                             f"range({space.dim}), got {unit!r}")
        self.unit = unit


def from_associative(labels, mult, unit=None, name=""):
    """Degree-0 associative algebra as a homotopy algebra with only mu_2:
    `from_dga` with every degree 0 and no differential.

    `mult` maps basis pairs (i, j) to sparse products {k: coeff}.  A failure
    of associativity or of a declared unit raises ValueError with its
    witness.
    """
    labels = tuple(labels)
    return from_dga(labels, (0,) * len(labels), {}, mult, unit, name)


# What the first nonzero component of the square of mu_1 + mu_2 violates,
# by its arity.
_DGA_FAILURES = {1: "differential does not square to zero",
                 2: "Leibniz rule fails",
                 3: "multiplication not associative"}


def from_dga(labels, degrees, differential, mult, unit=None, name=""):
    """Differential graded algebra as a homotopy algebra with mu_1 and mu_2.

    `differential` maps a basis index to its sparse image one degree down.
    The square of the coderivation has components d^2 in arity 1, the
    signed Leibniz rule d(ab) = (da)b + (-1)^|a| a(db) in arity 2 and
    associativity in arity 3, so `check_stasheff` certifies all three; a
    failure raises ValueError naming the identity and its witness.  A
    declared unit is checked with `require_strict_unit`.
    """
    ops = {1: {(i,): v for i, v in differential.items()}, 2: dict(mult)}
    alg = AInftyAlgebra(GradedSpace(labels, degrees), ops,
                        unit=unit, name=name)
    report = check_stasheff(alg)
    if not report:
        raise ValueError(f"{_DGA_FAILURES[report.witness[0]]}: "
                         f"witness {report.witness}")
    if alg.unit is not None:
        require_strict_unit(alg)
    return alg


def check_stasheff(alg, max_arity=None):
    """Verify the higher associativity tower by squaring the coderivation.

    With components up to arity K, the square has components only up to
    2K - 1, so `certify` checks that far for a complete proof; a smaller
    cap yields a partial certificate.
    """
    d = alg.coderivation
    return certify(d, d, max_arity)


class UnitalityReport:
    def __init__(self, failures):
        self.failures = failures  # (description, arity, word)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok


def check_strict_unit(alg):
    """Strict unit axioms on the unsuspended operations: mu_2(e, a) = a =
    mu_2(a, e), and every other arity vanishes whenever e is an argument."""
    e = alg.unit
    if e is None:
        return UnitalityReport([("no unit declared", 0, ())])
    failures = []
    dim = alg.space.dim
    for a in range(dim):
        if alg.op_value(2, (e, a)) != {a: 1}:
            failures.append(("left unit law fails", 2, (e, a)))
        if alg.op_value(2, (a, e)) != {a: 1}:
            failures.append(("right unit law fails", 2, (a, e)))
    for k, table in alg.ops.items():
        if k == 2:
            continue
        for word, val in table.items():
            if e in word and val:
                failures.append(
                    (f"arity {k} operation must vanish on the unit", k, word))
    return UnitalityReport(failures)


def require_strict_unit(alg):
    """Raise ValueError naming the first failure of `check_strict_unit`
    unless `alg` has a strict unit."""
    unitality = check_strict_unit(alg)
    if not unitality:
        reason, _, word = unitality.failures[0]
        raise ValueError(
            f"no strict unit (not strictly unital): {reason} at {word}")


def cyclic_words(space, total_degree):
    """All nonempty words over a suspended space with the given total degree,
    in lexicographic order.  Finite since suspended degrees are positive."""
    out = []
    degs = space.degrees

    def extend(prefix, remaining):
        if remaining == 0:
            if prefix:
                out.append(tuple(prefix))
            return
        for i in range(space.dim):
            if degs[i] <= remaining:
                prefix.append(i)
                extend(prefix, remaining - degs[i])
                prefix.pop()

    extend([], total_degree)
    return out


def _rotate(word, degrees, s):
    """Move the last s factors of a word to the front, (sign, word): the
    moved block passes the rest as a whole, so the Koszul sign is
    (-1)^(|moved| |rest|) with `degrees` indexed by letter."""
    cut = len(word) - s
    moved = sum(degrees[i] for i in word[cut:])
    rest = sum(degrees[i] for i in word[:cut])
    return -1 if moved * rest % 2 else 1, word[cut:] + word[:cut]


def cyclic_boundary(alg):
    """The cyclic boundary as a function on words: the coderivation terms plus
    wraparound windows (rotate s tail factors to the front, apply m_k there)."""
    m = alg.coderivation
    degrees = alg.suspended.degrees
    arities = m.arities()

    def b(word):
        out = m.eval_word(word)
        for k in arities:
            if k > len(word):
                continue
            for s in range(1, k):
                sign, w = _rotate(word, degrees, s)
                val = m.apply(w[:k])
                for idx, c in val.items():
                    add_into(out, (idx,) + w[k:], sign * c)
        return out

    return b


def rotation_span(space, words):
    """Generators of the rotation coinvariance span: (1 - lambda) w."""
    out = []
    for w in words:
        sign, rw = _rotate(w, space.degrees, 1)
        el = {w: 1}
        add_into(el, rw, -sign)
        if el:
            out.append(el)
    return out


def cyclic_letters(q):
    """The most letters a word that HC_q reads can have: degree q takes
    boundaries from the words of total suspended degree q + 2, and every
    letter has suspended degree >= 1.  A weight cap below this truncates
    degree q."""
    return q + 2


def cyclic_complex(alg, max_degree, max_weight=None):
    """ChainComplex of cyclic words in degrees 0..max_degree+1, with the
    rotation quotient applied blockwise.  `max_degree` must be a bound
    (`graded.is_bound`), and `max_weight` None or one; anything else is
    refused with ValueError before a word is listed."""
    from .chain import ChainComplex

    require_bound("max_degree", max_degree)
    if max_weight is not None:
        require_bound("max_weight", max_weight)
    space = alg.suspended
    blocks, spans = {}, {}
    for q in range(0, max_degree + 2):
        words = cyclic_words(space, q + 1)
        if max_weight is not None:
            words = [w for w in words if len(w) <= max_weight]
        if not words:
            continue
        blocks[q] = words
        spans[q] = rotation_span(space, words)
    b = cyclic_boundary(alg)
    return ChainComplex(blocks, lambda q, w: b(w), quotient_spans=spans)


def cyclic_homology(alg, max_degree, max_weight=None):
    """Cyclic homology in degrees 0..max_degree as a BettiTable.

    Numbers are exact unless the weight cap is below `cyclic_letters(q)`,
    in which case degree q is flagged inexact.  The bounds are refused as
    `cyclic_complex` refuses them.
    """
    cx = cyclic_complex(alg, max_degree, max_weight=max_weight)
    table = cx.homology(range(0, max_degree + 1))
    for q in table.dims:
        table.exact[q] = max_weight is None or max_weight >= cyclic_letters(q)
    return table
