"""Cofree coalgebras at finite weight and their coderivations.

Two flavors are supported on words over a suspended `GradedSpace`:

* tensor flavor: plain tuples, deconcatenation coproduct; a cochain component
  f_k is applied to every length-k window with the Koszul prefix sign
  (-1)^(|f| * (deg of factors left of the window)).
* symmetric flavor: canonically sorted words (the coinvariant model of the
  symmetric coalgebra on the suspension), shuffle coproduct with one term per
  shuffle, and the coderivation extension with one term per unshuffle; the
  cochain output is wedged at the front, then the word is re-canonicalized.

A coderivation is determined by its corestriction (the weight-1 part of its
output); the graded commutator of two coderivations is again one, with
`bracket` producing its cochain.
Every identity the package proves (higher associativity, homotopy Jacobi,
the derivation property) is the vanishing of such a commutator through the
top arity it can reach, and `certify` is the one routine that decides it.

`bracket` never evaluates a coderivation on basis words.  The corestriction
of D_f . D_g is a sum of partial compositions of the two cochains, one term
for each entry g(u) = sum a_y y of the inner cochain and each outer entry v
that has y as an input letter (Gerstenhaber's pre-Lie composition in the
tensor flavor, the Nijenhuis-Richardson composition in the symmetric one):

* tensor: v = p.y.s contributes (-1)^(|g| deg p) a_y f(v) on the word p.u.s;
* symmetric: with back = v minus one copy of y, it contributes

      prod_x C(mult_w(x), mult_u(x)) . eps(u.back -> w) . eps(y.back -> v)
          . a_y f(v)

  on the canonical word w of u.back, where eps is the Koszul sign of a
  rearrangement (nothing when w repeats an odd letter).
  The binomial counts the unshuffles of w whose front is u: equal even
  letters can be picked in that many ways, all with the same sign.

An arity-0 inner entry (u = ()) inserts its output; an arity-0 outer entry
has no input letter and never composes.  So the commutator is found from
the nonzero entries alone, and checking it through the top arity is still
a complete proof.

Every term is bilinear in one value of each cochain, so `bracket` sums the
compositions on integers: it scales each cochain by D_i, the lcm of its
value denominators, and divides every result value once by D_1 D_2.  An
integral cochain has D_i = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod

from .graded import (
    add_into,
    canonical_sym,
    exact,
    unshuffle_splits,
)

__all__ = [
    "Cochain",
    "Coderivation",
    "StructureReport",
    "coproduct_sym",
    "extend_coderivation",
    "bracket",
    "certify",
]


class Cochain:
    """Multilinear components {arity: {input word: {basis index: value}}},
    each value exact: an int when integral, else a Fraction.

    `degree` is the operator's (suspended) degree, enforced on set_value:
    every output index must sit in degree (input degree) + degree.  The sign
    rules (and the fact that a commutator of coderivations is again one) are
    only sound for homogeneous operators.  Symmetric cochains store values on
    canonically sorted inputs only and extend to arbitrary inputs by the
    Koszul sign of sorting.  Cochains compare by value.
    """

    def __init__(self, space, degree, comps=None, symmetric=False):
        self.space = space
        self.degree = degree
        self.comps = {} if comps is None else comps
        self.symmetric = symmetric

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.degree, self.comps, self.symmetric) == \
            (other.space, other.degree, other.comps, other.symmetric)

    def arities(self):
        return sorted(k for k, table in self.comps.items() if table)

    def set_value(self, word, value):
        word = tuple(word)
        if self.symmetric:
            sign, cw = canonical_sym(word, self.space)
            if sign == 0:
                raise ValueError(f"input {word} has a repeated odd factor, value is forced zero")
            if sign != 1 or cw != word:
                raise ValueError(f"symmetric cochain values must be given on sorted inputs, got {word}")
        in_deg = sum(self.space.degrees[i] for i in word)
        clean = {}
        for i, v in value.items():
            v = exact(v)
            if not v:
                continue
            if self.space.degrees[i] != in_deg + self.degree:
                raise ValueError(
                    f"inhomogeneous value: component at {word} (degree {in_deg}) hits "
                    f"basis index {i} of degree {self.space.degrees[i]}, but the "
                    f"operator has degree {self.degree}")
            clean[i] = v
        if clean:
            self.comps.setdefault(len(word), {})[word] = clean
        else:
            self.comps.get(len(word), {}).pop(word, None)

    def apply(self, word):
        """Value on a word, {basis index: value}; {} when absent/zero."""
        table = self.comps.get(len(word))
        if not table:
            return {}
        word = tuple(word)
        if not self.symmetric:
            return table.get(word, {})
        sign, cw = canonical_sym(word, self.space)
        if sign == 0:
            return {}
        val = table.get(cw)
        if not val:
            return {}
        if sign == 1:
            return val
        return {i: -v for i, v in val.items()}

    def max_arity(self):
        ars = self.arities()
        return ars[-1] if ars else 0


class Coderivation:
    """Coderivation of the weight-graded cofree coalgebra in either flavor."""

    def __init__(self, cochain, flavor):
        if flavor not in ("tensor", "sym"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.cochain = cochain
        self.flavor = flavor

    @property
    def degree(self):
        return self.cochain.degree

    def eval_word(self, word):
        if self.flavor == "tensor":
            return self._eval_tensor(word)
        return self._eval_sym(word)

    def _eval_tensor(self, word):
        space = self.cochain.space
        degs = space.degrees
        odd = self.cochain.degree % 2
        out = {}
        n = len(word)
        zero_comp = self.cochain.comps.get(0, {}).get((), None)
        prefix = 0
        for j in range(n + 1):
            sign = -1 if (odd and prefix % 2) else 1
            if zero_comp:
                for idx, coeff in zero_comp.items():
                    add_into(out, word[:j] + (idx,) + word[j:], sign * coeff)
            for k in self.cochain.arities():
                if k == 0 or j + k > n:
                    continue
                val = self.cochain.apply(word[j:j + k])
                if not val:
                    continue
                head, tail = word[:j], word[j + k:]
                for idx, coeff in val.items():
                    add_into(out, head + (idx,) + tail, sign * coeff)
            if j < n:
                prefix += degs[word[j]]
        return out

    def _eval_sym(self, word):
        space = self.cochain.space
        degs = [space.degrees[i] for i in word]
        out = {}
        for k in self.cochain.arities():
            if k > len(word):
                continue
            if k == 0:
                splits = [(1, (), tuple(word))]
            else:
                splits = unshuffle_splits(word, degs, k)
            for sign, front, back in splits:
                val = self.cochain.apply(front)
                if not val:
                    continue
                for idx, coeff in val.items():
                    s2, cw = canonical_sym((idx,) + back, space)
                    if s2:
                        add_into(out, cw, sign * s2 * coeff)
        return out


def extend_coderivation(cochain, flavor):
    if flavor == "sym" and not cochain.symmetric:
        raise ValueError("symmetric flavor requires a symmetric cochain")
    return Coderivation(cochain, flavor)


def coproduct_sym(word, space):
    """Shuffle coproduct on a canonical word, one term per shuffle, both
    counit terms included: {(left, right): sign}."""
    degs = [space.degrees[i] for i in word]
    n = len(word)
    out = {}
    for k in range(n + 1):
        for sign, front, back in unshuffle_splits(word, degs, k):
            add_into(out, (front, back), sign)
    return out


def _compose(outer, inner, max_arity, out, scale):
    """Add `scale` times the corestriction of outer . inner, through
    `max_arity`, to out = {arity: {word: {index: coeff}}}.

    The corestriction is a sum of partial compositions: for every inner
    entry u -> a.y and every outer entry v with an input letter y, the
    inner output is substituted for that y (see the module docstring).
    Only the entries are visited, never the basis words.
    """
    space = outer.cochain.space
    degs = space.degrees
    sym = outer.flavor == "sym"
    odd = inner.degree % 2
    # outer entries by input letter y, with the word around y and the sign
    # of taking y out: one record per position (tensor) or per distinct
    # letter (symmetric; the back word is then v minus one copy of y)
    by_letter = {}
    for k, table in outer.cochain.comps.items():
        if not k:
            continue
        for v, b in table.items():
            prefix = 0
            for i, y in enumerate(v):
                if sym:
                    if not (i and v[i - 1] == y):
                        sign = -1 if degs[y] % 2 and prefix % 2 else 1
                        by_letter.setdefault(y, []).append(
                            (v[:i] + v[i + 1:], sign, b))
                else:
                    sign = -1 if odd and prefix % 2 else 1
                    by_letter.setdefault(y, []).append((v[:i], v[i + 1:], sign, b))
                prefix += degs[y]
    for table in inner.cochain.comps.values():
        for u, a in table.items():
            room = max_arity - len(u)
            counts = [(x, u.count(x)) for x in set(u)] if sym else ()
            for y, ay in a.items():
                for entry in by_letter.get(y, ()):
                    if sym:
                        back, sign, b = entry
                        if len(back) > room:
                            continue
                        s, w = canonical_sym(u + back, space)
                        if not s:
                            continue
                        mult = prod(comb(m + back.count(x), m) for x, m in counts)
                        coeff = scale * mult * s * sign * ay
                    else:
                        head, tail, sign, b = entry
                        if len(head) + len(tail) > room:
                            continue
                        w = head + u + tail
                        coeff = scale * sign * ay
                    val = out.setdefault(len(w), {}).setdefault(w, {})
                    for z, bz in b.items():
                        add_into(val, z, coeff * bz)


def _integral(d):
    """(D, the coderivation d with every value scaled by D to an int), where
    D is the lcm of the value denominators of its cochain."""
    c = d.cochain
    D = lcm(*(v.denominator for table in c.comps.values()
              for val in table.values() for v in val.values()))
    comps = {k: {w: {i: v.numerator * (D // v.denominator)
                     for i, v in val.items()}
                 for w, val in table.items()}
             for k, table in c.comps.items()}
    return D, Coderivation(Cochain(c.space, c.degree, comps, c.symmetric),
                           d.flavor)


def bracket(d1, d2, max_arity):
    """Cochain of the graded commutator [d1, d2] up to the given arity.

    Both coderivations must share flavor and space; the result extends (in the
    same flavor) to the operator d1 . d2 - (-1)^(|d1||d2|) d2 . d1.  Its
    components are built from partial compositions of the two cochains,
    summed on integers (see the module docstring) and divided once.  When
    d1 is d2 the two compositions agree, so [d, d] = (1 - (-1)^(|d||d|))
    d . d is composed once, and not at all for an even d.
    """
    if d1.flavor != d2.flavor:
        raise ValueError("bracket requires coderivations of the same flavor")
    sign = -1 if (d1.degree % 2) and (d2.degree % 2) else 1
    D1, i1 = _integral(d1)
    out = {}
    if d1 is d2:
        scale = D1 * D1
        if 1 - sign:
            _compose(i1, i1, max_arity, out, 1 - sign)
    else:
        D2, i2 = _integral(d2)
        scale = D1 * D2
        _compose(i1, i2, max_arity, out, 1)
        _compose(i2, i1, max_arity, out, -sign)
    result = Cochain(d1.cochain.space, d1.degree + d2.degree,
                     symmetric=d1.flavor == "sym")
    for n in sorted(out):
        comp = {w: {z: Fraction(c, scale) for z, c in out[n][w].items()}
                for w in sorted(out[n]) if out[n][w]}
        if comp:
            result.comps[n] = comp
    return result


class StructureReport:
    def __init__(self, ok, checked_arity, complete, witness=None):
        self.ok = ok
        self.checked_arity = checked_arity
        self.complete = complete  # True when the check proves all identities
        self.witness = witness    # (arity, word, defect element)

    def __bool__(self):
        return self.ok


# Commutators certified to vanish in this process, keyed on what the
# certificate depends on: flavor, suspended degrees, cap and both cochains
# (labels and names are left out).  Only passes are kept, so a failing pair
# is always recomputed and reported with its witness; the oldest key is
# dropped first.
_CERTIFIED = {}
_CERTIFIED_MAX = 64


def _cochain_key(cochain):
    return cochain.degree, cochain.symmetric, tuple(
        (k, tuple(sorted((word, tuple(sorted(val.items())))
                         for word, val in table.items())))
        for k, table in sorted(cochain.comps.items()) if table)


def certify(d1, d2, full, max_arity=None):
    """Certify that the graded commutator [d1, d2] vanishes.

    `full` is the top arity at which the commutator can have a component,
    so checking through it is a complete proof; `max_arity` lowers the cap
    to min(max_arity, full) and yields a partial certificate.  On failure
    the witness is the first nonzero component in (arity, sorted word)
    order.  A pair already certified in this process at the same cap is not
    bracketed again.
    """
    cap = full if max_arity is None else min(max_arity, full)
    key = (d1.flavor, d1.cochain.space.degrees, cap,
           _cochain_key(d1.cochain), _cochain_key(d2.cochain))
    if key not in _CERTIFIED:
        comm = bracket(d1, d2, cap)
        for n in sorted(comm.comps):
            table = comm.comps[n]
            for word in sorted(table):
                return StructureReport(False, cap, cap >= full,
                                       (n, word, dict(table[word])))
        if len(_CERTIFIED) >= _CERTIFIED_MAX:
            del _CERTIFIED[next(iter(_CERTIFIED))]
        _CERTIFIED[key] = None
    return StructureReport(True, cap, cap >= full)

