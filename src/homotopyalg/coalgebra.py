"""Cofree coalgebras at finite weight and their coderivations.

Two flavors are supported on words over a suspended `Space`:

* tensor flavor: plain tuples, deconcatenation coproduct; a cochain component
  f_k is applied to every length-k window with the Koszul prefix sign
  (-1)^(|f| * (deg of factors left of the window)).
* symmetric flavor: canonically sorted words (the coinvariant model of the
  symmetric coalgebra on the suspension), shuffle coproduct with one term per
  shuffle, and the coderivation extension with one term per unshuffle; the
  cochain output is wedged at the front, then the word is re-canonicalized.

A coderivation is determined by its corestriction (the weight-1 part of its
output), and `read_off` inverts `extend_coderivation`; the graded commutator
of two coderivations is again one, with `bracket` producing its cochain.

The symmetrization maps are normalized so that include_i is the full signed
sum over permutations (no 1/n!), project_p divides by n!, p . i = id, and the
shuffle coproduct is exactly the image of deconcatenation under (p (x) p) . i.
With these choices the arity-2 read-off of p . D_m . i is the plain graded
commutator, with no stray factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .graded import (
    Space,
    act,
    add_into,
    canonical_sym,
    unshuffle_splits,
)

__all__ = [
    "Cochain",
    "Coderivation",
    "WeightCap",
    "WeightCapExceeded",
    "coproduct_tensor",
    "coproduct_sym",
    "extend_coderivation",
    "read_off",
    "bracket",
    "project_p",
    "include_i",
]


class WeightCapExceeded(Exception):
    """A word was longer than the coderivation's declared weight cap."""


@dataclass(frozen=True)
class WeightCap:
    """Truncation bounds: words of weight <= max_weight and total suspended
    degree <= max_degree.  A None weight means no weight restriction (degree
    truncation alone already makes every block finite over a suspension)."""

    max_weight: int | None
    max_degree: int

    def __post_init__(self):
        if self.max_weight is not None and self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")

    def admits(self, word, space):
        if self.max_weight is not None and len(word) > self.max_weight:
            return False
        return space.word_degree(word) <= self.max_degree


@dataclass
class Cochain:
    """Multilinear components {arity: {input word: {basis index: Fraction}}}.

    `degree` is the operator's (suspended) degree, enforced on set_value:
    every output index must sit in degree (input degree) + degree.  The sign
    rules (and the fact that a commutator of coderivations is again one) are
    only sound for homogeneous operators.  Symmetric cochains store values on
    canonically sorted inputs only and extend to arbitrary inputs by the
    Koszul sign of sorting.
    """

    space: Space
    degree: int
    comps: dict = field(default_factory=dict)
    symmetric: bool = False

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
        for i in value:
            if Fraction(value[i]) and self.space.degrees[i] != in_deg + self.degree:
                raise ValueError(
                    f"inhomogeneous value: component at {word} (degree {in_deg}) hits "
                    f"basis index {i} of degree {self.space.degrees[i]}, but the "
                    f"operator has degree {self.degree}")
        clean = {i: Fraction(v) for i, v in value.items() if Fraction(v)}
        if clean:
            self.comps.setdefault(len(word), {})[word] = clean
        else:
            self.comps.get(len(word), {}).pop(word, None)

    def apply(self, word):
        """Value on a word, {basis index: Fraction}; {} when absent/zero."""
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


@dataclass
class Coderivation:
    """Coderivation of the weight-graded cofree coalgebra in either flavor."""

    cochain: Cochain
    flavor: str  # "tensor" or "sym"
    max_weight: int | None = None

    def __post_init__(self):
        if self.flavor not in ("tensor", "sym"):
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @property
    def degree(self):
        return self.cochain.degree

    def eval_word(self, word):
        if self.max_weight is not None and len(word) > self.max_weight:
            raise WeightCapExceeded(
                f"word of weight {len(word)} exceeds cap {self.max_weight}")
        if self.flavor == "tensor":
            return self._eval_tensor(word)
        return self._eval_sym(word)

    def eval(self, element):
        out = {}
        for word, coeff in element.items():
            for w, c in self.eval_word(word).items():
                add_into(out, w, c * coeff)
        return out

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


def extend_coderivation(cochain, flavor, max_weight=None):
    if flavor == "sym" and not cochain.symmetric:
        raise ValueError("symmetric flavor requires a symmetric cochain")
    return Coderivation(cochain, flavor, max_weight)


def coproduct_tensor(word):
    """Deconcatenation coproduct: {(left, right): 1} over all splits."""
    out = {}
    for i in range(len(word) + 1):
        add_into(out, (word[:i], word[i:]), Fraction(1))
    return out


def coproduct_sym(word, space):
    """Shuffle coproduct on a canonical word, one term per shuffle, both
    counit terms included: {(left, right): sign}."""
    degs = [space.degrees[i] for i in word]
    n = len(word)
    out = {}
    for k in range(n + 1):
        for sign, front, back in unshuffle_splits(word, degs, k):
            add_into(out, (front, back), Fraction(sign))
    return out


def read_off(operator, space, arity, words=None, symmetric=False):
    """Corestriction of a word-level operator at one arity.

    `operator` maps a word to an element dict; the component collects the
    weight-1 part of its value on every basis word of the given arity (all
    tuples for tensor flavor, canonical words for symmetric).
    """
    comp = {}
    if words is None:
        if symmetric:
            words = itertools.combinations_with_replacement(range(space.dim), arity)
            words = [w for w in words if canonical_sym(w, space)[0] != 0]
        else:
            words = itertools.product(range(space.dim), repeat=arity)
    for word in words:
        word = tuple(word)
        val = {}
        for w, c in operator(word).items():
            if len(w) == 1:
                add_into(val, w[0], c)
        if val:
            comp[word] = val
    return comp


def bracket(d1, d2, max_arity):
    """Cochain of the graded commutator [d1, d2] up to the given arity.

    Both coderivations must share flavor and space; the result extends (in the
    same flavor) to the operator d1 . d2 - (-1)^(|d1||d2|) d2 . d1.
    """
    if d1.flavor != d2.flavor:
        raise ValueError("bracket requires coderivations of the same flavor")
    space = d1.cochain.space
    sign = -1 if (d1.degree % 2) and (d2.degree % 2) else 1
    symmetric = d1.flavor == "sym"

    def commutator(word):
        out = d1.eval(d2.eval_word(word))
        for w, c in d2.eval(d1.eval_word(word)).items():
            add_into(out, w, -sign * c)
        return out

    result = Cochain(space, d1.degree + d2.degree, symmetric=symmetric)
    for n in range(0, max_arity + 1):
        comp = read_off(commutator, space, n, symmetric=symmetric)
        if comp:
            result.comps[n] = comp
    return result


def include_i(element, space):
    """Coinvariant-model word -> invariant tensor: full signed permutation sum
    (no 1/n! normalization)."""
    out = {}
    for word, coeff in element.items():
        n = len(word)
        degs = [space.degrees[i] for i in word]
        for perm in itertools.permutations(range(n)):
            s, w = act(perm, word, degs)
            add_into(out, w, coeff * s)
    return out


def project_p(element, space):
    """Tensor element -> coinvariant model: canonicalize and divide by n!.

    Retraction of include_i: p . i = id on symmetric elements.
    """
    out = {}
    for word, coeff in element.items():
        n = len(word)
        sign, cw = canonical_sym(word, space)
        if sign == 0:
            continue
        norm = Fraction(1)
        for k in range(2, n + 1):
            norm /= k
        add_into(out, cw, coeff * sign * norm)
    return out
