"""Graded vector spaces, Koszul signs, and canonical words.

Conventions used throughout the package:

* A basis element of the underlying space has unsuspended degree >= 0; the
  suspension shifts every degree up by exactly 1, so an ungraded algebra sits
  in suspended degree 1.
* Words are tuples of basis indices into a `GradedSpace`; the degree of a
  word is the sum of its factor degrees (suspended degrees everywhere past
  this module's `suspend`).
* Symmetric words are canonicalized by sorting the indices; the Koszul sign of
  the sorting rearrangement is returned alongside, and a word with a repeated
  odd-degree factor is zero.
* Operators passing a tensor factor pick up (-1)^(|op| * |factor|); tensor
  products of operators follow (F (x) G)(x (x) y) = (-1)^(|G||x|) F x (x) G y.

Elements are plain dicts {word: coefficient}; helpers here keep them
normalized (no zero coefficients).  Coefficients are exact: an int when
integral, a Fraction otherwise (`exact`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

__all__ = [
    "GradedSpace",
    "sign_of_arrangement",
    "unshuffle_splits",
    "canonical_sym",
    "add_into",
    "exact",
]


class GradedSpace:
    """Finite list of labelled basis elements with degrees >= 0.  An
    algebra's space holds unsuspended degrees; its `suspend` holds degrees
    >= 1, and words index into that.  Spaces compare and hash by value."""

    def __init__(self, labels, degrees):
        # stored as tuples, so that a space hashes whatever sequences it was
        # built from
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        if len(self.labels) != len(self.degrees):
            raise ValueError("labels and degrees must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        for d in self.degrees:
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"unsuspended degrees must be integers >= 0, got {d!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.labels, self.degrees))

    @property
    def dim(self):
        return len(self.labels)

    def suspend(self):
        """The shifted space: degree d becomes d + 1."""
        return GradedSpace(self.labels, tuple(d + 1 for d in self.degrees))

    def word_degree(self, word):
        degs = self.degrees
        return sum(degs[i] for i in word)


def sign_of_arrangement(degrees, order):
    """Koszul sign of rearranging factors with the given degrees so that the
    output reads factor order[0], order[1], ... of the input.

    `order` is a permutation of range(len(degrees)) as source positions; the
    sign is (-1)^sum over inverted pairs of the degree product.
    """
    sign = 1
    n = len(order)
    for a in range(n):
        for b in range(a + 1, n):
            if order[a] > order[b]:
                if (degrees[order[a]] * degrees[order[b]]) % 2:
                    sign = -sign
    return sign


def unshuffle_splits(word, degrees, k):
    """All ways to pull k factors to the front, keeping relative order on both
    sides: yields (sign, front, back) with the Koszul sign of the rearrangement.

    This enumerates the (k, n-k)-unshuffles acting on the word.
    """
    n = len(word)
    for chosen in itertools.combinations(range(n), k):
        rest = [i for i in range(n) if i not in chosen]
        order = list(chosen) + rest
        sign = sign_of_arrangement(degrees, order)
        front = tuple(word[i] for i in chosen)
        back = tuple(word[i] for i in rest)
        yield sign, front, back


def canonical_sym(word, space):
    """Canonical representative of a symmetric word: indices sorted ascending.

    Returns (sign, sorted_word); sign 0 means the word vanishes (a repeated
    factor of odd suspended degree).  Only odd factors pass each other with
    a sign, so the sign is the parity of the inversions among them.
    """
    sorted_word = tuple(sorted(word))
    degs = space.degrees
    odd = [x for x in word if degs[x] % 2]
    if len(odd) < 2:
        return 1, sorted_word
    if len(set(odd)) < len(odd):
        return 0, sorted_word
    flips = 0
    for a, x in enumerate(odd):
        for y in odd[a + 1:]:
            if x > y:
                flips += 1
    return (-1 if flips % 2 else 1), sorted_word


def add_into(element, word, coeff):
    """element[word] += coeff, dropping zeros."""
    if not coeff:
        return
    nv = element.get(word, 0) + coeff
    if nv:
        element[word] = nv
    else:
        del element[word]


def exact(c):
    """A coefficient as an exact number: an int when it is integral, a
    Fraction otherwise (a float is read as the binary fraction it is)."""
    if type(c) is int:
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f
