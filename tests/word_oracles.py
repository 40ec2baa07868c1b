"""Word-level reference maps for the cofree coalgebras.

The package builds cochains from their nonzero entries only; these helpers
recompute the same objects word by word, so the tests can compare the two.

The symmetrization maps are normalized so that include_i is the full signed
sum over permutations (no 1/n!); its retraction p canonicalizes and divides
by n!, so p . i = id, and the shuffle coproduct is exactly the image of
deconcatenation under (p (x) p) . i.  With these choices the arity-2
read-off of p . D_m . i is the plain graded commutator, with no stray factor.

`canonical_sym_by_arrangement` is the earlier form of `canonical_sym`: it
sorts the positions by letter and takes the Koszul sign of that arrangement
over every pair of factors.  It is kept as the reference for the
odd-letter inversion count.
"""

import itertools
import math
from fractions import Fraction

from homotopyalg.graded import act, add_into, canonical_sym, sign_of_arrangement


def canonical_sym_by_arrangement(word, space):
    """(sign, sorted word) of a symmetric word, sign 0 on a repeated odd
    factor, by the Koszul sign of the sorting arrangement."""
    n = len(word)
    if n <= 1:
        return 1, tuple(word)
    degs = space.degrees
    order = sorted(range(n), key=lambda i: word[i])
    sorted_word = tuple(word[i] for i in order)
    for a in range(n - 1):
        if sorted_word[a] == sorted_word[a + 1] and degs[sorted_word[a]] % 2:
            return 0, sorted_word
    return sign_of_arrangement([degs[i] for i in word], order), sorted_word


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
        sign, cw = canonical_sym(word, space)
        if sign:
            add_into(out, cw, coeff * sign * Fraction(1, math.factorial(len(word))))
    return out


def read_off(operator, space, arity, symmetric=False):
    """Corestriction of a word-level operator at one arity.

    `operator` maps a word to an element dict; the component collects the
    weight-1 part of its value on every basis word of the given arity (all
    tuples for tensor flavor, canonical words for symmetric).
    """
    comp = {}
    if symmetric:
        words = itertools.combinations_with_replacement(range(space.dim), arity)
        words = [w for w in words if canonical_sym(w, space)[0] != 0]
    else:
        words = itertools.product(range(space.dim), repeat=arity)
    for word in words:
        val = {}
        for w, c in operator(word).items():
            if len(w) == 1:
                add_into(val, w[0], c)
        if val:
            comp[word] = val
    return comp
