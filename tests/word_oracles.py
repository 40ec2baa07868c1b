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

`act` is the general left action of a permutation on a word, with its
Koszul sign; the package only ever moves a tail of a word to its front, and
this is the reference for that rule.  `decalage_components` suspends
operations entry by entry by the decalage sign, the reference for the
structure map of `coalgebra.HomotopyAlgebra`.
"""

import itertools
import math
from fractions import Fraction

from homotopyalg.graded import add_into, canonical_sym, sign_of_arrangement


def inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def act(perm, word, degrees):
    """Left action on a word: slot i content moves to slot perm[i].

    Returns (sign, new_word) where degrees are those of the word's factors
    (not of the whole space); the sign is the product of (-1)^(d_i * d_j)
    over the pairs that invert.  Acting by q and then by p is acting by the
    composite p . q.
    """
    inv = inverse(perm)
    new_word = tuple(word[inv[j]] for j in range(len(word)))
    return sign_of_arrangement(degrees, inv), new_word


def decalage_components(space, ops):
    """The suspended components of operations on the unsuspended `space`:
    the entry of arity k on a_1 ... a_k, times (-1)^(sum_t (k - t) deg a_t),
    with zero values and empty entries left out."""
    comps = {}
    for k, table in ops.items():
        for word, value in table.items():
            exponent = sum((k - t) * space.degrees[a]
                           for t, a in enumerate(word, start=1))
            sign = (-1) ** exponent
            value = {i: sign * Fraction(c) for i, c in value.items() if c}
            if value:
                comps.setdefault(k, {})[tuple(word)] = value
    return comps


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


def necklaces_by_walk(degrees, top):
    """The reference for `constructions._necklaces`: every word of letters
    of total degree <= top is walked, the ones equal to their smallest
    rotation are kept, and so is each whose rotation by its period onto
    itself has Koszul sign +1."""
    out = []

    def extend(reading, degree):
        if reading:
            n = len(reading)
            turns = [reading[s:] + reading[:s] for s in range(1, n + 1)]
            if reading == min(turns):
                period = turns.index(reading) + 1
                order = tuple(range(period, n)) + tuple(range(period))
                if sign_of_arrangement([degrees[a] for a in reading],
                                       order) == 1:
                    out.append((reading, degree))
        for a, d in enumerate(degrees):
            if degree + d <= top:
                extend(reading + (a,), degree + d)

    extend((), 0)
    return sorted(out)
