import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg.graded import (
    GradedSpace,
    add_into,
    canonical_sym,
    exact,
    sign_of_arrangement,
    unshuffle_splits,
)

from word_oracles import act, canonical_sym_by_arrangement, inverse


# Permutation and element helpers that only these tests use.


def compose(p, q):
    """(p . q)[i] = p[q[i]]: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def koszul_sign(perm, degrees):
    """Sign of the left action of perm on factors with the given degrees."""
    return sign_of_arrangement(degrees, inverse(perm))


def symmetrize(element, space):
    """Average over all signed permutations: the projector onto symmetric
    tensors (coefficients in Q, so the 1/n! is exact)."""
    out = {}
    for word, coeff in element.items():
        n = len(word)
        degs = [space.degrees[i] for i in word]
        norm = Fraction(1, math.factorial(n))
        for perm in itertools.permutations(range(n)):
            sign, new_word = act(perm, word, degs)
            add_into(out, new_word, coeff * norm * sign)
    return out


def shuffles(p, q):
    """All (p,q)-shuffles as permutations: slots 0..p-1 and p..p+q-1 keep
    their relative order in the output."""
    n = p + q
    out = []
    for positions in itertools.combinations(range(n), p):
        rest = [j for j in range(n) if j not in positions]
        out.append(tuple(positions) + tuple(rest))
    return out


def element_eq(a, b):
    return {w: c for w, c in a.items() if c} == {w: c for w, c in b.items() if c}


def test_identity_sign():
    assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1


def test_transposition_mixed_degrees():
    # swapping degree-1 past degree-2 is even: sign +1
    assert koszul_sign((1, 0), (1, 2)) == 1
    # two odd factors anticommute
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (3, 5)) == -1


def test_three_cycle_sign_via_stepwise_transpositions():
    # independent oracle: apply the two transpositions one at a time, tracking
    # the permuted degree sequence between steps
    degs = (1, 1, 2)
    cycle = (1, 2, 0)  # 0->1->2->0
    t1 = (1, 0, 2)
    t2 = (0, 2, 1)
    assert compose(t1, t2) == cycle
    word = (10, 11, 12)
    s2, w_mid = act(t2, word, list(degs))
    degs_mid = [degs[word.index(i)] for i in w_mid]
    s1, w_end = act(t1, w_mid, degs_mid)
    s, w = act(cycle, word, list(degs))
    assert (s, w) == (s1 * s2, w_end)
    # hand value: the degree-2 factor moves past two degree-1 factors, even
    assert koszul_sign(cycle, degs) == 1


def test_left_action_composition_law():
    degs_pool = [(1, 1, 1), (1, 2, 1), (2, 2, 3), (1, 3, 2)]
    word = (5, 7, 9)
    for degs in degs_pool:
        for p in itertools.permutations(range(3)):
            for q in itertools.permutations(range(3)):
                s1, w1 = act(q, word, list(degs))
                degs_after = [degs[word.index(i)] for i in w1]
                s2, w2 = act(p, w1, degs_after)
                s, w = act(compose(p, q), word, list(degs))
                assert w == w2
                assert s == s1 * s2


def test_symmetrize_antisymmetric_pair_fixed():
    sp = GradedSpace(("x", "y"), (1, 1))
    e = {(0, 1): Fraction(1)}
    p = symmetrize(e, sp)
    assert p == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    anti = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    assert element_eq(symmetrize(anti, sp), anti)


def test_symmetrize_idempotent():
    rng = random.Random(3)
    sp = GradedSpace(("a", "b", "c"), (1, 2, 1))
    e = {}
    for _ in range(4):
        w = tuple(rng.randrange(3) for _ in range(3))
        add_into(e, w, Fraction(rng.randint(-3, 3)))
    once = symmetrize(e, sp)
    twice = symmetrize(once, sp)
    assert element_eq(once, twice)


def test_shuffles_2_2_against_bruteforce():
    got = set(shuffles(2, 2))
    brute = set()
    for perm in itertools.permutations(range(4)):
        if perm[0] < perm[1] and perm[2] < perm[3]:
            brute.add(perm)
    assert got == brute
    assert len(got) == 6


def test_shuffles_counts():
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (0, 3), (3, 0)]:
        ref = 1
        for i in range(1, p + q + 1):
            ref *= i
        fp = 1
        for i in range(1, p + 1):
            fp *= i
        fq = 1
        for i in range(1, q + 1):
            fq *= i
        assert len(shuffles(p, q)) == ref // (fp * fq)


def test_unshuffle_split_count_and_order():
    sp = GradedSpace(("a", "b", "c", "d"), (1, 1, 1, 1))
    word = (0, 1, 2, 3)
    splits = list(unshuffle_splits(word, [1, 1, 1, 1], 2))
    assert len(splits) == 6
    for _, front, back in splits:
        assert list(front) == sorted(front)
        assert list(back) == sorted(back)


def test_unshuffle_signs_all_odd():
    # pulling slot 1 of (v0, v1) to the front across an odd factor flips sign
    splits = dict()
    for sign, front, back in unshuffle_splits((0, 1), [1, 1], 1):
        splits[front] = sign
    assert splits[(0,)] == 1
    assert splits[(1,)] == -1


def test_canonical_sym_sorts_with_sign():
    sp = GradedSpace(("a", "b"), (1, 1))
    sign, w = canonical_sym((1, 0), sp)
    assert (sign, w) == (-1, (0, 1))
    sign, w = canonical_sym((0, 1), sp)
    assert (sign, w) == (1, (0, 1))


def test_canonical_sym_kills_repeated_odd():
    sp = GradedSpace(("a", "b"), (1, 2))
    sign, _ = canonical_sym((0, 0), sp)
    assert sign == 0
    # even repeats survive
    sign, w = canonical_sym((1, 1), sp)
    assert (sign, w) == (1, (1, 1))


def test_canonical_sym_consistent_with_action():
    rng = random.Random(9)
    sp = GradedSpace(("a", "b", "c", "d"), (1, 2, 1, 3))
    for _ in range(50):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
        s0, w0 = canonical_sym(word, sp)
        perm = tuple(rng.sample(range(len(word)), len(word)))
        degs = [sp.degrees[i] for i in word]
        s_act, moved = act(perm, word, degs)
        s1, w1 = canonical_sym(moved, sp)
        assert w0 == w1
        # canonicalizing before or after a permutation agrees (cocycle law)
        assert s0 == s_act * s1 or (s0 == 0 and s1 == 0)


@st.composite
def graded_words(draw):
    """A space of one to four letters of both parities, and a word of up to
    eight letters over it, so that even and odd letters repeat."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    space = GradedSpace(tuple("abcd"[:len(degrees)]), tuple(degrees))
    word = draw(st.lists(st.integers(0, len(degrees) - 1), max_size=8))
    return space, tuple(word)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(graded_words())
def test_canonical_sym_matches_the_arrangement_sign(drawn):
    space, word = drawn
    assert canonical_sym(word, space) == \
        canonical_sym_by_arrangement(word, space)


def test_exact_keeps_integers_as_int():
    assert [type(exact(c)) for c in (3, Fraction(4, 2), 2.0, True)] == [int] * 4
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert exact(0.5) == Fraction(1, 2) and type(exact(0.5)) is Fraction


def test_graded_space_validation():
    with pytest.raises(ValueError):
        GradedSpace(("a", "a"), (0, 0))
    with pytest.raises(ValueError):
        GradedSpace(("a",), (-1,))
    gs = GradedSpace(("a", "b"), (0, 2))
    sp = gs.suspend()
    assert sp.degrees == (1, 3)
    assert sp.word_degree((0, 1, 1)) == 7


def test_spaces_normalize_to_tuples_and_hash():
    gs = GradedSpace(["a"], [0])
    assert gs.labels == ("a",) and gs.degrees == (0,)
    assert hash(gs) == hash(GradedSpace(("a",), (0,)))
    assert gs == GradedSpace(("a",), (0,))
    sp = GradedSpace(["x", "y"], [1, 2])
    assert sp.degrees == (1, 2)
    assert {sp, GradedSpace(("x", "y"), (1, 2))} == {sp}
