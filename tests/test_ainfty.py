import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg.graded import GradedSpace, add_into
from homotopyalg.ainfty import (
    _rotate,
    AInftyAlgebra,
    check_stasheff,
    check_strict_unit,
    cyclic_boundary,
    cyclic_complex,
    cyclic_homology,
    cyclic_words,
    from_associative,
    from_dga,
    rotate_word,
    rotation_span,
)

from oracles import connes_cyclic_dims
from word_oracles import act


def ground_field():
    return AInftyAlgebra(
        GradedSpace(("1",), (0,)), {2: {(0, 0): {0: 1}}}, unit=0, name="K")


def dual_numbers():
    ops = {2: {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}}
    return AInftyAlgebra(GradedSpace(("1", "e"), (0, 0)), ops, unit=0)


def upper_triangular():
    # 1, n, p with p*p = p, n*p = n, p*n = 0, n*n = 0  (strictly upper 2x2 + unit)
    ops = {2: {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
               (1, 0): {1: 1}, (2, 0): {2: 1},
               (1, 2): {1: 1}, (2, 2): {2: 1}}}
    return AInftyAlgebra(GradedSpace(("1", "n", "p"), (0, 0, 0)), ops, unit=0)


def two_term_dga():
    # 1, x with |x| = 1, d x = 1, x*x = 0
    ops = {1: {(1,): {0: 1}},
           2: {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}}
    return AInftyAlgebra(GradedSpace(("1", "x"), (0, 1)), ops, unit=0)


def ternary_only():
    return AInftyAlgebra(GradedSpace(("a", "b"), (0, 1)),
                         {3: {(0, 0, 0): {1: 1}}})


def nonassociative():
    ops = {2: {(0, 0): {1: 1}, (0, 1): {0: 1}}}
    return AInftyAlgebra(GradedSpace(("u", "v"), (0, 0)), ops)


FIXTURES = [ground_field, dual_numbers, upper_triangular, two_term_dga, ternary_only]


@pytest.mark.parametrize("make", FIXTURES)
def test_stasheff_certificates(make):
    rep = check_stasheff(make())
    assert rep.ok and rep.complete


def test_stasheff_violation_witness():
    rep = check_stasheff(nonassociative())
    assert not rep.ok
    arity, word, defect = rep.witness
    assert arity == 3 and word == (0, 0, 0) and defect


def test_from_dga_names_the_failing_identity():
    # z -> y -> x: d^2 z = x
    with pytest.raises(ValueError, match="does not square to zero"):
        from_dga(["x", "y", "z"], [0, 1, 2], {2: {1: 1}, 1: {0: 1}}, {})
    # d x = 1, but 1 x = 0: d(1 x) = 0 while (d1) x + 1 (dx) = 1
    with pytest.raises(ValueError, match="Leibniz rule fails"):
        from_dga(["1", "x"], [0, 1], {1: {0: 1}}, {(0, 0): {0: 1}})
    # u u = v, u v = u: (u u) u = 0 but u (u u) = u
    with pytest.raises(ValueError, match="not associative"):
        from_dga(["u", "v"], [0, 0], {}, {(0, 0): {1: 1}, (0, 1): {0: 1}})


def test_from_dga_checks_a_declared_unit():
    # the table is associative with unit "1", but "x" is declared the unit
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    with pytest.raises(ValueError, match=r"unit law fails at \(1, 0\)"):
        from_dga(["1", "x"], [0, 0], {}, mult, unit=1)
    with pytest.raises(ValueError, match=r"unit law fails at \(1, 0\)"):
        from_associative(["1", "x"], mult, unit=1)
    assert from_dga(["1", "x"], [0, 0], {}, mult, unit=0).unit == 0


def test_from_associative_agrees_with_from_dga_in_degree_zero():
    # u u = v, u v = u: both constructors refuse with the same message
    bad = {(0, 0): {1: 1}, (0, 1): {0: 1}}
    messages = []
    for build in (lambda: from_associative(["u", "v"], bad),
                  lambda: from_dga(["u", "v"], [0, 0], {}, bad)):
        with pytest.raises(ValueError) as caught:
            build()
        messages.append(str(caught.value))
    assert messages == ["multiplication not associative: witness "
                        "(3, (0, 0, 0), {0: Fraction(-2, 1)})"] * 2
    mult = {(0, 0): {0: 1}}
    ring = from_associative(["1"], mult, unit=0, name="K")
    dga = from_dga(["1"], [0], {}, mult, unit=0, name="K")
    assert (ring.ops, ring.unit, ring.space) == (dga.ops, dga.unit, dga.space)


def test_decalage_signs_frozen():
    m = two_term_dga().coderivation
    assert m.comps[1] == {(1,): {0: Fraction(1)}}
    assert m.comps[2] == {(0, 0): {0: Fraction(1)},
                          (0, 1): {1: Fraction(1)},
                          (1, 0): {1: Fraction(-1)}}
    m3 = ternary_only().coderivation
    assert m3.comps[3] == {(0, 0, 0): {1: Fraction(1)}}


def test_strict_unit_reports():
    for make in (ground_field, dual_numbers, upper_triangular, two_term_dga):
        assert check_strict_unit(make()).ok
    assert not check_strict_unit(ternary_only()).ok
    broken = AInftyAlgebra(
        GradedSpace(("1", "e"), (0, 0)),
        {2: {(0, 0): {0: 1}, (1, 0): {1: 1}}}, unit=0)
    rep = check_strict_unit(broken)
    assert not rep.ok
    assert any(word == (0, 1) for _, _, word in rep.failures)


def test_unit_killing_higher_arity_flagged():
    alg = AInftyAlgebra(
        GradedSpace(("1", "x"), (0, 1)),
        {2: {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
         3: {(0, 0, 0): {1: 1}}}, unit=0)
    rep = check_strict_unit(alg)
    assert not rep.ok and rep.failures[0][1] == 3


def test_cyclic_words_enumeration():
    sp = two_term_dga().suspended  # degrees (1, 2)
    assert cyclic_words(sp, 1) == [(0,)]
    assert cyclic_words(sp, 2) == [(0, 0), (1,)]
    assert cyclic_words(sp, 3) == [(0, 0, 0), (0, 1), (1, 0)]
    assert all(len(w) <= 4 for w in cyclic_words(sp, 4))


def test_rotation_signs():
    sp_ungraded = dual_numbers().suspended  # degrees (1, 1)
    assert rotate_word((0, 1), sp_ungraded) == (-1, (1, 0))      # (-1)^1
    assert rotate_word((0, 1, 1), sp_ungraded) == (1, (1, 0, 1))  # (-1)^2
    sp = two_term_dga().suspended  # degrees (1, 2)
    assert rotate_word((0, 1), sp) == (1, (1, 0))  # even factor moves past odd
    assert rotate_word((1, 0), sp) == (1, (0, 1))  # odd factor past even
    sp_odd = ground_field().suspended
    assert rotate_word((0, 0), sp_odd) == (-1, (0, 0))


def test_rotation_has_full_cyclic_order():
    rng = random.Random(5)
    sp = two_term_dga().suspended
    for _ in range(50):
        n = rng.randint(1, 6)
        w = tuple(rng.randrange(2) for _ in range(n))
        sign, cur = 1, w
        for _ in range(n):
            s, cur = rotate_word(cur, sp)
            sign *= s
        assert cur == w and sign == 1


@st.composite
def suspended_words(draw):
    """A suspended space of one to four letters of both parities, and a
    word of up to seven letters over it."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    space = GradedSpace(tuple("abcd"[:len(degrees)]), tuple(degrees))
    word = draw(st.lists(st.integers(0, len(degrees) - 1), max_size=7))
    return space, tuple(word)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(suspended_words())
def test_rotation_is_the_left_action_of_the_cycle(drawn):
    # moving the last s factors to the front is the left action of
    # i -> i + s mod n, sign included, and s single rotations compose to it
    space, word = drawn
    n = len(word)
    degs = [space.degrees[i] for i in word]
    sign, cur = 1, word
    for s in range(n + 1):
        perm = tuple((i + s) % n for i in range(n))
        assert _rotate(word, space.degrees, s) == act(perm, word, degs)
        assert (sign, cur) == act(perm, word, degs)
        step, cur = rotate_word(cur, space)
        sign *= step


@pytest.mark.parametrize("make", FIXTURES + [nonassociative])
def test_boundary_squares_to_zero_iff_stasheff(make):
    alg = make()
    b = cyclic_boundary(alg)
    ok = check_stasheff(alg).ok
    failed = False
    for q in range(0, 5):
        for w in cyclic_words(alg.suspended, q + 1):
            out = {}
            for w2, c in b(w).items():
                for w3, c3 in b(w2).items():
                    add_into(out, w3, c * c3)
            if out:
                failed = True
    assert failed != ok


def quotient_violation(cx, q, elements):
    """A span generator of degree q whose boundary leaves the span of degree
    q - 1, or None when the differential descends to the quotient."""
    for el in elements:
        image = {}
        for k, c in el.items():
            for k2, c2 in cx.diff(q, k).items():
                add_into(image, k2, Fraction(c) * c2)
        if cx.residual(q - 1, image):
            return el
    return None


@pytest.mark.parametrize("make", FIXTURES)
def test_boundary_descends_to_rotation_quotient(make):
    alg = make()
    cx = cyclic_complex(alg, 4)
    for q in range(1, 5):
        words = cx.blocks.get(q, [])
        if not words:
            continue
        bad = quotient_violation(cx, q, rotation_span(alg.suspended, words))
        assert bad is None, (q, bad)


def test_cyclic_homology_of_ground_field():
    table = cyclic_homology(ground_field(), 6)
    assert table.dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
    assert all(table.exact.values())


@pytest.mark.parametrize("make", [dual_numbers, upper_triangular])
def test_cyclic_homology_matches_classical_oracle(make):
    alg = make()
    mult = {w: v for w, v in alg.ops[2].items()}
    expected = connes_cyclic_dims(mult, alg.space.dim, 3)
    table = cyclic_homology(alg, 3)
    assert table.dims == expected
    assert all(table.exact.values())


def test_cyclic_homology_representatives():
    table = cyclic_complex(ground_field(), 2).homology(range(3),
                                                       representatives=True)
    assert [len(table.representatives[q]) for q in range(3)] == [1, 0, 1]
    rep0 = table.representatives[0][0]
    assert rep0 == {(0,): Fraction(1)}


def test_weight_cap_marks_inexact_degrees():
    table = cyclic_homology(ground_field(), 4, max_weight=3)
    assert table.exact == {0: True, 1: True, 2: False, 3: False, 4: False}
    assert table.dims[0] == 1 and table.dims[1] == 0


def test_acyclic_dga_has_vanishing_cyclic_homology():
    # d x = 1 makes the two-term dga contractible; by the weight filtration
    # (associated graded carries the differential part only, and coinvariants
    # are exact over Q) every cyclic group must vanish.  This exercises the
    # cancellation between differential and product terms in every block.
    table = cyclic_homology(two_term_dga(), 3)
    assert all(table.exact.values())
    assert table.dims == {0: 0, 1: 0, 2: 0, 3: 0}


def test_ternary_cyclic_complex_is_consistent():
    table = cyclic_homology(ternary_only(), 4)
    assert all(table.exact.values())
    assert all(v >= 0 for v in table.dims.values())
