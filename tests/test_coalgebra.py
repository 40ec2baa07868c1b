import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg import coalgebra
from homotopyalg.ainfty import check_stasheff, from_associative
from homotopyalg.coalgebra import (
    Coderivation,
    bracket,
    certify,
)
from homotopyalg.constructions import gl, matrix_algebra
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import GradedSpace, add_into, canonical_sym
from homotopyalg.linfty import check_linfty, make_inner
from model_oracles import coproduct_sym
from word_oracles import include_i, project_p, read_off


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# Element-level helpers that only these tests use.


def element_eq(a, b):
    return {w: c for w, c in a.items() if c} == {w: c for w, c in b.items() if c}


def apply_element(D, element):
    """A coderivation applied to an element {word: coeff}, word by word."""
    out = {}
    for word, coeff in element.items():
        for w, c in D.eval_word(word).items():
            add_into(out, w, c * coeff)
    return out


def coproduct_tensor(word):
    """Deconcatenation coproduct: {(left, right): 1} over all splits."""
    out = {}
    for i in range(len(word) + 1):
        add_into(out, (word[:i], word[i:]), Fraction(1))
    return out


def commutator_by_words(d1, d2, max_arity):
    """Components of [d1, d2] read off word by word: the weight-1 part of
    d1 . d2 - (-1)^(|d1||d2|) d2 . d1 on every basis word through max_arity.
    The reference that `bracket` must reproduce exactly."""
    space = d1.space
    sign = -1 if (d1.degree % 2) and (d2.degree % 2) else 1
    symmetric = d1.symmetric

    def commutator(word):
        out = apply_element(d1, d2.eval_word(word))
        for w, c in apply_element(d2, d1.eval_word(word)).items():
            add_into(out, w, -sign * c)
        return out

    result = Coderivation(space, d1.degree + d2.degree, symmetric=symmetric)
    for n in range(0, max_arity + 1):
        comp = read_off(commutator, space, n, symmetric=symmetric)
        if comp:
            result.comps[n] = comp
    return result


SP2 = GradedSpace(("x", "y"), (0, 1)).suspend()      # suspended degrees (1, 2)
SP3 = GradedSpace(("a", "b", "c"), (0, 0, 1)).suspend()  # (1, 1, 2)


def all_words(space, max_weight):
    for n in range(max_weight + 1):
        yield from itertools.product(range(space.dim), repeat=n)


def canonical_words(space, max_weight):
    for n in range(max_weight + 1):
        for w in itertools.combinations_with_replacement(range(space.dim), n):
            if canonical_sym(w, space)[0] != 0:
                yield w


def random_coderivation(space, rng, symmetric, degree, max_arity=3,
                        with_zero=False):
    """Random homogeneous coderivation: outputs restricted to the right
    degree."""
    c = Coderivation(space, degree, symmetric=symmetric)
    words = canonical_words if symmetric else all_words
    for word in words(space, max_arity):
        if not word and not with_zero:
            continue
        target = sum(space.degrees[i] for i in word) + degree
        val = {i: Fraction(rng.randint(-2, 2)) for i in range(space.dim)
               if space.degrees[i] == target and rng.random() < 0.7}
        val = {i: v for i, v in val.items() if v}
        if val:
            c.set_value(word, val)
    return c


def word_degree(space, word):
    return sum(space.degrees[i] for i in word)


def apply_on_pairs(D, pairs, side):
    """(D (x) 1) or (1 (x) D) on a {(left, right): coeff} element."""
    out = {}
    odd = D.degree % 2
    space = D.space
    for (lw, rw), coeff in pairs.items():
        if side == "left":
            for w, c in D.eval_word(lw).items():
                add_into(out, (w, rw), c * coeff)
        else:
            sgn = -1 if odd and word_degree(space, lw) % 2 else 1
            for w, c in D.eval_word(rw).items():
                add_into(out, (lw, w), sgn * c * coeff)
    return out


def coproduct_of_element(element, space, flavor):
    out = {}
    for word, coeff in element.items():
        cop = coproduct_tensor(word) if flavor == "tensor" else coproduct_sym(word, space)
        for pair, c in cop.items():
            add_into(out, pair, c * coeff)
    return out


@pytest.mark.parametrize("flavor,space", [
    ("tensor", SP2), ("tensor", SP3), ("sym", SP2), ("sym", SP3),
])
def test_co_leibniz(flavor, space):
    rng = random.Random(101 if flavor == "tensor" else 102)
    for degree in (-1, 0, 1):
        D = random_coderivation(space, rng, flavor == "sym", degree,
                                with_zero=True)
        words = all_words if flavor == "tensor" else canonical_words
        for word in words(space, 4 if space is SP2 else 3):
            lhs = coproduct_of_element(D.eval_word(word), space, flavor)
            base = coproduct_of_element({word: Fraction(1)}, space, flavor)
            rhs = apply_on_pairs(D, base, "left")
            for pair, c in apply_on_pairs(D, base, "right").items():
                add_into(rhs, pair, c)
            assert element_eq(lhs, rhs), (flavor, degree, word)


def test_square_zero_dual_numbers_tensor():
    # basis 1, e with e^2 = 0: associative, so the product coderivation squares to zero
    sp = GradedSpace(("1", "e"), (0, 0)).suspend()
    d = Coderivation(sp, -1)
    d.set_value((0, 0), {0: 1})
    d.set_value((0, 1), {1: 1})
    d.set_value((1, 0), {1: 1})
    sq = bracket(d, d)
    assert sq.comps == {}


def test_square_zero_with_differential_tensor():
    # basis 1, x with |x| = 1, d(x) = 1, x^2 = 0: the mixed m1/m2 terms must cancel
    sp = GradedSpace(("1", "x"), (0, 1)).suspend()
    d = Coderivation(sp, -1)
    d.set_value((1,), {0: 1})
    d.set_value((0, 0), {0: 1})
    d.set_value((0, 1), {1: 1})
    d.set_value((1, 0), {1: -1})
    sq = bracket(d, d)
    assert sq.comps == {}


def test_square_zero_sl2_sym():
    sp = GradedSpace(("h", "e", "f"), (0, 0, 0)).suspend()
    d = Coderivation(sp, -1, symmetric=True)
    d.set_value((0, 1), {1: 2})
    d.set_value((0, 2), {2: -2})
    d.set_value((1, 2), {0: 1})
    sq = bracket(d, d)
    assert sq.comps == {}


def test_bracket_odd_even_is_genuine_commutator():
    rng = random.Random(7)
    d1 = random_coderivation(SP3, rng, False, -1)
    d2 = random_coderivation(SP3, rng, False, 0)
    br = bracket(d1, d2)
    for word in all_words(SP3, 3):
        direct = apply_element(d1, d2.eval_word(word))
        for w, c in apply_element(d2, d1.eval_word(word)).items():
            add_into(direct, w, -c)  # (-1)^(odd*even) = +1
        assert element_eq(br.eval_word(word), direct), word


@pytest.mark.parametrize("flavor", ["tensor", "sym"])
def test_bracket_extension_matches_commutator_odd_odd(flavor):
    rng = random.Random(19)
    d1 = random_coderivation(SP3, rng, flavor == "sym", -1)
    d2 = random_coderivation(SP3, rng, flavor == "sym", 1, with_zero=True)
    br = bracket(d1, d2)
    words = all_words if flavor == "tensor" else canonical_words
    for word in words(SP3, 3):
        direct = apply_element(d1, d2.eval_word(word))
        for w, c in apply_element(d2, d1.eval_word(word)).items():
            add_into(direct, w, c)  # -(-1)^(odd*odd) = +1
        assert element_eq(br.eval_word(word), direct), word


def test_bracket_refuses_to_mix_tensor_and_symmetric():
    rng = random.Random(5)
    tensor = random_coderivation(SP3, rng, False, -1)
    sym = random_coderivation(SP3, rng, True, -1)
    for d1, d2 in ((tensor, sym), (sym, tensor)):
        with pytest.raises(ValueError, match="cannot mix"):
            bracket(d1, d2)


@pytest.mark.parametrize("flavor", ["tensor", "sym"])
def test_extension_readoff_roundtrip(flavor):
    rng = random.Random(31 if flavor == "tensor" else 37)
    D = random_coderivation(SP3, rng, flavor == "sym", -1, with_zero=True)
    for n in range(0, 4):
        comp = read_off(D.eval_word, SP3, n, symmetric=(flavor == "sym"))
        assert comp == D.comps.get(n, {}), n


def test_coassociativity_both_flavors():
    for word in all_words(SP2, 4):
        cop = coproduct_tensor(word)
        lhs, rhs = {}, {}
        for (l, r), c in cop.items():
            for (a, b), c2 in coproduct_tensor(l).items():
                add_into(lhs, (a, b, r), c * c2)
            for (b, a), c2 in coproduct_tensor(r).items():
                add_into(rhs, (l, b, a), c * c2)
        assert element_eq(lhs, rhs), word
    for word in canonical_words(SP3, 4):
        cop = coproduct_sym(word, SP3)
        lhs, rhs = {}, {}
        for (l, r), c in cop.items():
            for (a, b), c2 in coproduct_sym(l, SP3).items():
                add_into(lhs, (a, b, r), c * c2)
            for (b, a), c2 in coproduct_sym(r, SP3).items():
                add_into(rhs, (l, b, a), c * c2)
        assert element_eq(lhs, rhs), word


def test_shuffle_coproduct_cocommutative():
    for word in canonical_words(SP3, 4):
        cop = coproduct_sym(word, SP3)
        flipped = {}
        for (l, r), c in cop.items():
            sgn = -1 if (word_degree(SP3, l) % 2) and (word_degree(SP3, r) % 2) else 1
            add_into(flipped, (r, l), sgn * c)
        assert element_eq(cop, flipped), word


def test_shuffle_coproduct_binomial_on_even_powers():
    # repeated even factor: the split (k, n-k) appears with coefficient C(n, k)
    sp = GradedSpace(("x",), (1,)).suspend()  # suspended degree 2, even
    word = (0, 0, 0, 0)
    cop = coproduct_sym(word, sp)
    assert cop[((0,), (0, 0, 0))] == 4
    assert cop[((0, 0), (0, 0))] == 6
    assert cop[((), (0, 0, 0, 0))] == 1


def test_p_section_of_i():
    rng = random.Random(53)
    for word in canonical_words(SP3, 4):
        el = {word: Fraction(rng.randint(1, 5), rng.randint(1, 3))}
        assert element_eq(project_p(include_i(el, SP3), SP3), el)


def test_shuffle_coproduct_matches_deconcatenation_through_i():
    # (p (x) p) . deconcatenation . i  ==  shuffle coproduct
    for word in canonical_words(SP3, 3):
        lhs = {}
        for tw, c in include_i({word: Fraction(1)}, SP3).items():
            for (l, r), c2 in coproduct_tensor(tw).items():
                sl, cl = canonical_sym(l, SP3)
                sr, cr = canonical_sym(r, SP3)
                if sl == 0 or sr == 0:
                    continue
                norm = Fraction(1)
                for k in range(2, len(l) + 1):
                    norm /= k
                for k in range(2, len(r) + 1):
                    norm /= k
                add_into(lhs, (cl, cr), c * c2 * sl * sr * norm)
        assert element_eq(lhs, coproduct_sym(word, SP3)), word


def sandwich(D, space):
    """p . D . i as an operator on canonical words."""
    def op(word):
        return project_p(apply_element(D, include_i({word: Fraction(1)}, space)), space)
    return op


@pytest.mark.parametrize("degree", [-1, 0])
def test_symmetrized_tensor_extension_is_sym_coderivation(degree):
    # p . D_c . i is itself a shuffle-coproduct coderivation: it agrees with
    # the symmetric extension of its own arity read-off everywhere.
    rng = random.Random(61 + degree)
    c = random_coderivation(SP3, rng, False, degree, with_zero=True)
    op = sandwich(c, SP3)
    ext = Coderivation(SP3, degree, symmetric=True)
    for n in range(0, 4):
        comp = read_off(op, SP3, n, symmetric=True)
        if comp:
            ext.comps[n] = comp
    for word in canonical_words(SP3, 3):
        assert element_eq(op(word), ext.eval_word(word)), word


@pytest.mark.parametrize("degree", [-1, -2])
def test_symmetric_cochain_sandwich_rescales_by_factorials(degree):
    # for already-symmetric components,  p . (tensor extension) . i  equals the
    # symmetric extension after scaling the arity-k component by k!
    rng = random.Random(71 + degree)
    f = random_coderivation(SP3, rng, True, degree)
    tensor_version = Coderivation(SP3, degree)
    for k in f.arities():
        for word in itertools.product(range(SP3.dim), repeat=k) if k else [()]:
            val = f.apply(word)
            if val:
                tensor_version.comps.setdefault(k, {})[word] = dict(val)
    op = sandwich(tensor_version, SP3)
    ext = Coderivation(SP3, degree, symmetric=True)
    fact = 1
    for k in range(0, 4):
        if k:
            fact *= k
        table = f.comps.get(k, {})
        if table:
            ext.comps[k] = {w: {i: fact * v for i, v in val.items()}
                            for w, val in table.items()}
    for word in canonical_words(SP3, 4):
        assert element_eq(op(word), ext.eval_word(word)), word


def test_symmetric_cochain_input_validation():
    c = Coderivation(SP3, -1, symmetric=True)
    with pytest.raises(ValueError):
        c.set_value((1, 0), {2: 1})   # not sorted
    sp_odd = GradedSpace(("u",), (0,)).suspend()
    c2 = Coderivation(sp_odd, -1, symmetric=True)
    with pytest.raises(ValueError):
        c2.set_value((0, 0), {0: 1})  # repeated odd factor
    c3 = Coderivation(SP3, -1, symmetric=True)
    c3.set_value((0, 1), {0: Fraction(3)})
    assert c3.apply((1, 0)) == {0: Fraction(-3)}  # two odd factors swap


def test_cochain_rejects_inhomogeneous_value():
    c = Coderivation(SP3, -1)
    with pytest.raises(ValueError):
        c.set_value((0,), {0: 1})  # degree 1 -> 1 is not a degree -1 map
    c.set_value((0,), {0: 0})      # zero coefficients are fine anywhere
    assert c.comps.get(1, {}) == {}


# ---------------------------------------------------------------------------
# `bracket` against the word-by-word commutator


def fixture_algebra(path):
    return document_to_algebra(parse_document(path.read_text(encoding="utf-8")))


@lru_cache(maxsize=None)
def matrix_bases():
    ground = from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")
    dual = from_associative(["1", "e"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, unit=0, name="K[e]")
    dga2 = fixture_algebra(FIXTURES / "dga2.alg")
    return ground, dual, dga2


def reach(d1, d2):
    """The top arity at which [d1, d2] can have a component."""
    return max(d1.max_arity() + d2.max_arity() - 1, 0)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.alg")),
                         ids=lambda p: p.name)
def test_bracket_matches_words_on_fixture_squares(path):
    alg = fixture_algebra(path)
    d = alg.coderivation
    assert bracket(d, d) == commutator_by_words(d, d, reach(d, d))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_words_on_matrix_algebras(n):
    for base in matrix_bases():
        for alg in (matrix_algebra(base, n), gl(base, n)):
            d = alg.coderivation
            assert bracket(d, d) == commutator_by_words(d, d, reach(d, d)), \
                alg.name


def test_bracket_matches_words_on_inner_derivations():
    for base in matrix_bases():
        alg = gl(base, 2)
        d = alg.coderivation
        for i in range(alg.suspended.dim):
            gen = Coderivation(alg.suspended, alg.suspended.degrees[i],
                               symmetric=True)
            gen.set_value((), {i: 1})
            inner = bracket(d, gen)
            assert inner == commutator_by_words(d, gen, reach(d, gen)), \
                (alg.name, i)
            assert inner == make_inner(alg, i)
            # the derivation certificate of the inner derivation
            assert bracket(d, inner) == \
                commutator_by_words(d, inner, reach(d, inner))


@st.composite
def coderivation_pairs(draw):
    """Two coderivations of one flavor on a small space, and an arity cap.

    Unsuspended degrees 0..2 give suspended letters of both parities, so
    a symmetric word can repeat an even letter; coderivation degrees run
    over -2..1, and arity-0 components are drawn as well.  Values are p/q
    with q in 1..3, so the coderivations `bracket` scales to integers have
    denominators to clear."""
    flavor = draw(st.sampled_from(["tensor", "sym"]))
    degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    space = GradedSpace(tuple("abc"[:len(degrees)]), tuple(degrees)).suspend()
    words = canonical_words if flavor == "sym" else all_words
    values = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    pair = []
    for _ in range(2):
        c = Coderivation(space, draw(st.integers(-2, 1)),
                         symmetric=flavor == "sym")
        with_zero = draw(st.booleans())
        for word in words(space, draw(st.integers(1, 3))):
            if word or with_zero:
                target = word_degree(space, word) + c.degree
                c.set_value(word, {i: draw(values)
                                   for i in range(space.dim)
                                   if space.degrees[i] == target})
        pair.append(c)
    d1, d2 = pair
    return d1, d2, draw(st.integers(0, reach(d1, d2) + 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(coderivation_pairs())
def test_bracket_matches_words_on_drawn_pairs(pair):
    d1, d2, cap = pair
    comm = bracket(d1, d2, cap)
    assert comm == commutator_by_words(d1, d2, cap)
    # an int equals its Fraction, so the value type is checked on its own
    assert all(type(c) is Fraction for table in comm.comps.values()
               for val in table.values() for c in val.values())
    report = certify(d1, d2, max_arity=cap)
    assert report.ok == (not comm.comps)
    full = reach(d1, d2)
    assert report.complete == (cap >= full)
    if not report.ok:
        n = min(comm.comps)
        word = min(comm.comps[n])
        assert report.witness == (n, word, comm.comps[n][word])
        assert all(type(c) is Fraction for c in report.witness[2].values())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(coderivation_pairs())
def test_bracket_of_a_coderivation_with_itself_matches_words(pair):
    # [d, d] is composed once, scaled by 1 - (-1)^(|d||d|)
    d, _, cap = pair
    assert bracket(d, d, cap) == commutator_by_words(d, d, cap)


def test_check_linfty_composes_once(monkeypatch):
    L = gl(matrix_bases()[0], 3)
    calls = []
    real = coalgebra._compose

    def counting(*args):
        calls.append(args[0] is args[1])
        return real(*args)

    monkeypatch.setattr(coalgebra, "_compose", counting)
    report = check_linfty(L)
    assert report.ok and report.complete
    assert calls == [True]


def flip_first_sign(d, arity):
    """A copy of the coderivation with its first arity-k entry negated."""
    comps = {k: {w: dict(v) for w, v in table.items()}
             for k, table in d.comps.items()}
    word = min(comps[arity])
    comps[arity][word] = {i: -v for i, v in comps[arity][word].items()}
    return Coderivation(d.space, d.degree, comps, d.symmetric)


@pytest.mark.parametrize("make", [matrix_algebra, gl])
def test_mutant_fails_with_the_oracle_witness(make):
    alg = make(matrix_bases()[0], 3)
    d = flip_first_sign(alg.coderivation, 2)
    report = certify(d, d)
    oracle = commutator_by_words(d, d, reach(d, d))
    n = min(oracle.comps)
    word = min(oracle.comps[n])
    assert not report.ok and report.complete
    assert report.witness == (n, word, oracle.comps[n][word])


def test_require_refuses_only_a_failed_report_with_its_witness():
    alg = gl(matrix_bases()[0], 3)
    assert certify(alg.coderivation, alg.coderivation).require("no") is None
    d = flip_first_sign(alg.coderivation, 2)
    report = certify(d, d)
    with pytest.raises(ValueError) as info:
        report.require("the mutant failed certification")
    assert str(info.value) == (
        f"the mutant failed certification: witness {report.witness}")


def test_certificates_evaluate_no_word(monkeypatch):
    base = matrix_bases()[0]
    m4, gl4 = matrix_algebra(base, 4), gl(base, 4)
    words = []
    real = Coderivation.eval_word

    def counting(self, word):
        words.append(word)
        return real(self, word)

    monkeypatch.setattr(Coderivation, "eval_word", counting)
    for report in (check_stasheff(m4), check_linfty(gl4)):
        assert report.ok and report.complete
    assert words == []
