"""The stable model of gl_n(A) on permutation words, against the E_12
presentation of `model_oracles.e12_model` as oracle."""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg import linfty
from homotopyalg.ainfty import from_associative, from_dga
from homotopyalg.constructions import _necklaces, gl_index, gl_permutation_model
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import canonical_sym
from homotopyalg.linfty import InconsistencyError, ce_words
from homotopyalg.lqt import hopf_product_on_homology

from model_oracles import e12_model, primitive_dims
from word_oracles import necklaces_by_walk

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
UNITAL = ["K", "dual_numbers", "ut2", "dga2", "m3unital"]
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.alg"))


@lru_cache(maxsize=None)
def fixture_algebra(name):
    return document_to_algebra(
        parse_document((FIXTURES / f"{name}.alg").read_text()))


@lru_cache(maxsize=None)
def permutation_model(name, max_degree):
    return gl_permutation_model(fixture_algebra(name), max_degree)


@lru_cache(maxsize=None)
def oracle_model(name, n, max_degree):
    return e12_model(fixture_algebra(name), n, max_degree)


def touched(model, word):
    return {p for x in word for p in model._letters[x][1:]}


@pytest.mark.parametrize("max_degree", [1, 2, 3])
@pytest.mark.parametrize("name", UNITAL)
def test_permutation_model_matches_the_e12_model(name, max_degree):
    model = permutation_model(name, max_degree)
    oracle = oracle_model(name, max_degree + 1, max_degree)
    assert model.n == oracle.n == max_degree + 1
    degrees = range(max_degree + 1)
    # the first and second fundamental theorems: the orbit counts are the
    # quotient dimensions of C_0 / S
    assert [len(model.blocks.get(q, ())) for q in degrees] == \
        [oracle.complex().dim(q) for q in degrees]
    # the top block is quotiented by neither; its boundary rank agrees
    assert model.complex()._rank(max_degree + 1) == \
        oracle.complex()._rank(max_degree + 1)
    assert model.homology() == oracle.homology()
    assert primitive_dims(model.coproduct()) == \
        primitive_dims(oracle.coproduct())
    hopf, hopf_oracle = hopf_product_on_homology(model), \
        hopf_product_on_homology(oracle)
    assert hopf.ok and hopf_oracle.ok
    assert hopf.products == hopf_oracle.products
    assert (hopf.checked_pairs, hopf.checked_triples, hopf.class_dims) == \
        (hopf_oracle.checked_pairs, hopf_oracle.checked_triples,
         hopf_oracle.class_dims)


@pytest.mark.parametrize("name,max_degree", [
    ("K", 4), ("dual_numbers", 3), ("dga2", 3), ("ut2", 2), ("m3unital", 3)])
def test_blocks_are_the_cycle_forms_of_every_permutation_word(name, max_degree):
    # every permutation word of degree q <= max_degree + 1, sent through
    # `canonical`, lands on the enumerated block, and each representative is
    # its own cycle form
    model = permutation_model(name, max_degree)
    susp = model.algebra.suspended
    for q in range(max_degree + 2):
        forms = set()
        for word in ce_words(susp.degrees, q):
            rows = [model._letters[x][1] for x in word]
            cols = [model._letters[x][2] for x in word]
            if len(set(rows)) == len(rows) and set(rows) == set(cols):
                sign, rep = model.canonical(word)
                if sign:
                    forms.add(rep)
        assert sorted(forms) == model.blocks.get(q, []), q
        for rep in forms:
            assert model.canonical(rep) == (1, rep)
            assert touched(model, rep) == set(range(len(touched(model, rep))))


BASES = {
    "K": lambda: fixture_algebra("K"),
    "dual_numbers": lambda: fixture_algebra("dual_numbers"),
    "ut2": lambda: fixture_algebra("ut2"),
    # 1, x with |x| = 1: suspended letters of both parities
    "D": lambda: from_dga(["1", "x"], [0, 1], {1: {0: 1}},
                          {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                          unit=0, name="D"),
}


@lru_cache(maxsize=None)
def models_at(base_name, n):
    """The permutation model and the E_12 model of gl_n over one base."""
    base = BASES[base_name]()
    return gl_permutation_model(base, n - 1), e12_model(base, n, 0)


@st.composite
def permutation_words(draw):
    """A base, a size n <= 5, and a permutation word: a permutation sigma of
    t <= n positions placed on t of the n positions, with a base letter at
    each of them."""
    base_name = draw(st.sampled_from(sorted(BASES)))
    base_dim = BASES[base_name]().space.dim
    n = draw(st.integers(1, 5))
    t = draw(st.integers(1, n))
    sigma = draw(st.permutations(range(t)))
    place = draw(st.permutations(range(n)))[:t]
    base_letters = draw(st.lists(st.integers(0, base_dim - 1),
                                 min_size=t, max_size=t))
    letters = tuple(gl_index(n, base_dim, base_letters[p], place[p],
                             place[sigma[p]]) for p in range(t))
    return base_name, n, letters


@settings(derandomize=True, deadline=None, max_examples=200)
@given(permutation_words())
def test_cycle_form_is_the_signed_orbit_walk(drawn):
    base_name, n, letters = drawn
    model, oracle = models_at(base_name, n)
    koszul, word = canonical_sym(letters, model.algebra.suspended)
    assert koszul      # a permutation word never repeats a letter
    sign, rep = model.canonical(word)
    oracle_sign, oracle_rep = oracle.canonical(word)
    # the oracle walks the orbit from its own representative: oracle_rep =
    # signs[v] . v in the quotient for every member v
    signs, vanishes = oracle._orbit(oracle_rep, 0)
    assert rep in signs
    assert (sign == 0) == (oracle_sign == 0) == vanishes
    assert touched(model, rep) == set(range(len(touched(model, rep))))
    if sign:
        assert sign == oracle_sign * signs[rep]
        assert model.canonical(rep) == (1, rep)


def test_canonical_refuses_what_is_not_a_permutation_word():
    model = permutation_model("dual_numbers", 3)
    nn = model.n ** 2
    # 1 (x) E_12 alone has weight e_1 - e_2
    assert model.canonical((1,)) == (0, None)
    # 1 (x) E_11 and e (x) E_11: weight zero, position 0 twice a row
    with pytest.raises(InconsistencyError, match="not a permutation word"):
        model.canonical((0, nn))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_necklaces_match_the_walk_on_fixture_degrees(name):
    degrees = fixture_algebra(name).suspended.degrees
    assert _necklaces(degrees, 8) == necklaces_by_walk(degrees, 8)


@pytest.mark.parametrize("degrees,top", [
    ((1, 1, 1), 9), ((1, 1, 1, 1), 8), ((1, 2, 3), 9), ((2, 1), 8)])
def test_necklaces_match_the_walk(degrees, top):
    assert _necklaces(degrees, top) == necklaces_by_walk(degrees, top)


def test_necklaces_drop_what_their_rotation_negates():
    # letter 0 is odd and letter 1 even; a word of period p repeated r
    # times with o odd letters per period turns onto itself with sign
    # (-1)^((r - 1) o)
    kept = {reading for reading, _ in _necklaces((1, 2), 8)}
    assert (0,) in kept and (1, 1) in kept and (0, 0, 0) in kept
    assert (0, 1, 0, 1) not in kept and (0, 0) not in kept
    assert (0, 0, 1, 0, 0, 1) in kept and (0, 0, 0, 0) not in kept


def test_stable_build_has_no_quotient():
    base = from_associative(["1", "e"], {(0, 0): {0: 1}, (0, 1): {1: 1},
                                         (1, 0): {1: 1}}, unit=0, name="K[e]")
    model = gl_permutation_model(base, 3)
    assert model.spans == {}
    cx = model.complex()
    assert cx.reducers == {}
    assert [model.homology().dims[q] for q in range(4)] == [1, 2, 1, 2]
    assert hopf_product_on_homology(model).ok


@pytest.mark.parametrize("name", ["dual_numbers", "dga2"])
def test_relations_are_the_adjacent_transpositions_of_each_representative(
        name):
    model = permutation_model(name, 3)
    dim, n = model.base.space.dim, model.n
    expected = set()
    for q in range(model.max_degree + 1):
        for rep in model.blocks.get(q, ()):
            for k in range(len(touched(model, rep)) - 1):
                move = {k: k + 1, k + 1: k}
                _, word = canonical_sym(
                    tuple(gl_index(n, dim, a, move.get(i, i), move.get(j, j))
                          for a, i, j in (model._letters[x] for x in rep)),
                    model.algebra.suspended)
                if word != rep:
                    expected.add((q, word, rep))
    relations = list(model.relations())
    found = set()
    for q, relation in relations:
        # the relabelled word and its representative, equal in the model
        assert len(relation) == 2 and model.reduce(relation) == {}
        (word,) = [w for w in relation if w not in model.blocks[q]]
        (rep,) = [w for w in relation if w in model.blocks[q]]
        found.add((q, word, rep))
    # two transpositions may give one word
    assert found == expected and expected


def test_a_coproduct_fault_fails_the_descent_check(monkeypatch):
    # the planted fault of the lqt command test, on the model directly
    real = linfty.coproduct_sym

    def wrong(word, space):
        out = real(word, space)
        if len(word) > 1:
            out[(word[:1], word[1:])] = out.get((word[:1], word[1:]), 0) + 1
        return out

    monkeypatch.setattr(linfty, "coproduct_sym", wrong)
    base = fixture_algebra("dual_numbers")
    with pytest.raises(InconsistencyError, match="does not descend"):
        gl_permutation_model(base, 3).coproduct()
