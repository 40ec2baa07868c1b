"""Every size of gl_n(A) read off the stable permutation model through the
corner inclusion, against the E_12 presentation of
`model_oracles.e12_model` and the unreduced complex as oracles."""

import itertools
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from homotopyalg import constructions
from homotopyalg.ainfty import cyclic_homology, from_associative
from homotopyalg.constructions import (
    _corner_classes,
    _first_appearance_form,
    _set_partitions,
    gl,
    gl_coinvariant_model,
    gl_index,
    gl_permutation_model,
    matrix_algebra,
)
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import add_into, canonical_sym
from homotopyalg.linfty import lie_homology
from homotopyalg.rational_linalg import RowReducer

from model_oracles import e12_model

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@lru_cache(maxsize=None)
def fixture_algebra(name):
    return document_to_algebra(
        parse_document((FIXTURES / f"{name}.alg").read_text()))


@lru_cache(maxsize=None)
def stable_model(name, max_degree):
    return gl_permutation_model(fixture_algebra(name), max_degree)


@lru_cache(maxsize=None)
def oracle_model(name, n, max_degree):
    return e12_model(fixture_algebra(name), n, max_degree)


def dims(table, max_degree):
    return [table.dims.get(q, 0) for q in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# the tables


@pytest.mark.parametrize("name,max_degree", [
    ("K", 4), ("dual_numbers", 3), ("ut2", 3), ("dga2", 3), ("m3unital", 3)])
def test_every_size_matches_the_e12_model(name, max_degree):
    stable = stable_model(name, max_degree)
    for n in range(1, max_degree + 3):
        model = gl_coinvariant_model(stable, n)
        assert (model.n, model.max_degree, model.spans) == (n, max_degree, {})
        assert dims(model.homology(), max_degree) == \
            dims(oracle_model(name, n, max_degree).homology(), max_degree), n


# the closed forms: H(gl_n(K)) is exterior on classes of degrees 1, 3, ...,
# 2n - 1 (Chevalley-Eilenberg; Koszul), and gl_n(T_2), a parabolic
# subalgebra of gl_2n with Levi factor gl_n x gl_n, has the homology of that
# factor (Hochschild-Serre; Kostant): the tensor square of the same table.
# Each base is taken through the largest m that costs well under a second.
CLOSED_FORM_REACH = {"K": 7, "ut2": 4}


def odd_exterior(n, top):
    """Poincare coefficients of Lambda(x_1, x_3, ..., x_{2n-1}) through
    degree top."""
    series = [1] + [0] * top
    for d in range(1, 2 * n, 2):
        for q in range(top, d - 1, -1):
            series[q] += series[q - d]
    return series


def closed_form(name, n, top):
    series = odd_exterior(n, top)
    if name == "K":
        return series
    return [sum(series[a] * series[q - a] for a in range(q + 1))
            for q in range(top + 1)]


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_REACH))
def test_every_size_has_its_classical_homology(name):
    for m in range(1, CLOSED_FORM_REACH[name] + 1):
        stable = stable_model(name, m)
        for n in range(1, m + 2):
            table = gl_coinvariant_model(stable, n).homology()
            assert dims(table, m) == closed_form(name, n, m), (m, n)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.data())
def test_drawn_sizes_have_their_classical_homology(data):
    name = data.draw(st.sampled_from(sorted(CLOSED_FORM_REACH)))
    m = data.draw(st.integers(1, CLOSED_FORM_REACH[name]))
    n = data.draw(st.integers(1, m + 1))
    table = gl_coinvariant_model(stable_model(name, m), n).homology()
    assert dims(table, m) == closed_form(name, n, m)


def test_an_unstable_size_keeps_its_own_table():
    # m3unital at n = 2, degree 4: 5 classes against a stable 4
    stable = stable_model("m3unital", 4)
    table = gl_coinvariant_model(stable, 2).homology()
    assert table.dims[4] == 5 and stable.homology().dims[4] == 4


@pytest.mark.parametrize("name", ["K", "dual_numbers", "dga2"])
def test_from_the_stable_size_on_the_image_is_the_whole_complex(name):
    stable = stable_model(name, 3)
    for n in (stable.n, stable.n + 2):
        model = gl_coinvariant_model(stable, n)
        assert {q: len(chains) for q, chains in model.blocks.items()} == \
            {q: len(words) for q, words in stable.blocks.items()}
        assert model.homology().dims == stable.homology().dims


def test_from_the_stable_size_on_no_class_is_split(monkeypatch):
    # every block is the stable one, each representative its own class,
    # and no matching is summed to find that out
    stable = stable_model("m3unital", 3)
    echelon = {n: {q: basis_of_classes(stable, n, q) for q in stable.blocks}
               for n in (stable.n, stable.n + 1)}

    def refuse(*args):
        raise AssertionError("a class was split")

    monkeypatch.setattr(constructions, "_split", refuse)
    for n, blocks in echelon.items():
        model = gl_coinvariant_model(stable, n)
        assert model.blocks == blocks
        assert model.homology().dims == stable.homology().dims


def basis_of_classes(stable, n, q):
    """The basis of U_q that the echelon of the corner classes keeps."""
    red, basis = RowReducer(), []
    for _, chain in _corner_classes(stable, n, q):
        if red.insert(chain) is not None:
            basis.append(chain)
    return basis


def test_the_image_below_the_stable_size_is_a_proper_subcomplex():
    stable = stable_model("dual_numbers", 3)
    model = gl_coinvariant_model(stable, 1)
    # gl_1(K[e]) is abelian on two odd letters: words of at most two letters
    assert [len(model.blocks.get(q, ())) for q in range(5)] == [1, 2, 1, 0, 0]
    assert [len(stable.blocks[q]) for q in range(5)] == [1, 2, 2, 6, 14]
    cx = stable.complex()
    for q, chains in model.blocks.items():
        for chain in chains:
            assert set(chain) <= set(cx.index[q])


# ---------------------------------------------------------------------------
# the splitting identity


def splitting_residuals(stable, oracle):
    """(failures, collapsed generators): for every generator the builder
    makes below the stable size, the class of its word in the E_12 oracle
    minus the class of the signed sum of its matchings must vanish; a
    collapsed generator is one of more than n letters."""
    cx = oracle.complex()
    failures, collapsed = 0, 0
    for n in range(1, stable.n):
        for q in range(stable.max_degree + 2):
            for word, chain in _corner_classes(stable, n, q):
                collapsed += len(word) > n
                difference = oracle.reduce({word: 1})
                for key, c in oracle.reduce(chain).items():
                    add_into(difference, key, -c)
                if difference and cx.residual(q, difference):
                    failures += 1
    return failures, collapsed


@pytest.mark.parametrize("name", ["dual_numbers", "ut2", "m3unital", "dga2"])
def test_every_generator_satisfies_the_splitting_identity(name):
    # the oracle at N = 4 quotients through degree 4, every degree the
    # generators of the stable model through degree 3 reach
    stable = stable_model(name, 3)
    failures, collapsed = splitting_residuals(
        stable, oracle_model(name, stable.n, stable.n))
    assert failures == 0
    assert collapsed > 0


def antisymmetrized_split(stable, entries, part):
    """A mutant of `constructions._split`: each matching weighted by the
    sign of its permutation."""
    N = stable.n
    blocks = [[p for p, c in enumerate(part) if c == b] for b in set(part)]
    chain = {}
    for images in itertools.product(*map(itertools.permutations, blocks)):
        tau, parity = {}, 0
        for block, image in zip(blocks, images):
            tau.update(zip(block, image))
            parity += sum(x > y for x, y in itertools.combinations(image, 2))
        sign, rep = stable.canonical(
            tuple((a * N + i) * N + tau[j] for a, i, j in entries))
        add_into(chain, rep, (-1) ** parity * sign)
    return chain


def test_the_identity_check_catches_an_antisymmetrized_sum(monkeypatch):
    # on the fixtures the mutant's image has the correct dimensions and
    # homology in every size, so the tables cannot tell it apart; the
    # identity check can
    monkeypatch.setattr(constructions, "_split", antisymmetrized_split)
    stable = gl_permutation_model(fixture_algebra("dual_numbers"), 3)
    failures, collapsed = splitting_residuals(
        stable, oracle_model("dual_numbers", stable.n, stable.n))
    assert 0 < failures <= collapsed


# ---------------------------------------------------------------------------
# the pieces of the generator


def stirling2(k, n):
    if k == n:
        return 1
    if n == 0 or n > k:
        return 0
    return n * stirling2(k - 1, n) + stirling2(k - 1, n - 1)


@pytest.mark.parametrize("k,n", [(k, n) for k in range(1, 7)
                                 for n in range(1, k + 1)])
def test_set_partitions_are_the_restricted_growth_strings(k, n):
    parts = list(_set_partitions(k, n))
    assert len(parts) == len(set(parts)) == stirling2(k, n)
    for part in parts:
        assert len(part) == k and set(part) == set(range(n))
        # blocks are numbered in order of first appearance
        firsts = [part.index(b) for b in range(n)]
        assert firsts == sorted(firsts)


@st.composite
def zero_weight_words(draw):
    """A size N <= 4 over a two-letter base of odd suspended degree and a
    zero-weight word made of closed walks through the matrix positions."""
    n = draw(st.integers(1, 4))
    step = st.tuples(st.integers(0, 1), st.integers(0, n - 1))
    walks = draw(st.lists(st.lists(step, min_size=1, max_size=3),
                          min_size=1, max_size=3))
    word = []
    for walk in walks:
        for k, (a, i) in enumerate(walk):
            word.append(gl_index(n, 2, a, i, walk[(k + 1) % len(walk)][1]))
    return n, tuple(word)


@lru_cache(maxsize=None)
def dual_stable(n):
    return gl_permutation_model(fixture_algebra("dual_numbers"), n - 1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(zero_weight_words())
def test_first_appearance_form_is_a_relabelling(drawn):
    # the deduplication key never merges two S_N-orbits: it is one of the
    # word's own relabellings, and it is its own key
    n, letters = drawn
    stable = dual_stable(n)
    space = stable.algebra.suspended
    koszul, word = canonical_sym(letters, space)
    assume(koszul)
    key = _first_appearance_form(word, stable._letters, n)
    orbit = {canonical_sym(tuple(gl_index(n, 2, a, p[i], p[j])
                                 for a, i, j in (stable._letters[x]
                                                 for x in word)), space)[1]
             for p in itertools.permutations(range(n))}
    assert key in orbit
    assert _first_appearance_form(key, stable._letters, n) == key


# ---------------------------------------------------------------------------
# bases beyond the fixtures


def truncated_polynomials(k):
    """K[x]/(x^k) on the basis 1, x, ..., x^{k-1}."""
    mult = {(a, b): ({a + b: 1} if a + b < k else {})
            for a in range(k) for b in range(k)}
    return [f"x{a}" for a in range(k)], mult, 0


def upper_triangular():
    """T_2 on the basis 1, n = E_12, p = E_22."""
    mult = {(0, b): {b: 1} for b in range(3)}
    mult.update({(b, 0): {b: 1} for b in (1, 2)})
    mult.update({(1, 1): {}, (1, 2): {1: 1}, (2, 1): {}, (2, 2): {2: 1}})
    return ["1", "n", "p"], mult, 0


BUILDERS = {"x2": lambda: truncated_polynomials(2),
            "x3": lambda: truncated_polynomials(3),
            "T2": upper_triangular}


@lru_cache(maxsize=None)
def drawn_base(kind, order):
    """The base `kind` with its basis listed in `order`, so that the unit
    is not always the first vector."""
    labels, mult, unit = BUILDERS[kind]()
    move = {old: new for new, old in enumerate(order)}
    return from_associative(
        [labels[old] for old in order],
        {(move[a], move[b]): {move[c]: v for c, v in out.items()}
         for (a, b), out in mult.items()},
        unit=move[unit], name=kind)


@st.composite
def small_bases(draw):
    kind = draw(st.sampled_from(sorted(BUILDERS)))
    dim = {"x2": 2, "x3": 3, "T2": 3}[kind]
    return kind, tuple(draw(st.permutations(range(dim))))


@lru_cache(maxsize=None)
def tables_of(kind, order):
    """For every n <= m <= 3: the corner table, the E_12 table, and at
    n <= 2 the unreduced table, each through degree m."""
    base = drawn_base(kind, order)
    out = {}
    for m in range(1, 4):
        stable = gl_permutation_model(base, m)
        for n in range(1, m + 1):
            tables = [dims(gl_coinvariant_model(stable, n).homology(), m),
                      dims(e12_model(base, n, m).homology(), m)]
            if n <= 2:
                tables.append(
                    dims(lie_homology(gl(base, n), m), m))
            out[(n, m)] = tables
    return out


@settings(derandomize=True, deadline=None, max_examples=10)
@given(small_bases())
def test_corner_tables_match_the_oracles_on_drawn_bases(drawn):
    for (n, m), (corner, *oracles) in tables_of(*drawn).items():
        for oracle in oracles:
            assert corner == oracle, (n, m)


# HC_0, HC_1, HC_2 in characteristic 0: K[x]/(x^k) has k classes in each
# even degree, and T_2 the cyclic homology of K x K
MORITA_CLOSED_FORMS = {"x2": [2, 0, 2], "x3": [3, 0, 3], "T2": [2, 0, 2]}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@settings(derandomize=True, deadline=None, max_examples=1)
@given(st.data())
def test_cyclic_homology_is_morita_invariant_on_drawn_bases(kind, data):
    # HC(M_2(A)) = HC(A) through degree 2, on a basis order whose first
    # vector is not the unit; degree 3 costs more than ten times as much
    labels, _, unit = BUILDERS[kind]()
    order = data.draw(st.permutations(range(len(labels)))
                      .filter(lambda p: p[0] != unit))
    base = drawn_base(kind, tuple(order))
    for alg in (base, matrix_algebra(base, 2)):
        table = cyclic_homology(alg, 2)
        assert dims(table, 2) == MORITA_CLOSED_FORMS[kind]
        assert all(table.exact[q] for q in range(3))
