import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from homotopyalg.ainfty import AInftyAlgebra, from_associative, from_dga
from homotopyalg.chain import ChainComplex
from homotopyalg.coalgebra import Coderivation
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import GradedSpace, add_into, canonical_sym
from homotopyalg.linfty import (
    ce_model,
    ce_words,
    lie_homology,
    make_inner,
)
from homotopyalg.constructions import (
    PermutationModel,
    _antisymmetrize,
    gl,
    gl_index,
    lie_ify,
    matrix_algebra,
)
from homotopyalg.lqt import verify_lqt

from matrix_oracles import (
    MatrixElement,
    block_plus,
    check_block_sum_morphism,
    corner_embed,
    corner_embed_word,
    entrywise_matrix_algebra,
    gl_entry,
)
import model_oracles
from model_oracles import (
    _root_weight,
    _segment_words,
    _weight_buckets,
    E12Model,
    e12_model,
    coalgebra_on_homology,
    every_word_model,
    pair_complex_coproduct,
    primitive_dims,
    simple_root_model,
)
from oracles import gl_bracket, lie_homology_dims
from word_oracles import decalage_components, include_i, read_off


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@lru_cache(maxsize=None)
def ground_field():
    return from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")


@lru_cache(maxsize=None)
def dual_numbers():
    return from_associative(
        ["1", "e"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit=0, name="K[e]")


@lru_cache(maxsize=None)
def upper_triangular():
    return from_associative(
        ["1", "n", "p"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
         (1, 0): {1: 1}, (2, 0): {2: 1},
         (1, 2): {1: 1}, (2, 2): {2: 1}},
        unit=0, name="ut2")


@lru_cache(maxsize=None)
def two_term_dga():
    # 1, x with |x| = 1, d x = 1, x * x = 0
    return from_dga(["1", "x"], [0, 1], {1: {0: 1}},
                    {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                    unit=0, name="D")


def ternary_only():
    return AInftyAlgebra(GradedSpace(("a", "b"), (0, 1)),
                         {3: {(0, 0, 0): {1: 1}}})


@lru_cache(maxsize=None)
def gl_cached(base_name, n):
    base = {"K": ground_field, "K[e]": dual_numbers,
            "ut2": upper_triangular, "D": two_term_dga}[base_name]()
    return gl(base, n)


def random_element(rng, n, base_dim, degree0_only=False, degrees=None):
    entries = {}
    for a in range(base_dim):
        if degree0_only and degrees is not None and degrees[a] != 0:
            continue
        for i, j in itertools.product(range(n), repeat=2):
            entries[(a, i, j)] = rng.randint(-3, 3)
    return MatrixElement(n, entries, base_dim)


# ---------------------------------------------------------------------------
# lie_ify


def test_lieify_associative_gives_commutator_only():
    for make in (ground_field, dual_numbers, upper_triangular,
                 lambda: matrix_algebra(ground_field(), 2)):
        alg = make()
        lie = lie_ify(alg)
        assert set(lie.ops) <= {2}
        dim = alg.space.dim
        for i, j in itertools.combinations(range(dim), 2):
            expect = {}
            for out, c in alg.op_value(2, (i, j)).items():
                expect[out] = expect.get(out, Fraction(0)) + c
            for out, c in alg.op_value(2, (j, i)).items():
                expect[out] = expect.get(out, Fraction(0)) - c
            expect = {k: v for k, v in expect.items() if v}
            assert lie.op_value(2, (i, j)) == expect, (make, i, j)


def test_lieify_commutative_is_abelian():
    assert lie_ify(ground_field()).ops == {}
    assert lie_ify(dual_numbers()).ops == {}
    assert lie_ify(upper_triangular()).ops != {}


def test_lieify_dga_keeps_differential():
    lie = lie_ify(two_term_dga())
    # the differential survives as the unary bracket; x * x = 0 and the unit
    # is central, so the binary bracket vanishes
    assert lie.ops == {1: {(1,): {0: Fraction(1)}}}


def test_lieify_matrix_dga_has_nonzero_binary_bracket():
    lie = gl_cached("D", 2)
    assert lie.op_value(1, (6,)) == {2: Fraction(1)}  # d(x (x) E21) = 1 (x) E21
    # [1 (x) E21, x (x) E12] = x (x) E22 - x (x) E11
    assert lie.op_value(2, (2, 5)) == {7: Fraction(1), 4: Fraction(-1)}


def test_lieify_ternary_on_odd_generator_is_abelian():
    # mu_3 is supported on (a, a, a) with a of even suspended degree... the
    # suspension of a degree-0 generator is odd, so the only supporting word
    # dies in the symmetric coalgebra and no bracket survives.
    assert lie_ify(ternary_only()).ops == {}


def test_lieify_rejects_non_jacobi_commutator():
    table = {(0, 1): {2: 1}, (1, 2): {3: 1}, (0, 3): {4: 1}}
    with pytest.raises(ValueError, match="not associative"):
        from_associative(list("abcde"), table)
    alg = AInftyAlgebra(GradedSpace(tuple("abcde"), (0,) * 5), {2: table})
    with pytest.raises(ValueError, match="failed certification"):
        lie_ify(alg)


# the entrywise antisymmetrization against the word-level read-off


def lie_by_words(space, ops, cap=None):
    """Suspended brackets read off word by word: the weight-one part of
    D_m . include_i on every canonical word of each arity of `ops` through
    `cap`.  The reference that `_antisymmetrize` must reproduce exactly."""
    susp = space.suspend()
    dm = Coderivation(susp, -1, decalage_components(space, ops))

    def operator(word):
        out = {}
        for tensor_word, c in include_i({word: Fraction(1)}, susp).items():
            for w, c2 in dm.eval_word(tensor_word).items():
                add_into(out, w, c * c2)
        return out

    comps = {}
    for k in sorted(ops):
        if cap is None or k <= cap:
            comp = read_off(operator, susp, k, symmetric=True)
            if comp:
                comps[k] = comp
    return comps


@st.composite
def graded_operations(draw):
    """Homogeneous operations of arities 1-3 on up to three letters, and a
    cap that may cut below the top arity.

    Unsuspended degrees 0..2 give letters of both parities, so a word can
    repeat an even letter (no bracket) or an odd one (a bracket)."""
    degrees = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    space = GradedSpace(tuple("abc"[:len(degrees)]), tuple(degrees))
    ops = {}
    for k in sorted(draw(st.sets(st.integers(1, 3), min_size=1))):
        table = {}
        for word in itertools.product(range(space.dim), repeat=k):
            target = sum(degrees[i] for i in word) + k - 2
            val = {i: Fraction(draw(st.integers(-2, 2)))
                   for i in range(space.dim) if degrees[i] == target}
            if any(val.values()):
                table[word] = val
        ops[k] = table
    return space, ops, draw(st.one_of(st.none(), st.integers(1, 3)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graded_operations())
def test_antisymmetrize_matches_word_read_off(drawn):
    space, ops, cap = drawn
    brackets = _antisymmetrize(space, ops, cap)
    assert decalage_components(space, brackets) == \
        lie_by_words(space, ops, cap)


def fixture_algebra(name):
    path = FIXTURES / f"{name}.alg"
    return document_to_algebra(parse_document(path.read_text(encoding="utf-8")))


def test_structure_map_is_the_decalage_of_the_operations():
    # each fixture, and the brackets of each associative one, against the
    # entry-by-entry suspension; Lie brackets sit on sorted words
    for path in sorted(FIXTURES.glob("*.alg")):
        alg = fixture_algebra(path.stem)
        algebras = [alg]
        if isinstance(alg, AInftyAlgebra):
            algebras.append(lie_ify(alg))
        for alg in algebras:
            assert alg.coderivation.comps == \
                decalage_components(alg.space, alg.ops), alg.name
            if alg.coderivation.symmetric:
                assert all(list(w) == sorted(w)
                           for table in alg.ops.values() for w in table)


def test_lieify_matches_word_read_off_on_fixtures():
    # the comparison is on the coderivation, the suspension of the
    # brackets, which determines them
    for path in sorted(FIXTURES.glob("*.alg")):
        alg = fixture_algebra(path.stem)
        if not isinstance(alg, AInftyAlgebra):
            continue
        for cap in (None, 2):
            assert lie_ify(alg, cap).coderivation.comps == \
                lie_by_words(alg.space, alg.ops, cap), (path.name, cap)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lieify_matches_word_read_off_on_matrix_algebras(n):
    for name in ("K", "dual_numbers", "dga2", "ut2"):
        alg = matrix_algebra(fixture_algebra(name), n)
        assert lie_ify(alg).coderivation.comps == \
            lie_by_words(alg.space, alg.ops), alg.name


def test_lieify_evaluates_no_word(monkeypatch):
    alg = matrix_algebra(ground_field(), 4)
    words = []
    real = Coderivation.eval_word

    def counting(self, word):
        words.append(word)
        return real(self, word)

    monkeypatch.setattr(Coderivation, "eval_word", counting)
    lie_ify(alg)
    assert words == []


# ---------------------------------------------------------------------------
# matrix algebras and gl


def ainfty_fixtures():
    for path in sorted(FIXTURES.glob("*.alg")):
        alg = fixture_algebra(path.stem)
        if isinstance(alg, AInftyAlgebra):
            yield path.stem, alg


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_algebra_matches_entrywise_reference(n):
    names = []
    for name, base in ainfty_fixtures():
        names.append(name)
        reference = entrywise_matrix_algebra(base, n)
        if name == "nonassoc" and n > 1:
            # the rule is applied, and the result is refused on re-certification
            with pytest.raises(ValueError, match="failed certification"):
                matrix_algebra(base, n)
            continue
        result = matrix_algebra(base, n)
        assert result.space == reference.space, (name, n)
        assert result.ops == reference.ops, (name, n)
        assert result.unit == reference.unit, (name, n)
        assert result.name == (base.name if n == 1 else f"M{n}({base.name})")
    assert len(names) == 7


def test_tensor_with_ground_field_is_identity():
    # M_1(A) = A (x) K is the base itself, declared unit included
    for _, base in ainfty_fixtures():
        assert matrix_algebra(base, 1) is base


def test_tensor_ground_field_with_matrix_units():
    result = matrix_algebra(ground_field(), 2)
    assert result.space.labels == ("1*E11", "1*E12", "1*E21", "1*E22")
    assert result.ops == {2: {(i * 2 + j, j * 2 + l): {i * 2 + l: Fraction(1)}
                              for i, j, l in itertools.product(range(2), repeat=3)}}
    assert result.unit is None  # the unit E11 + E22 is not a basis vector
    assert matrix_algebra(ground_field(), 10).space.labels[:2] \
        == ("1*E1_1", "1*E1_2")


def test_tensor_ternary_with_matrix_units():
    result = matrix_algebra(ternary_only(), 2)
    # m'_3(a(x)E11, a(x)E11, a(x)E11) = b (x) E11 E11 E11 = b (x) E11
    assert result.op_value(3, (0, 0, 0)) == {4: Fraction(1)}
    # m'_3(a(x)E11, a(x)E12, a(x)E22) = b (x) E12
    assert result.op_value(3, (0, 1, 3)) == {5: Fraction(1)}
    # chains through a vanishing product die: E12 E12 = 0
    assert result.op_value(3, (0, 1, 1)) == {}


def test_matrix_algebra_size_one_is_base():
    assert matrix_algebra(dual_numbers(), 1) is dual_numbers()
    assert gl(dual_numbers(), 1).ops == lie_ify(dual_numbers()).ops


@pytest.mark.parametrize("n", [0, -1, 2.0])
def test_matrix_algebra_validates_size(n):
    with pytest.raises(ValueError, match="matrix size must be an integer >= 1"):
        matrix_algebra(ground_field(), n)


def test_gl2_bracket_matches_commutator_oracle():
    lie = gl_cached("K", 2)
    brk = gl_bracket(2)
    seen = set(lie.ops.get(2, {}))
    for a, b in itertools.combinations(range(4), 2):
        assert lie.op_value(2, (a, b)) == brk(a, b)
        seen.discard((a, b))
    assert not seen


def test_gl2_homology_matches_classical_oracle():
    table = lie_homology(gl_cached("K", 2), 4)
    oracle = lie_homology_dims(gl_bracket(2), 4, 4)
    assert [table.dims[q] for q in range(5)] == [oracle[q] for q in range(5)]
    assert [oracle[q] for q in range(5)] == [1, 1, 0, 1, 1]


def test_gl_equals_tensor_then_lieify():
    direct = gl(dual_numbers(), 2)
    composed = lie_ify(entrywise_matrix_algebra(dual_numbers(), 2))
    assert direct.ops == composed.ops
    assert direct.coderivation.comps == composed.coderivation.comps


def test_corner_embedding_is_strict_morphism():
    small, big = gl_cached("K[e]", 1), gl_cached("K[e]", 2)
    for i, j in itertools.product(range(small.space.dim), repeat=2):
        x, y = {i: Fraction(1)}, {j: Fraction(1)}
        lhs = corner_embed(small.bracket2(x, y), 1, 2, 2)
        rhs = big.bracket2(corner_embed(x, 1, 2, 2), corner_embed(y, 1, 2, 2))
        assert lhs == rhs, (i, j)
    g2, g3 = gl_cached("K", 2), gl_cached("K", 3)
    rng = random.Random(7)
    for _ in range(5):
        x = {k: Fraction(rng.randint(-2, 2)) for k in range(4)}
        y = {k: Fraction(rng.randint(-2, 2)) for k in range(4)}
        lhs = corner_embed(g2.bracket2(x, y), 2, 3)
        rhs = g3.bracket2(corner_embed(x, 2, 3), corner_embed(y, 2, 3))
        assert lhs == rhs


def test_corner_embedding_preserves_word_order():
    for word in [(0, 1, 3), (2, 5, 7), (0, 4)]:
        image = corner_embed_word(word, 2, 4, 2)
        assert image == tuple(sorted(image))


# ---------------------------------------------------------------------------
# matrix elements and the block sum


def test_matrix_element_normalization():
    x = MatrixElement(2, {(0, 1): 3, (0, 0, 0): 0})
    assert x.entries == {(0, 0, 1): Fraction(3)}
    assert x.vector == {1: Fraction(3)}
    assert MatrixElement.from_vector(x.vector, 2).entries == x.entries
    with pytest.raises(ValueError):
        MatrixElement(2, {(0, 2, 0): 1})


def test_block_plus_interleaves_one_based_odd_even():
    x = MatrixElement(1, {(0, 0, 0): 5})
    y = MatrixElement(1, {(0, 0, 0): 7})
    z = block_plus(x, y)
    assert z.n == 2
    assert z.entries == {(0, 0, 0): Fraction(5), (0, 1, 1): Fraction(7)}
    # mixed sizes land in 2 max(p, q)
    w = block_plus(x, MatrixElement(2, {(0, 1, 0): 1}))
    assert w.n == 4
    assert w.entries == {(0, 0, 0): Fraction(5), (0, 3, 1): Fraction(1)}
    with pytest.raises(ValueError, match="matching base"):
        block_plus(x, MatrixElement(1, {(0, 0, 0): 1}, base_dim=2))


def test_block_sum_intertwines_brackets():
    g2 = gl_cached("K[e]", 2)
    g4 = gl_cached("K[e]", 4)
    rng = random.Random(23)
    pairs = []
    for _ in range(5):
        pairs.append(((random_element(rng, 2, 2), random_element(rng, 2, 2)),
                      (random_element(rng, 2, 2), random_element(rng, 2, 2))))
    assert check_block_sum_morphism(g2, g2, g4, pairs) is None


def test_block_sum_intertwines_dga_brackets_and_differential():
    g2 = gl_cached("D", 2)
    g4 = gl_cached("D", 4)
    rng = random.Random(29)
    pairs = []
    for _ in range(4):
        pairs.append(((random_element(rng, 2, 2), random_element(rng, 2, 2)),
                      (random_element(rng, 2, 2), random_element(rng, 2, 2))))
    assert 1 in g4.ops  # the differential is present and really checked
    assert check_block_sum_morphism(g2, g2, g4, pairs) is None


# ---------------------------------------------------------------------------
# the zero-weight coinvariant model


def all_matrix_unit_generators(base, n):
    dim = base.space.dim
    return [{gl_index(n, dim, base.unit, i, j): Fraction(1)}
            for i, j in itertools.product(range(n), repeat=2)]


@pytest.mark.parametrize("base_name,n", [
    pytest.param("K", 2, id="K"),
    pytest.param("K[e]", 2, id="K[e]"),
    pytest.param("K", 3, id="K-n3"),
])
def test_coinvariant_model_matches_generic_quotient(base_name, n):
    base = {"K": ground_field, "K[e]": dual_numbers}[base_name]()
    model = e12_model(base, n, 3)
    fast = model.homology()
    h = all_matrix_unit_generators(base, n)
    generic = lie_homology(gl_cached(base_name, n), 3, h=h)
    assert {q: fast.dims[q] for q in range(4)} == \
        {q: generic.dims[q] for q in range(4)}
    # the coproduct on the zero-weight quotient against the generic one
    fast_prim = primitive_dims(coalgebra_on_homology(model))
    generic_prim = primitive_dims(
        coalgebra_on_homology(ce_model(gl_cached(base_name, n), 3, h=h)))
    assert {q: fast_prim[q] for q in range(4)} == \
        {q: generic_prim[q] for q in range(4)}


def test_coinvariant_model_gl3_dims_and_primitives():
    model = e12_model(ground_field(), 3, 3)
    # E_11, E_22 and E_33 form one S_3-orbit in degree 1
    assert [len(model.blocks.get(q, [])) for q in range(2)] == [1, 1]
    table = model.homology()
    assert [table.dims[q] for q in range(4)] == [1, 1, 0, 1]
    assert all(table.exact.values())
    H = coalgebra_on_homology(model)
    prim = primitive_dims(H)
    assert [prim[q] for q in range(4)] == [0, 1, 0, 1]


def test_coinvariant_model_needs_unital_base():
    no_unit = AInftyAlgebra(GradedSpace(("1",), (0,)), {2: {(0, 0): {0: 1}}})
    with pytest.raises(ValueError, match="strict unit"):
        e12_model(no_unit, 2, 2)
    # the stable model takes a base without a unit, as it takes an
    # augmentation ideal; `verify_lqt`, its caller, refuses one
    assert PermutationModel(no_unit, 2).n == 3
    with pytest.raises(ValueError, match="strict unit"):
        verify_lqt(no_unit, [2], 2)


def test_coinvariant_model_refuses_non_strict_unit():
    # the unit laws of m_2 hold, but m_3(1, 1, 1) = x does not vanish
    base = two_term_dga()
    ops = {k: dict(table) for k, table in base.ops.items()}
    ops[3] = {(0, 0, 0): {1: 1}}
    lax = AInftyAlgebra(base.space, ops, unit=0)
    with pytest.raises(ValueError, match="strict unit.*arity 3"):
        e12_model(lax, 2, 2)
    with pytest.raises(ValueError, match="strict unit.*arity 3"):
        verify_lqt(lax, [2], 2)


def word_weight(word, n, base_dim):
    net = [0] * n
    for idx in word:
        _, i, j = gl_entry(idx, n, base_dim)
        net[i] += 1
        net[j] -= 1
    return tuple(net)


@pytest.mark.parametrize("base_name", ["K", "K[e]", "D"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_buckets_filter_ce_words_in_order(base_name, n):
    base_dim = {"K": 1, "K[e]": 2, "D": 2}[base_name]
    susp = gl_cached(base_name, n).suspended
    targets = [(0,) * n] + [_root_weight(n, r, s)
                            for r, s in itertools.permutations(range(n), 2)]
    for q in range(0, 5 if n < 4 else 4):
        buckets = _weight_buckets(susp, n, base_dim, q, targets)
        words = ce_words(susp.degrees, q)
        for target in targets:
            expected = [w for w in words
                        if word_weight(w, n, base_dim) == target]
            assert buckets[target] == expected, (q, target)


@pytest.mark.parametrize("base_name,n,max_degree", [
    ("K", 3, 4), ("K", 4, 4), ("K[e]", 3, 3), ("D", 3, 3)])
def test_simple_root_spans_equal_all_root_spans(base_name, n, max_degree):
    base = {"K": ground_field, "K[e]": dual_numbers,
            "D": two_term_dga}[base_name]()
    model = simple_root_model(base, n, max_degree)
    L = model.algebra
    dim = base.space.dim
    actions = []
    for r, s in itertools.permutations(range(n), 2):
        gen = {gl_index(n, dim, base.unit, r, s): Fraction(1)}
        actions.append((_root_weight(n, s, r),
                        make_inner(L, gen)))
    spans = {}
    for q in range(0, max_degree + 2):
        words = ce_words(L.suspended.degrees, q)
        gens = []
        for wt, act in actions:
            for w in words:
                if word_weight(w, n, dim) == wt:
                    img = act.eval_word(w)
                    if img:
                        gens.append(img)
        if gens:
            spans[q] = gens
    d = L.coderivation
    reference = ChainComplex(model.blocks, lambda q, w: d.eval_word(w),
                             quotient_spans=spans)
    fast = model.complex()
    assert sorted(fast.reducers) == sorted(reference.reducers)
    for q in reference.reducers:
        assert fast.reducers[q].canonical_rows() == \
            reference.reducers[q].canonical_rows(), q


def test_coinvariant_model_uses_simple_roots_only():
    model = e12_model(ground_field(), 4, 4)
    # one representative per non-vanishing S_4-orbit: 323 zero-weight words
    # through degree 5 fall into 17 such orbits
    assert sum(len(words) for words in model.blocks.values()) == 17
    # the single root E_12 on one segment word of weight e_2 - e_1 per orbit
    # of the permutations fixing positions 1 and 2, through degree 4 only:
    # 64 source words fall into 47 such orbits, and 34 of the words and 24
    # of the orbits have a nonzero image.  The degree-5 block just sources
    # boundaries
    assert sum(len(gens) for gens in model.spans.values()) == 24
    assert max(model.spans) <= 4
    oracle = every_word_model(ground_field(), 4, 4)
    assert {q: red.rows for q, red in model.complex().reducers.items()} == \
        {q: red.rows for q, red in oracle.complex().reducers.items()}


# ---------------------------------------------------------------------------
# the orbit presentation against the simple-root oracle


def touched(word, n, base_dim):
    out = set()
    for idx in word:
        _, i, j = gl_entry(idx, n, base_dim)
        out |= {i, j}
    return out


BASES = {"K": ground_field, "K[e]": dual_numbers, "ut2": upper_triangular,
         "D": two_term_dga}


@pytest.mark.parametrize("base_name", ["K", "K[e]", "D"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_segment_words_filter_ce_words_in_order(base_name, n):
    base_dim = BASES[base_name]().space.dim
    susp = gl_cached(base_name, n).suspended
    targets = [(0,) * n] + ([(-1, 1) + (0,) * (n - 2)] if n > 1 else [])
    for q in range(0, 5 if n < 4 else 4):
        words = ce_words(susp.degrees, q)
        for target in targets:
            expected = [w for w in words
                        if word_weight(w, n, base_dim) == target
                        and touched(w, n, base_dim) ==
                        set(range(len(touched(w, n, base_dim))))]
            assert _segment_words(susp, orbit_model(base_name, n)._letters,
                                  n, q, target) == expected, \
                (q, target)


@pytest.mark.parametrize("base_name,n,max_degree", [
    ("K", 1, 4), ("K", 2, 4), ("K", 3, 4), ("K", 4, 5),
    ("K[e]", 1, 3), ("K[e]", 2, 3), ("K[e]", 3, 3), ("K[e]", 4, 3),
    ("ut2", 1, 3), ("ut2", 2, 3), ("ut2", 3, 3), ("ut2", 4, 2),
    ("D", 1, 3), ("D", 2, 3), ("D", 3, 3), ("D", 4, 3)])
def test_orbit_model_matches_simple_root_oracle(base_name, n, max_degree):
    base = BASES[base_name]()
    model = e12_model(base, n, max_degree)
    oracle = simple_root_model(base, n, max_degree)
    assert all(q <= max_degree for q in model.spans)
    degrees = range(max_degree + 1)
    assert [model.complex().dim(q) for q in degrees] == \
        [oracle.complex().dim(q) for q in degrees]
    # the top block is not quotiented; the rank of its boundary, the one
    # thing it feeds, is the oracle's
    assert model.complex().rank(max_degree + 1) == \
        oracle.complex().rank(max_degree + 1)
    assert model.homology().dims == oracle.homology().dims
    assert primitive_dims(coalgebra_on_homology(model)) == \
        primitive_dims(coalgebra_on_homology(oracle))


@pytest.mark.parametrize("base_name,n,max_degree", [
    *(("K", n, 4) for n in range(2, 6)),
    *((name, n, 3) for name in ("K[e]", "ut2", "D", "m3unital")
      for n in range(2, 5))])
def test_orbit_closure_matches_every_word_oracle(base_name, n, max_degree):
    base = fixture_algebra("m3unital") if base_name == "m3unital" \
        else BASES[base_name]()
    model = e12_model(base, n, max_degree)
    oracle = every_word_model(base, n, max_degree)
    assert model.blocks == oracle.blocks
    assert {q: red.rows for q, red in model.complex().reducers.items()} == \
        {q: red.rows for q, red in oracle.complex().reducers.items()}
    assert model.homology() == oracle.homology()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ce_model(fixture_algebra("sl2"), 1, h=[0]),
                 id="sl2-h"),
    pytest.param(lambda: e12_model(ground_field(), 3, 4),
                 id="gl3-K")])
def test_models_quotient_through_max_degree_only(build):
    # the top block exists but is never quotiented; d(S_{m+1}) lies in S_m
    model = build()
    assert max(model.blocks) == model.max_degree + 1
    assert max(model.spans, default=0) <= model.max_degree


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ce_model(fixture_algebra("sl2"), 4, h=[0]),
                 id="sl2-h"),
    pytest.param(lambda: e12_model(ground_field(), 3, 4),
                 id="gl3-K")])
def test_one_complex_per_model(build, monkeypatch):
    built = []
    real = ChainComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counting)
    model = build()
    model.homology()
    H = coalgebra_on_homology(model)
    primitive_dims(H)
    assert built == [model.complex()]


@pytest.mark.parametrize("base_name,n,max_degree", [
    ("K", 2, 4), ("K", 3, 4), ("K", 4, 4), ("K[e]", 2, 3), ("K[e]", 3, 3),
    ("ut2", 2, 3), ("ut2", 3, 3), ("D", 2, 3), ("D", 3, 3)])
def test_projected_coproduct_matches_pair_complex_oracle(base_name, n,
                                                         max_degree):
    model = e12_model(BASES[base_name](), n, max_degree)
    H = coalgebra_on_homology(model)
    delta = pair_complex_coproduct(
        model.algebra.suspended, model.complex(), max_degree,
        canonical=model.canonical)
    assert H.delta == delta
    if (base_name, n) == ("K", 4):
        assert any(row for rows in delta.values() for row in rows)


@pytest.mark.parametrize("alg,h,max_degree", [
    pytest.param(lambda: fixture_algebra("sl2"), [0], 4, id="sl2-h"),
    pytest.param(lambda: gl_cached("K", 2),
                 all_matrix_unit_generators(ground_field(), 2), 4,
                 id="gl2-units")])
def test_homology_coproduct_matches_pair_complex_oracle(alg, h, max_degree):
    alg = alg()
    model = ce_model(alg, max_degree, h=h)
    H, cx = coalgebra_on_homology(model), model.complex()
    assert H.delta == pair_complex_coproduct(alg.suspended, cx, max_degree)


@lru_cache(maxsize=None)
def orbit_model(base_name, n):
    return e12_model(BASES[base_name](), n, 0)


def relabel(word, perm, n, base_dim):
    out = []
    for idx in word:
        a, i, j = gl_entry(idx, n, base_dim)
        out.append(gl_index(n, base_dim, a, perm[i], perm[j]))
    return tuple(out)


@st.composite
def zero_weight_words(draw):
    """A base, a size n <= 4, a zero-weight word made of closed walks
    through the matrix positions, and a permutation of the positions."""
    base_name = draw(st.sampled_from(sorted(BASES)))
    base_dim = BASES[base_name]().space.dim
    n = draw(st.integers(1, 4))
    step = st.tuples(st.integers(0, base_dim - 1), st.integers(0, n - 1))
    walks = draw(st.lists(st.lists(step, min_size=1, max_size=3),
                          min_size=1, max_size=3))
    word = []
    for walk in walks:
        for k, (a, i) in enumerate(walk):
            word.append(gl_index(n, base_dim, a, i, walk[(k + 1) % len(walk)][1]))
    return base_name, n, tuple(word), draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(zero_weight_words())
def test_canonical_is_a_signed_orbit_invariant(drawn):
    base_name, n, letters, perm = drawn
    model = orbit_model(base_name, n)
    space = model.algebra.suspended
    base_dim = BASES[base_name]().space.dim
    koszul, word = canonical_sym(letters, space)
    assume(koszul)
    sign, rep = model.canonical(word)
    assert touched(rep, n, base_dim) == set(range(len(touched(rep, n, base_dim))))
    # sigma(w) = koszul(sigma, w) . w', and w' has the same representative
    moved_sign, moved = canonical_sym(relabel(word, perm, n, base_dim), space)
    assert moved_sign
    assert model.canonical(moved) == (sign * moved_sign, rep)
    # brute force over all n! relabellings: the representative lies in the
    # orbit, and the word vanishes exactly when a stabilizer acts by -1
    orbit = [canonical_sym(relabel(word, p, n, base_dim), space)
             for p in itertools.permutations(range(n))]
    assert rep in {w for _, w in orbit}
    assert (sign == 0) == any(s == -1 and w == word for s, w in orbit)
    if sign:
        assert model.canonical(rep) == (1, rep)


@lru_cache(maxsize=None)
def segment_word_list(base_name, n, q, weight):
    model = orbit_model(base_name, n)
    return _segment_words(model.algebra.suspended, model._letters, n, q,
                          weight)


@lru_cache(maxsize=None)
def e12_action(base_name, n):
    base = BASES[base_name]()
    gen = {gl_index(n, base.space.dim, base.unit, 0, 1): Fraction(1)}
    return make_inner(gl_cached(base_name, n), gen)


@st.composite
def segment_words(draw, weights=("zero", "root"), max_degree=3):
    """A base, a size 2 <= n <= 5, and a segment word of degree at most
    `max_degree` whose weight is zero or e_2 - e_1, as drawn from
    `weights`."""
    base_name = draw(st.sampled_from(sorted(BASES)))
    n = draw(st.integers(2, 5))
    weight = {"zero": (0,) * n, "root": _root_weight(n, 1, 0)}[
        draw(st.sampled_from(weights))]
    words = segment_word_list(base_name, n, draw(st.integers(1, max_degree)),
                              weight)
    assume(words)
    return base_name, n, draw(st.sampled_from(words))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(segment_words(max_degree=4))
# orbits that vanish under the permutations fixing positions 0 and 1: odd
# loops on positions 2 and 3, and a 2-cycle on 3, 4 next to a loop on 2
@example(("K", 5, (0, 5, 12, 18)))
@example(("K", 5, (5, 12, 19, 23)))
def test_orbit_walk_is_the_signed_brute_force_orbit(drawn):
    base_name, n, word = drawn
    base_dim = BASES[base_name]().space.dim
    model = orbit_model(base_name, n)
    space = model.algebra.suspended
    t = len(touched(word, n, base_dim))
    assert touched(word, n, base_dim) == set(range(t))
    for fixed in (0, 2):
        # relabelling(word) = s . v as symmetric words, and word = s . v in
        # the quotient
        brute = {canonical_sym(relabel(word, p + tuple(range(t, n)), n,
                                       base_dim), space)
                 for p in itertools.permutations(range(t))
                 if all(p[k] == k for k in range(min(fixed, t)))}
        signs, vanishes = model._orbit(word, fixed)
        walked = {(s, v) for v, s in signs.items()}
        assert set(signs) == {v for _, v in brute}, fixed
        assert walked <= brute, fixed
        assert vanishes == ((-1, word) in brute), fixed
        if not vanishes:
            assert walked == brute, fixed


@settings(derandomize=True, deadline=None, max_examples=60)
@given(segment_words(weights=("root",)), st.data())
def test_e12_images_of_one_orbit_agree_up_to_sign(drawn, data):
    # E_12 . tau x = tau(E_12 . x) for tau fixing positions 1 and 2, and tau
    # fixes classes, so one source word per orbit spans the relations
    base_name, n, word = drawn
    base_dim = BASES[base_name]().space.dim
    model, act = orbit_model(base_name, n), e12_action(base_name, n)
    tau = (0, 1) + tuple(data.draw(st.permutations(range(2, n))))
    koszul, moved = canonical_sym(relabel(word, tau, n, base_dim),
                                  model.algebra.suspended)
    assert koszul
    image = model.reduce(act.eval_word(word))
    assert model.reduce(act.eval_word(moved)) == \
        {key: koszul * c for key, c in image.items()}


def test_orbit_model_work_counts(monkeypatch):
    counts = {"eval_word": 0, "make_inner": 0, "walks": 0}
    eval_word, make_inner_ = Coderivation.eval_word, model_oracles.make_inner
    orbit = E12Model._orbit

    def counting_orbit(self, word, fixed):
        counts["walks"] += 1
        return orbit(self, word, fixed)

    def counting_eval(self, word):
        counts["eval_word"] += 1
        return eval_word(self, word)

    def counting_inner(*args):
        counts["make_inner"] += 1
        return make_inner_(*args)

    monkeypatch.setattr(Coderivation, "eval_word", counting_eval)
    monkeypatch.setattr(model_oracles, "make_inner", counting_inner)
    monkeypatch.setattr(E12Model, "_orbit", counting_orbit)
    model = e12_model(ground_field(), 6, 4)
    assert [model.homology().dims[q] for q in range(5)] == [1, 1, 0, 1, 1]
    # one evaluation per representative and per orbit of E_12 source words;
    # the simple-root presentation evaluated about 9,800 words here, and
    # one evaluation per source word took 101
    assert counts["eval_word"] <= 70
    # one walk per orbit of zero-weight segment words and per orbit of E_12
    # source words; every boundary and image word is then a memo lookup.
    # A colour-refinement canonical form per orbit and per image word, next
    # to an orbit closure, took 120 + 88
    assert counts["walks"] <= 88
    assert counts["make_inner"] == 1


@pytest.mark.parametrize("base_name,n", [("K", 4), ("K[e]", 3), ("D", 3)])
def test_orbits_of_degree_at_most_n_do_not_depend_on_n(base_name, n):
    base = BASES[base_name]()
    base_dim = base.space.dim
    small = e12_model(base, n, n - 1)
    large = e12_model(base, n + 1, n - 1)
    for q in range(n + 1):
        orbits = []
        for model in (small, large):
            words = _segment_words(model.algebra.suspended, model._letters,
                                   model.n, q, (0,) * model.n)
            orbits.append({model.canonical(w)[1] for w in words})
        assert len(orbits[0]) == len(orbits[1]), q
        assert {corner_embed_word(w, n, n + 1, base_dim) for w in orbits[0]} \
            == orbits[1], q
        assert [corner_embed_word(w, n, n + 1, base_dim)
                for w in small.blocks.get(q, [])] == large.blocks.get(q, []), q
    if base_name == "K":
        assert len(orbits[0]) == 9   # degree 4, at n = 4 and n = 5


# ---------------------------------------------------------------------------
# exact values


def stored_values(alg):
    for ops in (alg.ops, alg.coderivation.comps):
        for table in ops.values():
            for val in table.values():
                yield from val.values()


def test_no_stored_value_is_a_float():
    # K[h] / (h^2 - h/2), given with float and Fraction values
    base = AInftyAlgebra(
        GradedSpace(("1", "h"), (0, 0)),
        {2: {(0, 0): {0: 1.0}, (0, 1): {1: Fraction(2, 2)}, (1, 0): {1: 1},
             (1, 1): {1: 0.5}}}, unit=0, name="half")
    model = PermutationModel(base, 2)
    values = [v for alg in (base, matrix_algebra(base, 2), gl(base, 2),
                            model.algebra)
              for v in stored_values(alg)]
    values += [v for q in range(1, 4) for col in model.complex()._boundary(q)
               for v in col.values()]
    assert Fraction(1, 2) in values and Fraction(-1, 2) in values
    assert {type(v) for v in values} == {int, Fraction}
    # an integral value is stored as an int
    assert all(type(v) is int for v in values if v.denominator == 1)
