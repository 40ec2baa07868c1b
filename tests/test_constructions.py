import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from homotopyalg.ainfty import AInftyAlgebra, from_associative, from_dga
from homotopyalg.chain import ChainComplex
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import (
    ce_words,
    homology_coproduct,
    lie_homology,
    make_inner,
    primitives,
)
from homotopyalg.constructions import (
    _root_weight,
    _weight_buckets,
    GLCoinvariantModel,
    MatrixAlgebraSpec,
    MatrixElement,
    block_plus,
    check_block_sum_morphism,
    corner_embed,
    corner_embed_word,
    gl,
    gl_coinvariant_homology,
    gl_coinvariant_model,
    gl_entry,
    gl_index,
    in_commutator_subspace,
    lie_ify,
    matrix_algebra,
    matrix_units,
    tensor_with_associative,
    trace,
)

from oracles import gl_bracket, lie_homology_dims


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
    return gl(MatrixAlgebraSpec(base, n))


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
                 lambda: matrix_units(2)):
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


# ---------------------------------------------------------------------------
# tensor with an associative algebra


def test_tensor_with_ground_field_is_identity():
    alg = dual_numbers()
    assert tensor_with_associative(alg, ground_field()) is alg


def test_tensor_ground_field_with_matrix_units():
    result = tensor_with_associative(ground_field(), matrix_units(2))
    assert result.space.labels == ("1*E11", "1*E12", "1*E21", "1*E22")
    assert result.ops == matrix_units(2).ops
    assert result.unit is None  # the unit is not a basis vector


def test_tensor_ternary_with_matrix_units():
    result = tensor_with_associative(ternary_only(), matrix_units(2))
    # m'_3(a(x)E11, a(x)E11, a(x)E11) = b (x) E11 E11 E11 = b (x) E11
    assert result.op_value(3, (0, 0, 0)) == {4: Fraction(1)}
    # m'_3(a(x)E11, a(x)E12, a(x)E22) = b (x) E12
    assert result.op_value(3, (0, 1, 3)) == {5: Fraction(1)}
    # chains through a vanishing product die: E12 E12 = 0
    assert result.op_value(3, (0, 1, 1)) == {}


def test_tensor_factor_validation():
    bad = AInftyAlgebra(GradedSpace(("u", "v"), (0, 0)),
                        {2: {(0, 0): {1: 1}, (0, 1): {0: 1}}})
    with pytest.raises(ValueError, match="not associative"):
        tensor_with_associative(ground_field(), bad)
    no_unit = AInftyAlgebra(GradedSpace(("u", "v"), (0, 0)), {2: {}})
    with pytest.raises(ValueError, match="two-sided unit"):
        tensor_with_associative(ground_field(), no_unit)
    with pytest.raises(ValueError, match="degree 0"):
        tensor_with_associative(ground_field(), two_term_dga())
    # a degree-0 space can only support binary operations, so non-binary
    # factors are always caught by the degree guard
    with pytest.raises(ValueError, match="degree 0"):
        tensor_with_associative(ground_field(), ternary_only())


def test_two_sided_unit_is_solved_not_assumed():
    # M_2(K)'s unit E11 + E22 is not a basis vector; the construction still
    # accepts the factor, and rebuilding M_1 keeps the declared basis unit
    assert tensor_with_associative(dual_numbers(), matrix_units(2)) is not None
    assert matrix_units(1).unit == 0


# ---------------------------------------------------------------------------
# matrix algebras and gl


def test_matrix_algebra_size_one_is_base():
    spec = MatrixAlgebraSpec(dual_numbers(), 1)
    assert matrix_algebra(spec) is dual_numbers()
    assert gl(spec).ops == lie_ify(dual_numbers()).ops


def test_matrix_algebra_spec_validates_size():
    with pytest.raises(ValueError):
        MatrixAlgebraSpec(ground_field(), 0)


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
    spec = MatrixAlgebraSpec(dual_numbers(), 2)
    direct = gl(spec)
    composed = lie_ify(tensor_with_associative(dual_numbers(), matrix_units(2)))
    assert direct.ops == composed.ops
    assert direct.ell.comps == composed.ell.comps


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
# block sum, trace, commutator subspace


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


def test_trace_is_additive_and_symmetric_under_block_sum():
    rng = random.Random(11)
    for _ in range(5):
        x = random_element(rng, 2, 2)
        y = random_element(rng, 3, 2)
        tx, ty = trace(x), trace(y)
        expect = dict(tx)
        for a, c in ty.items():
            expect[a] = expect.get(a, Fraction(0)) + c
        expect = {a: c for a, c in expect.items() if c}
        assert trace(block_plus(x, y)) == expect
        assert trace(block_plus(y, x)) == expect


def test_trace_of_block_sum_is_associative():
    rng = random.Random(13)
    for _ in range(5):
        a, b, c = (random_element(rng, 2, 1) for _ in range(3))
        left = trace(block_plus(block_plus(a, b), c))
        right = trace(block_plus(a, block_plus(b, c)))
        assert left == right


def test_commutator_subspace_examples():
    e12 = MatrixElement(2, {(0, 0, 1): 1})
    assert in_commutator_subspace(e12)
    ident = MatrixElement(2, {(0, 0, 0): 1, (0, 1, 1): 1})
    assert not in_commutator_subspace(ident)
    rng = random.Random(17)
    for _ in range(5):
        x = random_element(rng, 2, 2)
        # project away the trace: subtract (tr x / n) * identity per base slot
        entries = dict(x.entries)
        for a, t in trace(x).items():
            for i in range(2):
                entries[(a, i, i)] = entries.get((a, i, i), Fraction(0)) - Fraction(t, 2)
        traceless = MatrixElement(2, entries, 2)
        assert trace(traceless) == {}
        assert in_commutator_subspace(traceless)
    eps_trace = MatrixElement(2, {(1, 0, 0): 1}, base_dim=2)
    assert not in_commutator_subspace(eps_trace)
    with pytest.raises(ValueError, match="size"):
        in_commutator_subspace(e12, 3)


def test_block_sum_commutator_defect_is_in_commutator_subspace():
    rng = random.Random(19)
    for _ in range(3):
        x = random_element(rng, 2, 2)
        y = random_element(rng, 2, 2)
        ab, ba = block_plus(x, y), block_plus(y, x)
        entries = dict(ab.entries)
        for key, c in ba.entries.items():
            entries[key] = entries.get(key, Fraction(0)) - c
        diff = MatrixElement(ab.n, entries, ab.base_dim)
        assert in_commutator_subspace(diff)


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
    fast = gl_coinvariant_homology(base, n, 3)
    h = all_matrix_unit_generators(base, n)
    generic = lie_homology(gl_cached(base_name, n), 3, h=h)
    assert {q: fast.dims[q] for q in range(4)} == \
        {q: generic.dims[q] for q in range(4)}
    # the coproduct on the zero-weight quotient against the generic one
    fast_prim = primitives(gl_coinvariant_model(base, n, 3).coproduct())
    generic_prim = primitives(homology_coproduct(gl_cached(base_name, n), 3, h=h))
    assert {q: fast_prim[q].dim for q in range(4)} == \
        {q: generic_prim[q].dim for q in range(4)}


def test_coinvariant_model_gl3_dims_and_primitives():
    model = gl_coinvariant_model(ground_field(), 3, 3)
    assert [len(model.blocks.get(q, [])) for q in range(2)] == [1, 3]
    table = model.homology()
    assert [table.dims[q] for q in range(4)] == [1, 1, 0, 1]
    assert all(table.exact.values())
    H = model.coproduct()
    prim = primitives(H)
    assert [prim[q].dim for q in range(4)] == [0, 1, 0, 1]


def test_coinvariant_model_needs_unital_base():
    no_unit = AInftyAlgebra(GradedSpace(("1",), (0,)), {2: {(0, 0): {0: 1}}})
    with pytest.raises(ValueError, match="strict unit"):
        gl_coinvariant_model(no_unit, 2, 2)


def test_coinvariant_model_refuses_non_strict_unit():
    # the unit laws of m_2 hold, but m_3(1, 1, 1) = x does not vanish
    base = two_term_dga()
    ops = {k: dict(table) for k, table in base.ops.items()}
    ops[3] = {(0, 0, 0): {1: 1}}
    lax = AInftyAlgebra(base.space, ops, unit=0)
    with pytest.raises(ValueError, match="strict unit.*arity 3"):
        gl_coinvariant_model(lax, 2, 2)


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
        words = ce_words(susp, q)
        for target in targets:
            expected = [w for w in words
                        if word_weight(w, n, base_dim) == target]
            assert buckets[target] == expected, (q, target)


@pytest.mark.parametrize("base_name,n,max_degree", [
    ("K", 3, 4), ("K", 4, 4), ("K[e]", 3, 3), ("D", 3, 3)])
def test_simple_root_spans_equal_all_root_spans(base_name, n, max_degree):
    base = {"K": ground_field, "K[e]": dual_numbers,
            "D": two_term_dga}[base_name]()
    model = gl_coinvariant_model(base, n, max_degree)
    L = model.algebra
    dim = base.space.dim
    actions = []
    for r, s in itertools.permutations(range(n), 2):
        gen = {gl_index(n, dim, base.unit, r, s): Fraction(1)}
        actions.append((_root_weight(n, s, r),
                        make_inner(L, gen).coderivation()))
    spans = {}
    for q in range(0, max_degree + 2):
        words = ce_words(L.suspended, q)
        gens = []
        for wt, act in actions:
            for w in words:
                if word_weight(w, n, dim) == wt:
                    img = act.eval_word(w)
                    if img:
                        gens.append(img)
        if gens:
            spans[q] = gens
    d = L.coderivation()
    reference = ChainComplex(model.blocks, lambda q, w: d.eval_word(w),
                             quotient_spans=spans)
    fast = model.complex()
    assert sorted(fast.reducers) == sorted(reference.reducers)
    for q in reference.reducers:
        assert fast.reducers[q].canonical_rows() == \
            reference.reducers[q].canonical_rows(), q


def test_coinvariant_model_uses_simple_roots_only():
    model = gl_coinvariant_model(ground_field(), 4, 4)
    assert sum(len(words) for words in model.blocks.values()) == 323
    # n-1 = 3 positive simple-root actions; the 2(n-1) = 6 simple roots of
    # either sign would give 1,212 and all n(n-1) = 12 roots 2,424
    assert sum(len(gens) for gens in model.spans.values()) == 606
