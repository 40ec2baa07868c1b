"""Tests for the Loday-Quillen-Tsygan-type comparison harness."""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg.ainfty import (
    AInftyAlgebra,
    cyclic_homology,
    from_associative,
    from_dga,
)
from homotopyalg.chain import BettiTable
from homotopyalg import ainfty, constructions, linfty, lqt
from homotopyalg.constructions import PermutationModel, gl_index
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import InconsistencyError, ce_words
from homotopyalg.lqt import (
    expand_exterior,
    hopf_product_on_homology,
    verify_lqt,
)
from homotopyalg.rational_linalg import LinearSolver

from matrix_oracles import gl_entry
from model_oracles import (
    coalgebra_on_homology,
    doubled_hopf_product,
    e12_model,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@lru_cache(maxsize=None)
def ground_field():
    return from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")


@lru_cache(maxsize=None)
def dual_numbers():
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}
    return from_associative(["1", "e"], mult, unit=0, name="K[e]")


@lru_cache(maxsize=None)
def fixture_algebra(name):
    return document_to_algebra(
        parse_document((FIXTURES / f"{name}.alg").read_text()))


def exact_table(dims):
    return BettiTable(dims=dict(dims), exact={q: True for q in dims})


# ---------------------------------------------------------------------------
# expand_exterior


def test_expand_exterior_on_cyclic_homology_of_field():
    # (1 + t)(1 + t^3)(1 + t^5): the classes in even degrees 0, 2, 4 become
    # odd generators in degrees 1, 3 and 5, and nothing else
    hc = exact_table({q: 1 - q % 2 for q in range(5)})
    table = expand_exterior(hc, 5)
    assert table.dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1, 5: 1}
    assert all(table.exact[q] for q in range(6))


def test_expand_exterior_of_zero_table():
    table = expand_exterior(exact_table({0: 0, 1: 0}), 2)
    assert [table.dims[q] for q in range(3)] == [1, 0, 0]


def test_expand_exterior_single_even_class():
    table = expand_exterior(exact_table({0: 1, 1: 0, 2: 0}), 3)
    assert [table.dims[q] for q in range(4)] == [1, 1, 0, 0]


def test_expand_exterior_single_odd_class_gives_polynomial_factor():
    # a degree-1 class shifts to an even generator in degree 2
    table = expand_exterior(exact_table({0: 0, 1: 1, 2: 0, 3: 0}), 4)
    assert [table.dims[q] for q in range(5)] == [1, 0, 1, 0, 1]


def test_expand_exterior_rejects_truncated_input():
    hc = BettiTable(dims={0: 1, 1: 0, 2: 1},
                    exact={0: True, 1: True, 2: False})
    with pytest.raises(ValueError, match="exact through degree 2"):
        expand_exterior(hc, 3)
    with pytest.raises(ValueError, match="missing or truncated"):
        expand_exterior(exact_table({0: 1}), 3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 6), max_size=6), st.integers(0, 9))
def test_free_series_counts_the_canonical_words_of_its_generators(
        generators, max_degree):
    # the free graded-commutative algebra on generators of these degrees
    # has, in degree q, a basis of the canonical symmetric words of total
    # degree q over them: repeats only of even generators
    assert lqt._free_series(generators, max_degree) == \
        {q: len(ce_words(generators, q)) for q in range(max_degree + 1)}


def test_expand_exterior_matches_computed_cyclic_homology():
    hc = cyclic_homology(dual_numbers(), 3)
    assert [hc.dims[q] for q in range(4)] == [2, 0, 2, 0]
    table = expand_exterior(hc, 4)
    # (1 + t)^2 (1 + t^3)^2 truncated: two odd generators each in 1 and 3
    assert [table.dims[q] for q in range(5)] == [1, 2, 1, 2, 4]


# ---------------------------------------------------------------------------
# the block-sum product


def test_hopf_product_over_ground_field():
    base = ground_field()
    report = hopf_product_on_homology(PermutationModel(base, 4))
    assert report.ok
    assert report.unit_ok
    assert report.commutative_violations == []
    assert report.associative_violations == []
    assert report.primitive_product_violations == []
    # one class each in degrees 0, 1, 3 and 4: the classes multiplied
    assert {x for x, _ in report.products} == \
        {(0, 0), (1, 0), (3, 0), (4, 0)}
    # the two odd primitive classes multiply to a nonzero degree-4 class
    assert report.products[((1, 0), (3, 0))]
    # an odd class squares to zero
    assert report.products[((1, 0), (1, 0))] == {}
    assert report.checked_pairs > 0 and report.checked_triples > 0


def test_hopf_report_catches_a_noncommutative_product(monkeypatch):
    # a mutant block sum that flips the sign only when the left word has
    # the lower positive degree: a flip on both orders would cancel out of
    # graded commutativity, and one on the empty word would break the unit
    model = PermutationModel(ground_field(), 4)
    degrees = model.algebra.suspended.degrees

    def degree(word):
        return sum(degrees[x] for x in word)

    real = constructions.PermutationModel.block_sum

    def flipped(self, left, right):
        sign, rep = real(self, left, right)
        if 0 < degree(left) < degree(right):
            sign = -sign
        return sign, rep

    monkeypatch.setattr(constructions.PermutationModel, "block_sum", flipped)
    report = hopf_product_on_homology(model)
    assert report.unit_ok
    assert report.commutative_violations
    assert ((1, 0), (3, 0)) in [v[:2] for v in report.commutative_violations]
    assert not report.ok


@lru_cache(maxsize=None)
def three_points():
    """K x K x K: the unit 1 and two orthogonal idempotents e and f."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
            (2, 0): {2: 1}, (1, 1): {1: 1}, (2, 2): {2: 1}}
    return from_associative(["1", "e", "f"], mult, unit=0, name="K3")


def test_hopf_product_skips_a_factor_that_is_not_primitive():
    # HC(K3) is 3, 0, 3: H_1 is primitive, and H_2, the exterior square
    # of H_1, has no primitive class
    model = PermutationModel(three_points(), 3)
    report = hopf_product_on_homology(model)
    assert report.ok
    assert model.homology().dims == {0: 1, 1: 3, 2: 3, 3: 4}
    prim = coalgebra_on_homology(model).primitive_subspace
    assert (prim(1).dim, prim(2).dim) == (3, 0)

    def primitive(key):
        return prim(key[0]).contains({key[1]: Fraction(1)})

    # the nonzero products of positive degree with a factor that is not
    # primitive: x in H_1 times y in H_2, either way round
    skipped = [(x, y) for (x, y), cls in report.products.items()
               if cls and x[0] >= 1 and y[0] >= 1
               and not (primitive(x) and primitive(y))]
    assert len(skipped) == 6
    assert {(x[0], y[0]) for x, y in skipped} == {(1, 2), (2, 1)}


def test_hopf_report_catches_a_primitive_product(monkeypatch):
    # a mutant primitive sector whose degree-2 classes span all of H_2:
    # the products of two degree-1 primitives become primitive
    real = PermutationModel.primitive_homology

    def everything_in_degree_2(self):
        table = real(self)
        reps = dict(table.representatives)
        reps[2] = self.homology(representatives=True).representatives[2]
        return BettiTable(dims={q: len(r) for q, r in reps.items()},
                          representatives=reps)

    monkeypatch.setattr(PermutationModel, "primitive_homology",
                        everything_in_degree_2)
    report = hopf_product_on_homology(PermutationModel(three_points(), 3))
    assert report.primitive_product_violations
    assert {(x[0], y[0]) for x, y, _ in report.primitive_product_violations} \
        == {(1, 1)}
    assert not report.ok


def test_hopf_report_catches_a_nonassociative_product(monkeypatch):
    # a mutant block sum that negates every product whose left word has
    # two letters or more
    real = constructions.PermutationModel.block_sum

    def negated(self, left, right):
        sign, rep = real(self, left, right)
        return (-sign if len(left) >= 2 else sign), rep

    monkeypatch.setattr(constructions.PermutationModel, "block_sum", negated)
    report = hopf_product_on_homology(PermutationModel(three_points(), 3))
    assert report.associative_violations
    assert not report.ok


def test_block_sum_moves_the_second_word_past_the_first():
    model = PermutationModel(dual_numbers(), 3)

    def word(*letters):
        return tuple(sorted(gl_index(4, 2, a, i, j) for a, i, j in letters))

    # 1 (x) E_11 and e (x) E_11 sit side by side, not on one position
    assert model.block_sum(word((0, 0, 0)), word((1, 0, 0))) == \
        model.canonical(word((0, 0, 0), (1, 1, 1)))
    # the shift is one past the largest position the first word touches
    left = word((0, 0, 1), (1, 1, 0))
    assert model.block_sum(left, word((1, 0, 0))) == \
        model.canonical(word((0, 0, 1), (1, 1, 0), (1, 2, 2)))
    with pytest.raises(ValueError, match="out of range"):
        model.block_sum(word((0, 0, 1), (0, 1, 2), (1, 2, 0)),
                        word((0, 0, 1), (0, 1, 0)))


def test_hopf_product_refuses_a_model_below_the_stable_size():
    for n in (1, 3, 4):
        with pytest.raises(ValueError, match="n > max_degree"):
            hopf_product_on_homology(e12_model(ground_field(), n, 4))


def test_hopf_product_refuses_a_mismatched_doubled_model():
    # the doubled-algebra reference validates its second model
    model_1 = e12_model(ground_field(), 1, 2)
    for wrong in (e12_model(ground_field(), 3, 2),
                  e12_model(ground_field(), 2, 1),
                  e12_model(dual_numbers(), 2, 2)):
        with pytest.raises(ValueError, match="doubled model"):
            doubled_hopf_product(model_1, wrong)


@pytest.mark.parametrize("base,max_degree", [
    (ground_field, 4), (dual_numbers, 3)])
def test_hopf_product_equals_the_doubled_algebra_reference(base, max_degree):
    # the one-model table, in the coordinates of the stable model, equals
    # the doubled check at sizes 3 and 6 re-expressed through the corner
    # inclusion in the coordinates of size 3
    base = base()
    one = hopf_product_on_homology(PermutationModel(base, max_degree))
    ref = doubled_hopf_product(e12_model(base, 3, max_degree),
                               e12_model(base, 6, max_degree))
    assert one.ok and ref.ok and ref.associative_unstable == []
    assert one.checked_pairs == ref.checked_pairs > 0
    assert one.products == ref.stabilized


@pytest.mark.parametrize("name", ["dual_numbers", "ut2", "dga2", "m3unital"])
def test_hopf_product_where_the_cli_skips_it(name):
    # the lqt command keeps its historical budget and skips these bases;
    # the product itself runs on their stable models
    report = hopf_product_on_homology(
        PermutationModel(fixture_algebra(name), 3))
    assert report.ok
    assert report.checked_pairs > 0


@pytest.mark.parametrize("base,sizes,max_degree,expect", [
    (ground_field, [3, 4], 4, ["I(K)", "K"]),
    (dual_numbers, [3, 4], 3, ["I(K[e])"]),
    (ground_field, [4], 4, ["I(K)", "K"]),
], ids=["lqt-K", "lqt-dual", "K-default"])
def test_verify_lqt_builds_one_stable_model(monkeypatch, base, sizes,
                                            max_degree, expect):
    # one permutation model of the augmentation ideal at n = max_degree + 1,
    # every requested size read off it once through the corner inclusion,
    # and the model of gl_n(A) itself only for the block-sum product, which
    # runs on K and is skipped on K[e]; no gl_2n
    built, stable = [], []
    real, real_stable = lqt.gl_coinvariant_model, lqt.PermutationModel

    def counting(stable_model, n):
        built.append((stable_model.algebra.name, n))
        return real(stable_model, n)

    def counting_stable(base, max_degree):
        stable.append((base.name, max_degree + 1))
        return real_stable(base, max_degree)

    monkeypatch.setattr(lqt, "gl_coinvariant_model", counting)
    monkeypatch.setattr(lqt, "PermutationModel", counting_stable)
    report = verify_lqt(base(), sizes, max_degree)
    n = max_degree + 1
    assert sorted(built) == [(f"gl{n}({expect[0]})", k) for k in sizes]
    assert sorted(stable) == [(name, n) for name in expect]
    assert report.all_match
    if not isinstance(report.hopf, str):
        assert report.hopf.ok and report.hopf.n == n


def test_verify_lqt_builds_each_gl_once(monkeypatch):
    # gl_n of the augmentation ideal is built for the stable model, and
    # gl_n(A) only where something reads it: the unreduced check at the
    # requested sizes <= 2 and the stable model of the block-sum product,
    # which runs on K and is skipped on K[e].  No gl_n is built twice and
    # no inner derivation is made
    built, inner = [], []
    real, real_inner = constructions.gl, linfty.make_inner

    def counting(base, n):
        built.append((base.name, n))
        return real(base, n)

    def counting_inner(*args):
        inner.append(args)
        return real_inner(*args)

    monkeypatch.setattr(constructions, "gl", counting)
    monkeypatch.setattr(lqt, "gl", counting, raising=False)
    for module in (linfty, constructions, lqt):
        monkeypatch.setattr(module, "make_inner", counting_inner,
                            raising=False)
    # K at sizes 1 and 2, then the sizes and degrees of lqt-K and lqt-dual
    for base, sizes, max_degree, expect in [
            (ground_field, [1, 2], 3,
             [("I(K)", 4), ("K", 1), ("K", 2), ("K", 4)]),
            (ground_field, [3, 4], 4, [("I(K)", 5), ("K", 5)]),
            (dual_numbers, [3, 4], 3, [("I(K[e])", 4)])]:
        built.clear()
        report = verify_lqt(base(), sizes, max_degree)
        assert report.all_match
        assert sorted(built) == expect, sizes
    assert inner == []


def test_verify_lqt_computes_each_primitive_subspace_once(monkeypatch):
    # the verdicts read the primitives of the ideal's stable model, and the
    # block-sum product and the cross-check those of the model of gl_5(K):
    # H(P) is computed once per model, on a complex of its own
    built = []

    class Recording(constructions.ChainComplex):
        def __init__(self, blocks, *args, **kwargs):
            built.append(sum(map(len, blocks.values())))
            super().__init__(blocks, *args, **kwargs)

    monkeypatch.setattr(constructions, "ChainComplex", Recording)
    report = verify_lqt(ground_field(), [3, 4], 4)
    assert report.all_match and report.hopf.ok
    # the ideal of K is zero, with no one-cycle word; gl_5(K) has three,
    # in degrees 1, 3 and 5
    assert built == [0, 3]


def test_verify_lqt_cross_checks_the_closed_form_against_the_full_model(
        monkeypatch):
    # on K the left side is the closed form Lambda(x_1, x_3, ...) alone;
    # where the block-sum product builds the model of gl_5(K), a closed form
    # missing its top generator x_3 disagrees with it
    real = lqt._ground_generators
    monkeypatch.setattr(lqt, "_ground_generators",
                        lambda n, max_degree: real(n, max_degree)[:-1])
    with pytest.raises(InconsistencyError, match="disagrees with Lambda"):
        verify_lqt(ground_field(), [3, 4], 4)
    # without the product (K[e] at sizes 3, 4) no model of gl_N(A) is
    # built, and only the comparison with Lambda(HC[1]) sees the fault
    report = verify_lqt(dual_numbers(), [3, 4], 3)
    assert isinstance(report.hopf, str) and not report.all_match


def test_verify_lqt_cross_checks_the_representative_count(monkeypatch):
    real = LinearSolver.relations
    monkeypatch.setattr(LinearSolver, "relations",
                        lambda solver: real(solver)[:-1])
    with pytest.raises(InconsistencyError, match="representative homology"):
        verify_lqt(ground_field(), [2, 3], 3)


def test_hopf_product_unit_class_acts_as_stabilization():
    # on the stable model the stabilization map is the identity
    model = PermutationModel(ground_field(), 3)
    report = hopf_product_on_homology(model)
    c0 = model.homology(representatives=True).representatives[0][0][()]
    for (x, y), cls in report.products.items():
        if x == (0, 0):
            assert cls == {y[1]: c0}
        if y == (0, 0):
            assert cls == {x[1]: c0}


# ---------------------------------------------------------------------------
# the stability bound


def letters_of(model, word):
    return tuple(gl_entry(x, model.n, model.base.space.dim) for x in word)


def in_entries(model):
    """Blocks and spans of a model with every word in (a, i, j) letters."""
    blocks = {q: [letters_of(model, w) for w in words]
              for q, words in model.blocks.items()}
    spans = {q: [{letters_of(model, w): c for w, c in gen.items()}
                 for gen in gens]
             for q, gens in model.spans.items()}
    return blocks, spans


@pytest.mark.parametrize("name,max_degree", [
    ("K", 4), ("dual_numbers", 3), ("ut2", 3), ("dga2", 3)])
def test_model_does_not_depend_on_n_from_max_degree_plus_one(name, max_degree):
    base = fixture_algebra(name)
    first, *others = (in_entries(e12_model(base, n, max_degree))
                      for n in range(max_degree + 1, max_degree + 4))
    assert max(first[0]) == max_degree + 1
    assert max(first[1]) <= max_degree
    for other in others:
        assert other == first


def test_verify_lqt_refuses_a_size_that_disagrees_with_the_stable_model(
        monkeypatch):
    real = lqt.gl_coinvariant_model
    wrong = PermutationModel(dual_numbers(), 3)

    def wrong_at_6(stable, n):
        return real(wrong if n == 6 else stable, n)

    monkeypatch.setattr(lqt, "gl_coinvariant_model", wrong_at_6)
    with pytest.raises(InconsistencyError, match="gl_6 disagrees"):
        verify_lqt(ground_field(), [3, 6], 3)


# ---------------------------------------------------------------------------
# the full comparison


def test_verify_lqt_ground_field():
    report = verify_lqt(ground_field(), [3, 4], 4)
    assert report.all_match
    assert [report.stable_dims[q] for q in range(5)] == [1, 1, 0, 1, 1]
    assert report.stable_from == {q: q + 1 for q in range(5)}
    assert report.left[3] == report.left[4]
    assert report.right == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    # primitive dimensions repeat the cyclic homology one degree down
    for q in range(1, 5):
        assert report.primitive_dims.get(q, 0) == report.hc_dims.get(q - 1, 0)
    assert all(v == "MATCH" for v in report.verdicts.values())
    assert all(v == "MATCH" for v in report.primitive_verdicts.values())
    assert report.hopf.ok


def test_verify_lqt_dual_numbers():
    report = verify_lqt(dual_numbers(), [3, 4], 3)
    assert report.all_match
    assert [report.stable_dims[q] for q in range(4)] == [1, 2, 1, 2]
    assert report.hc_dims == {0: 2, 1: 0, 2: 2}
    assert report.primitive_dims == {0: 0, 1: 2, 2: 0, 3: 2}
    # the doubled algebra exceeds the default budget; the skip is reported
    assert isinstance(report.hopf, str) and "budget" in report.hopf


def test_verify_lqt_reports_small_sizes_as_they_are():
    report = verify_lqt(ground_field(), [1, 2], 4)
    # gl_1 is one-dimensional abelian, so its degrees 3 and 4 differ from
    # the stable table; the verdicts read the stable model at n = 5
    assert report.left[1] == {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}
    assert report.left[2] == report.stable_dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    assert all(v == "MATCH" for v in report.verdicts.values())
    assert report.all_match


def test_verify_lqt_single_size_gets_verdicts():
    report = verify_lqt(ground_field(), [3], 2)
    assert all(v == "MATCH" for v in report.verdicts.values())
    assert report.stable_from == {0: 1, 1: 2, 2: 3}


def stable_report(**changes):
    # the report of `verify_lqt(ground_field(), [3], 4)`, with some
    # evidence replaced
    fields = dict(
        sizes=[3], max_degree=4, left={3: {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}},
        right={0: 1, 1: 1, 2: 0, 3: 1, 4: 1},
        hc_dims={0: 1, 1: 0, 2: 1, 3: 0},
        primitive_dims={0: 0, 1: 1, 2: 0, 3: 1, 4: 0},
        stable_dims={0: 1, 1: 1, 2: 0, 3: 1, 4: 1})
    fields.update(changes)
    return lqt.LQTReport(**fields)


def test_report_verdicts_are_derived_from_its_evidence():
    report = stable_report()
    assert report.verdicts == dict.fromkeys(range(5), "MATCH")
    assert report.primitive_verdicts == dict.fromkeys(range(1, 5), "MATCH")
    assert report.all_match
    real = verify_lqt(ground_field(), [3], 4)
    assert vars(real) == {**vars(report), "hopf": real.hopf}


def test_report_comparison_mismatch_in_one_degree():
    report = stable_report(stable_dims={0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
    assert report.verdicts == {0: "MATCH", 1: "MATCH", 2: "MISMATCH",
                               3: "MATCH", 4: "MATCH"}
    assert report.primitive_verdicts == dict.fromkeys(range(1, 5), "MATCH")
    assert not report.all_match


def test_report_primitive_mismatch_in_one_degree():
    # primitive_dims[q] is read against hc_dims[q - 1]
    report = stable_report(primitive_dims={0: 0, 1: 1, 2: 0, 3: 2, 4: 0})
    assert report.primitive_verdicts == {1: "MATCH", 2: "MATCH",
                                         3: "MISMATCH", 4: "MATCH"}
    assert report.verdicts == dict.fromkeys(range(5), "MATCH")
    assert not report.all_match


@pytest.mark.parametrize("max_degree", range(5))
@pytest.mark.parametrize("base", [ground_field, dual_numbers],
                         ids=["K", "dual_numbers"])
def test_verify_lqt_reads_words_of_at_most_max_degree_plus_one_letters(
        monkeypatch, base, max_degree):
    # the weight the `lqt` command asks of a document's cap: the stable
    # blocks, the Connes complex through HC_{m-1} and the unreduced check
    # read at most m + 1 letters, and HC_0 reads 2
    lengths = []

    def watch(module, name, letters=len):
        real = getattr(module, name)

        def wrapped(*args):
            words = real(*args)
            lengths.extend(letters(word) for word in words)
            return words
        monkeypatch.setattr(module, name, wrapped)

    real_model = lqt.PermutationModel

    def watched_model(base, max_degree):
        model = real_model(base, max_degree)
        lengths.extend(len(word) for words in model.blocks.values()
                       for word in words)
        return model

    watch(ainfty, "cyclic_words")
    watch(linfty, "ce_words")
    watch(constructions, "_necklaces", lambda necklace: len(necklace[0]))
    monkeypatch.setattr(lqt, "PermutationModel", watched_model)
    verify_lqt(base(), [1, 2, max_degree + 1], max_degree)
    assert max(lengths) == max(max_degree + 1, 2)


def test_verify_lqt_requires_strict_unit():
    no_unit = from_associative(["x"], {(0, 0): {}}, name="null")
    with pytest.raises(ValueError, match="unital"):
        verify_lqt(no_unit, [2, 3], 2)


def test_one_refusal_of_a_unit_that_is_not_strict():
    # "x" is declared the unit of an associative table whose unit is "1"
    labels = ("1", "x")
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    lax = AInftyAlgebra(GradedSpace(labels, (0, 0)), {2: mult}, unit=1)
    messages = set()
    # `PermutationModel` takes a base without a unit, as it takes an
    # augmentation ideal; `verify_lqt`, its caller, refuses
    for refuse in (lambda: from_dga(labels, (0, 0), {}, mult, unit=1),
                   lambda: verify_lqt(lax, [2], 2)):
        with pytest.raises(ValueError) as excinfo:
            refuse()
        messages.add(str(excinfo.value))
    assert messages == {"no strict unit (not strictly unital): "
                        "left unit law fails at (1, 0)"}


def test_verify_lqt_rejects_uncertified_algebra():
    # strictly unital but (aa)a = 0 != c = a(aa)
    space = GradedSpace(["1", "a", "b", "c"], [0, 0, 0, 0])
    table = {}
    for i in range(4):
        table[(0, i)] = {i: Fraction(1)}
        table[(i, 0)] = {i: Fraction(1)}
    table[(1, 1)] = {2: Fraction(1)}
    table[(1, 2)] = {3: Fraction(1)}
    for pair in [(2, 1), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2), (3, 3)]:
        table[pair] = {}
    alg = AInftyAlgebra(space, {2: table}, unit=0, name="bad")
    with pytest.raises(ValueError, match="not certified"):
        verify_lqt(alg, [2], 2)


def test_verify_lqt_validates_sizes():
    with pytest.raises(ValueError, match="sizes"):
        verify_lqt(ground_field(), [], 3)
    with pytest.raises(ValueError, match="sizes"):
        verify_lqt(ground_field(), [0, 2], 3)
