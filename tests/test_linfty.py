import random
from fractions import Fraction
from pathlib import Path

import pytest

from homotopyalg.chain import ChainComplex
from homotopyalg.coalgebra import Coderivation, StructureReport, certify
from homotopyalg.documents import document_to_algebra, parse_document
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import (
    CEModel,
    InconsistencyError,
    LInftyAlgebra,
    ce_model,
    ce_words,
    check_linfty,
    coalgebra_on_homology,
    lie_homology,
    make_inner,
)

from oracles import (
    adjoint_one_cocycle,
    adjoint_two_cocycle,
    gl_bracket,
    lie_ce_boundary,
    lie_homology_dims,
    sl2_bracket,
)
from model_oracles import e12_model, inner_action_on_homology


def abelian(dim=1):
    labels = tuple(f"x{i}" for i in range(dim))
    return LInftyAlgebra(GradedSpace(labels, (0,) * dim), {}, name="abelian")


def sl2():
    ops = {2: {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}}
    return LInftyAlgebra(GradedSpace(("h", "e", "f"), (0, 0, 0)), ops, name="sl2")


def gl(n):
    dim = n * n
    brk = gl_bracket(n)
    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            val = brk(a, b)
            if val:
                table[(a, b)] = val
    labels = tuple(f"E{i}{j}" for i in range(n) for j in range(n))
    return LInftyAlgebra(GradedSpace(labels, (0,) * dim), {2: table}, name=f"gl{n}")


def non_jacobi():
    ops = {2: {(0, 1): {0: 1}, (0, 2): {2: 1}}}
    return LInftyAlgebra(GradedSpace(("a", "b", "c"), (0, 0, 0)), ops)


def test_certificates_for_lie_fixtures():
    for alg in (abelian(1), abelian(3), sl2(), gl(2)):
        report = check_linfty(alg)
        assert report.ok and report.complete


def test_non_jacobi_violation_at_weight_three():
    report = check_linfty(non_jacobi())
    assert not report
    arity, word, defect = report.witness
    assert arity == 3
    assert defect


@pytest.fixture
def squarings(monkeypatch):
    """Arity caps of every commutator computed through `bracket`."""
    from homotopyalg import coalgebra, linfty

    caps = []
    real_bracket = coalgebra.bracket

    def counting_bracket(*args, **kwargs):
        caps.append(args[-1])
        return real_bracket(*args, **kwargs)

    for module in (coalgebra, linfty):
        monkeypatch.setattr(module, "bracket", counting_bracket)
    return caps


def test_non_derivation_is_rechecked_with_a_witness(squarings):
    # e -> e, h, f -> 0 fails on [e, f] = h
    alg = sl2()
    c = Coderivation(alg.suspended, 0, symmetric=True)
    c.set_value((1,), {1: 1})
    for _ in range(2):
        report = certify(alg.coderivation, c)
        assert not report and isinstance(report, StructureReport)
        arity, word, defect = report.witness
        assert arity == 2 and defect
    assert len(squarings) == 2


def test_suspension_is_signless_in_degree_zero():
    assert sl2().coderivation.comps[2] == {
        (0, 1): {1: Fraction(2)},
        (0, 2): {2: Fraction(-2)},
        (1, 2): {0: Fraction(1)},
    }


def test_storage_validation():
    with pytest.raises(ValueError):
        LInftyAlgebra(GradedSpace(("a", "b"), (0, 0)), {2: {(1, 0): {0: 1}}})
    # an unsorted word is refused even when its value is zero
    with pytest.raises(ValueError):
        LInftyAlgebra(GradedSpace(("a", "b"), (0, 0)), {2: {(1, 0): {0: 0}}})
    # a repeated entry of odd suspended degree is forced zero
    with pytest.raises(ValueError):
        LInftyAlgebra(GradedSpace(("a", "b"), (0, 0)), {2: {(0, 0): {1: 1}}})
    # but a repeated entry of even suspended degree is a legal squaring
    # bracket; the suspension sign (-1)^((k-t)|a_t|) = -1 for the odd first slot
    alg = LInftyAlgebra(GradedSpace(("x", "y", "z"), (1, 1, 2)),
                        {2: {(0, 0): {2: 1}}})
    assert alg.coderivation.apply((0, 0)) == {2: Fraction(-1)}


def test_ce_words_enumeration_frozen():
    space = GradedSpace(("x", "y"), (0, 1)).suspend()  # degrees 1, 2
    assert ce_words(space.degrees, 0) == [()]
    assert ce_words(space.degrees, 1) == [(0,)]
    assert ce_words(space.degrees, 2) == [(1,)]
    assert ce_words(space.degrees, 3) == [(0, 1)]
    assert ce_words(space.degrees, 4) == [(1, 1)]
    assert ce_words(space.degrees, 5) == [(0, 1, 1)]


def test_abelian_homology_is_an_exterior_coalgebra():
    table = lie_homology(abelian(1), 3)
    assert table.dims == {0: 1, 1: 1, 2: 0, 3: 0}
    assert all(table.exact.values())


def test_sl2_homology_matches_classical_oracle():
    table = lie_homology(sl2(), 3)
    assert table.dims == {0: 1, 1: 0, 2: 0, 3: 1}
    oracle = lie_homology_dims(sl2_bracket, 3, 3)
    assert table.dims == {k: oracle[k] for k in range(4)}


def test_gl2_homology_matches_classical_oracle():
    table = lie_homology(gl(2), 4)
    oracle = lie_homology_dims(gl_bracket(2), 4, 4)
    assert table.dims == {k: oracle[k] for k in range(5)}
    assert table.dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}


def test_ce_differential_matches_classical_formula_entrywise():
    alg = sl2()
    d = alg.coderivation
    for q in range(1, 5):
        for w in ce_words(alg.suspended.degrees, q):
            assert dict(d.eval_word(w)) == lie_ce_boundary(sl2_bracket, w)


def test_weight_cap_flags():
    table = lie_homology(sl2(), 3, max_weight=2)
    assert table.exact == {0: True, 1: True, 2: False, 3: False}
    # the coproduct reads the same model, so its table carries the same flags
    H = ce_model(sl2(), 3, max_weight=2).coproduct()
    assert H.table.exact == table.exact


def random_matrix_cochain(alg, rng):
    """A random arity-1 degree-0 coderivation (a linear map in matrix
    form)."""
    dim = alg.space.dim
    c = Coderivation(alg.suspended, 0, symmetric=True)
    entries = {}
    for i in range(dim):
        val = {j: Fraction(rng.randint(-2, 2)) for j in range(dim)}
        val = {j: v for j, v in val.items() if v}
        if val:
            c.set_value((i,), val)
            entries[i] = val
    return c, entries


def random_pair_cochain(alg, rng):
    """A random arity-2 degree -1 symmetric coderivation and its
    unsuspended antisymmetric table for the oracle."""
    dim = alg.space.dim
    c = Coderivation(alg.suspended, -1, symmetric=True)
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = {k: Fraction(rng.randint(-2, 2)) for k in range(dim)}
            val = {k: v for k, v in val.items() if v}
            if val:
                c.set_value((i, j), val)
                table[(i, j)] = val
    return c, table


def test_adjoint_action_is_a_derivation():
    alg = sl2()
    c = Coderivation(alg.suspended, 0, symmetric=True)
    c.set_value((1,), {1: 2})
    c.set_value((2,), {2: -2})
    result = certify(alg.coderivation, c)
    assert isinstance(result, StructureReport)
    assert result and result.complete


def test_derivation_iff_one_cocycle():
    alg = sl2()
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(25):
        c, entries = random_matrix_cochain(alg, rng)
        mine = bool(certify(alg.coderivation, c))
        oracle = adjoint_one_cocycle(sl2_bracket, 3, entries)
        assert mine == oracle
        seen[mine] += 1
    assert seen[False] > 0  # the sample is not vacuous


def test_derivation_iff_two_cocycle():
    alg = sl2()
    rng = random.Random(11)
    # the bracket itself is a cocycle; so is zero
    assert bool(certify(alg.coderivation, alg.coderivation))
    assert bool(certify(alg.coderivation,
                        Coderivation(alg.suspended, -1, symmetric=True)))
    assert adjoint_two_cocycle(sl2_bracket, 3,
                               {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    hits = 0
    for _ in range(25):
        c, table = random_pair_cochain(alg, rng)
        mine = bool(certify(alg.coderivation, c))
        oracle = adjoint_two_cocycle(sl2_bracket, 3, table)
        assert mine == oracle
        hits += not mine
    assert hits > 0


def test_make_inner_is_always_a_derivation():
    alg = sl2()
    rng = random.Random(3)
    for _ in range(5):
        c, _ = random_matrix_cochain(alg, rng)
        der = make_inner(alg, c)
        assert isinstance(der, Coderivation)
        report = certify(alg.coderivation, der)
        assert report and report.complete
    der = make_inner(alg, {0: 1})
    assert der.comps[1] == {(1,): {1: Fraction(2)}, (2,): {2: Fraction(-2)}}


def test_inner_action_vanishes_on_homology():
    alg = sl2()
    rng = random.Random(5)
    for _ in range(3):
        gen = {i: rng.randint(-2, 2) for i in range(3)}
        if not any(gen.values()):
            gen = {0: 1}
        induced = inner_action_on_homology(alg, gen, 3)
        assert all(not row for rows in induced.values() for row in rows)
    # an arity-1 generator on gl2: the induced degree -1 map also vanishes
    galg = gl(2)
    c, _ = random_matrix_cochain(galg, random.Random(9))
    induced = inner_action_on_homology(galg, c, 3)
    assert all(not row for rows in induced.values() for row in rows)


def test_inner_action_trivial_for_abelian():
    induced = inner_action_on_homology(abelian(2), {0: 1}, 2)
    assert all(not row for rows in induced.values() for row in rows)


def test_coinvariants_by_reductive_subalgebra_keep_dimensions():
    alg = sl2()
    plain = lie_homology(alg, 3)
    reduced = lie_homology(alg, 3, h=[0, 1, 2])
    assert plain.dims == reduced.dims

    galg = gl(2)
    plain = lie_homology(galg, 3)
    reduced = lie_homology(galg, 3, h=list(range(4)))
    assert plain.dims == reduced.dims


def test_abelian_coinvariants_leave_complex_unchanged():
    alg = abelian(1)
    reduced = lie_homology(alg, 1, h=[0])
    assert reduced.dims == {0: 1, 1: 1}
    plain = ce_model(alg, 1).complex()
    quotient = ce_model(alg, 1, h=[0]).complex()
    assert [quotient.dim(q) for q in range(2)] == \
        [plain.dim(q) for q in range(2)]


def test_subalgebra_closure_is_checked():
    with pytest.raises(ValueError):
        lie_homology(sl2(), 2, h=[{1: 1}, {2: 1}])


def test_primitives_of_small_coalgebras():
    H = ce_model(abelian(1), 3).coproduct()
    assert H.primitive_subspace(1).dim == 1
    assert H.primitive_subspace(0).dim == 0

    H = ce_model(sl2(), 3).coproduct()
    assert H.table.dims == {0: 1, 1: 0, 2: 0, 3: 1}
    assert H.primitive_subspace(3).dim == 1


def test_degree_zero_primitives_agree():
    # H_0 is spanned by the empty word, whose reduced coproduct vanishes,
    # yet it is never primitive
    for alg in (abelian(1), sl2()):
        H = ce_model(alg, 2).coproduct()
        assert H.table.dims[0] == 1
        assert H.primitive_subspace(0).dim == 0


def test_exterior_square_is_not_primitive():
    # H(gl2) = exterior on generators in degrees 1 and 3; the degree-4
    # class is their product, with a visible mixed coproduct term
    H = ce_model(gl(2), 4).coproduct()
    assert H.table.dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    assert H.primitive_subspace(1).dim == 1
    assert H.primitive_subspace(2).dim == 0
    assert H.primitive_subspace(3).dim == 1
    assert H.primitive_subspace(4).dim == 0
    row = H.delta[4][0]
    assert row and all(a + b == 4 for (a, b, _, _) in row)


def test_coproduct_survives_coinvariant_reduction():
    # same homology and primitives computed on the gl2-coinvariant complex
    galg = gl(2)
    H = ce_model(galg, 4, h=list(range(4))).coproduct()
    assert H.table.dims == {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    assert [H.primitive_subspace(q).dim for q in range(5)] == [0, 1, 0, 1, 0]


def test_coproduct_that_does_not_descend_is_refused():
    # abelian on x0, x1 in degree 0: d = 0 descends to any quotient, but the
    # reduced coproduct of x0.x1 is x0 (x) x1 - x1 (x) x0, nonzero in C1 (x) C1.
    # The span is not made of inner-derivation images, which the package never
    # builds, so the failed check is reported as a fault of the package.
    alg = abelian(2)
    space = alg.suspended
    blocks = {q: ce_words(space.degrees, q) for q in range(4)}
    spans = {2: [{(0, 1): Fraction(1)}]}
    with pytest.raises(InconsistencyError, match="does not descend"):
        coalgebra_on_homology(CEModel(alg, 2, blocks, spans))


def test_representative_independence_runs_over_an_image_basis(monkeypatch):
    # the check is linear in the boundary, so it differentiates only the
    # words whose boundaries form a basis of the image: 15 of the 312 words
    # of degree 4 on the gl_3(ut2) model through degree 3.  Below degree
    # max_degree - 1 the pair differential also differentiates factors.
    path = Path(__file__).resolve().parents[1] / "fixtures" / "ut2.alg"
    base = document_to_algebra(parse_document(path.read_text(encoding="utf-8")))
    model = e12_model(base, 3, 3)
    cx = model.complex()
    seen = {}
    real = ChainComplex.differential

    def recording(self, q, element):
        seen.setdefault(q, []).extend(element)
        return real(self, q, element)

    monkeypatch.setattr(ChainComplex, "differential", recording)
    coalgebra_on_homology(model)
    assert (cx.dim(4), cx._rank(4)) == (312, 15)
    for q in (3, 4):
        assert len(seen[q]) == cx._rank(q)
        assert seen[q] == [cx.basis[q][p] for p in cx.image_basis(q)]
