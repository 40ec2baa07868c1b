import random
from fractions import Fraction

import pytest

from homotopyalg.chain import ChainComplex
from homotopyalg.coalgebra import Cochain
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import (
    LInftyAlgebra,
    Derivation,
    ce_words,
    check_derivation,
    check_linfty,
    coalgebra_on_homology,
    homology_coproduct,
    inner_action_on_homology,
    lie_homology,
    make_inner,
    primitives,
)

from oracles import (
    adjoint_one_cocycle,
    adjoint_two_cocycle,
    gl_bracket,
    lie_ce_boundary,
    lie_homology_dims,
    sl2_bracket,
)


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


def test_linfty_memo_ignores_labels_but_not_coefficients(squarings):
    base = sl2()
    assert check_linfty(base).ok
    first = len(squarings)
    relabelled = LInftyAlgebra(GradedSpace(("x", "y", "z"), (0, 0, 0)),
                               base.ops, name="relabelled")
    report = check_linfty(relabelled)
    assert report.ok and report.complete
    assert len(squarings) == first  # served from the memo
    for _ in range(2):
        report = check_linfty(non_jacobi())
        assert not report and report.witness is not None
        arity, word, defect = report.witness
        assert arity == 3 and defect
    assert len(squarings) == first + 2  # squared every time, never memoized


def test_non_derivation_is_rechecked_with_a_witness(squarings):
    # e -> e, h, f -> 0 fails on [e, f] = h
    alg = sl2()
    c = Cochain(alg.suspended, 0, symmetric=True)
    c.set_value((1,), {1: 1})
    for _ in range(2):
        report = check_derivation(alg, c)
        assert not report and not isinstance(report, Derivation)
        arity, word, defect = report.witness
        assert arity == 2 and defect
    assert len(squarings) == 2


def test_suspension_is_signless_in_degree_zero():
    assert sl2().ell.comps[2] == {
        (0, 1): {1: Fraction(2)},
        (0, 2): {2: Fraction(-2)},
        (1, 2): {0: Fraction(1)},
    }


def test_storage_validation():
    with pytest.raises(ValueError):
        LInftyAlgebra(GradedSpace(("a", "b"), (0, 0)), {2: {(1, 0): {0: 1}}})
    # a repeated entry of odd suspended degree is forced zero
    with pytest.raises(ValueError):
        LInftyAlgebra(GradedSpace(("a", "b"), (0, 0)), {2: {(0, 0): {1: 1}}})
    # but a repeated entry of even suspended degree is a legal squaring
    # bracket; the suspension sign (-1)^((k-t)|a_t|) = -1 for the odd first slot
    alg = LInftyAlgebra(GradedSpace(("x", "y", "z"), (1, 1, 2)),
                        {2: {(0, 0): {2: 1}}})
    assert alg.ell.apply((0, 0)) == {2: Fraction(-1)}


def test_ce_words_enumeration_frozen():
    space = GradedSpace(("x", "y"), (0, 1)).suspend()  # degrees 1, 2
    assert ce_words(space, 0) == [()]
    assert ce_words(space, 1) == [(0,)]
    assert ce_words(space, 2) == [(1,)]
    assert ce_words(space, 3) == [(0, 1)]
    assert ce_words(space, 4) == [(1, 1)]
    assert ce_words(space, 5) == [(0, 1, 1)]


def test_abelian_homology_is_an_exterior_coalgebra():
    table = lie_homology(abelian(1), 3)
    assert table.as_row(range(4)) == (1, 1, 0, 0)
    assert all(table.exact.values())


def test_sl2_homology_matches_classical_oracle():
    table = lie_homology(sl2(), 3)
    assert table.as_row(range(4)) == (1, 0, 0, 1)
    oracle = lie_homology_dims(sl2_bracket, 3, 3)
    assert table.as_row(range(4)) == tuple(oracle[k] for k in range(4))


def test_gl2_homology_matches_classical_oracle():
    table = lie_homology(gl(2), 4)
    oracle = lie_homology_dims(gl_bracket(2), 4, 4)
    assert table.as_row(range(5)) == tuple(oracle[k] for k in range(5))
    assert table.as_row(range(5)) == (1, 1, 0, 1, 1)


def test_ce_differential_matches_classical_formula_entrywise():
    alg = sl2()
    d = alg.coderivation()
    for q in range(1, 5):
        for w in ce_words(alg.suspended, q):
            assert dict(d.eval_word(w)) == lie_ce_boundary(sl2_bracket, w)


def test_weight_cap_flags():
    table = lie_homology(sl2(), 3, max_weight=2)
    assert table.exact == {0: True, 1: True, 2: False, 3: False}


def random_matrix_cochain(alg, rng):
    """A random arity-1 degree-0 cochain (a linear map in matrix form)."""
    dim = alg.space.dim
    c = Cochain(alg.suspended, 0, symmetric=True)
    entries = {}
    for i in range(dim):
        val = {j: Fraction(rng.randint(-2, 2)) for j in range(dim)}
        val = {j: v for j, v in val.items() if v}
        if val:
            c.set_value((i,), val)
            entries[i] = val
    return c, entries


def random_pair_cochain(alg, rng):
    """A random arity-2 degree -1 symmetric cochain and its unsuspended
    antisymmetric table for the oracle."""
    dim = alg.space.dim
    c = Cochain(alg.suspended, -1, symmetric=True)
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
    c = Cochain(alg.suspended, 0, symmetric=True)
    c.set_value((1,), {1: 2})
    c.set_value((2,), {2: -2})
    result = check_derivation(alg, c)
    assert isinstance(result, Derivation)
    assert result and result.certificate.complete


def test_derivation_iff_one_cocycle():
    alg = sl2()
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(25):
        c, entries = random_matrix_cochain(alg, rng)
        mine = bool(check_derivation(alg, c))
        oracle = adjoint_one_cocycle(sl2_bracket, 3, entries)
        assert mine == oracle
        seen[mine] += 1
    assert seen[False] > 0  # the sample is not vacuous


def test_derivation_iff_two_cocycle():
    alg = sl2()
    rng = random.Random(11)
    # the bracket itself is a cocycle; so is zero
    assert bool(check_derivation(alg, alg.ell))
    assert bool(check_derivation(alg, Cochain(alg.suspended, -1, symmetric=True)))
    assert adjoint_two_cocycle(sl2_bracket, 3,
                               {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    hits = 0
    for _ in range(25):
        c, table = random_pair_cochain(alg, rng)
        mine = bool(check_derivation(alg, c))
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
        assert der and der.certificate.complete
    der = make_inner(alg, {0: 1})
    assert der.cochain.comps[1] == {(1,): {1: Fraction(2)},
                                    (2,): {2: Fraction(-2)}}


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
    assert reduced.as_row(range(2)) == (1, 1)
    assert reduced.block_dims == lie_homology(alg, 1).block_dims


def test_subalgebra_closure_is_checked():
    with pytest.raises(ValueError):
        lie_homology(sl2(), 2, h=[{1: 1}, {2: 1}])


def test_primitives_of_small_coalgebras():
    H = homology_coproduct(abelian(1), 3)
    prim = primitives(H)
    assert prim[1].dim == 1
    assert prim[0].dim == 0

    H = homology_coproduct(sl2(), 3)
    prim = primitives(H)
    assert H.table.as_row(range(4)) == (1, 0, 0, 1)
    assert prim[3].dim == 1


def test_exterior_square_is_not_primitive():
    # H(gl2) = exterior on generators in degrees 1 and 3; the degree-4
    # class is their product, with a visible mixed coproduct term
    H = homology_coproduct(gl(2), 4)
    assert H.table.as_row(range(5)) == (1, 1, 0, 1, 1)
    prim = primitives(H)
    assert prim[1].dim == 1
    assert prim[2].dim == 0
    assert prim[3].dim == 1
    assert prim[4].dim == 0
    row = H.delta[4][0]
    assert row and all(a + b == 4 for (a, b, _, _) in row)


def test_coproduct_survives_coinvariant_reduction():
    # same homology and primitives computed on the gl2-coinvariant complex
    galg = gl(2)
    H = homology_coproduct(galg, 4, h=list(range(4)))
    assert H.table.as_row(range(5)) == (1, 1, 0, 1, 1)
    prim = primitives(H)
    assert [prim[q].dim for q in range(5)] == [0, 1, 0, 1, 0]


def test_coproduct_that_does_not_descend_is_refused():
    # abelian on x0, x1 in degree 0: d = 0 descends to any quotient, but the
    # reduced coproduct of x0.x1 is x0 (x) x1 - x1 (x) x0, nonzero in C1 (x) C1
    alg = abelian(2)
    space = alg.suspended
    blocks = {q: ce_words(space, q) for q in range(4)}
    spans = {2: [{(0, 1): Fraction(1)}]}
    d = alg.coderivation()
    cx = ChainComplex(blocks, lambda q, w: d.eval_word(w), quotient_spans=spans)
    with pytest.raises(ValueError, match="does not descend"):
        coalgebra_on_homology(space, cx, 2, spans=spans)
