from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from homotopyalg.ainfty import from_associative
from homotopyalg.chain import ChainComplex, InconsistencyError
from homotopyalg.coalgebra import Coderivation
from homotopyalg.constructions import PermutationModel
from homotopyalg.graded import GradedSpace
from homotopyalg.linfty import LInftyAlgebra, ce_model
from homotopyalg.lqt import hopf_product_on_homology
from homotopyalg.rational_linalg import LinearSolver, RowReducer

from model_oracles import inner_action_on_homology, projection


def unimodular(draw, m):
    """A random integer matrix of determinant 1 and its inverse, as products
    of elementary row operations."""
    mat = [[int(i == j) for j in range(m)] for i in range(m)]
    inv = [row[:] for row in mat]
    ops = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                    st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=2 * m)):
        if i != j:
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
            for row in inv:
                row[j] -= c * row[i]
    return mat, inv


@st.composite
def known_complexes(draw):
    """A complex that is a sum of pieces Q (a cycle) and Q -> Q (an acyclic
    pair), some of them quotiented away, written in a random unimodular
    basis per degree.  Returns the complex, the top degree whose homology
    is read, the homology dimensions, and one non-cycle per degree."""
    top = draw(st.integers(0, 3))
    piece = st.tuples(st.sampled_from(["cycle", "pair"]),
                      st.integers(0, top + 1), st.booleans())
    pieces = draw(st.lists(piece, max_size=7))
    gens = {}        # degree -> [(piece, role)]
    dims = dict.fromkeys(range(top + 1), 0)
    for k, (kind, q, junk) in enumerate(pieces):
        if kind == "cycle":
            gens.setdefault(q, []).append((k, "z"))
            if not junk and q <= top:
                dims[q] += 1
        elif q >= 1:
            gens.setdefault(q, []).append((k, "u"))
            gens.setdefault(q - 1, []).append((k, "v"))
    bases = {q: unimodular(draw, len(g)) for q, g in gens.items()}

    def standard(q, i):
        """The i-th standard generator of degree q, over the keys."""
        return {j: c for j, c in enumerate(bases[q][0][i]) if c}

    def diff(q, key):
        out = {}
        for i, (k, role) in enumerate(gens[q]):
            coeff = bases[q][1][key][i]
            if role != "u" or not coeff:
                continue
            for j, c in standard(q - 1, gens[q - 1].index((k, "v"))).items():
                out[j] = out.get(j, 0) + coeff * c
        return {j: c for j, c in out.items() if c}

    junk = {k for k, (_, _, is_junk) in enumerate(pieces) if is_junk}
    spans = {q: [standard(q, i) for i, (k, _) in enumerate(g) if k in junk]
             for q, g in gens.items()}
    non_cycles = {q: standard(q, i) for q, g in gens.items()
                  for i, (k, role) in enumerate(g)
                  if role == "u" and k not in junk}
    blocks = {q: list(range(len(g))) for q, g in gens.items()}
    return (ChainComplex(blocks, diff, quotient_spans=spans), top, dims,
            non_cycles)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(known_complexes())
def test_homology_and_projection_on_known_complexes(drawn):
    cx, top, dims, non_cycles = drawn
    table = cx.homology(range(top + 1), representatives=True)
    project = projection(cx)
    assert table.dims == dims
    for q in range(top + 1):
        reps = table.representatives[q]
        assert len(reps) == dims[q]
        for i, rep in enumerate(reps):
            assert cx.differential(q, rep) == {}
            assert project(q, rep) == {i: 1}
            assert cx.class_coefficients(q, rep) == {i: 1}
        for key in cx.blocks.get(q + 1, ()):
            assert project(q, cx.diff(q + 1, key)) == {}
        if q in non_cycles:
            u = non_cycles[q]
            with pytest.raises(ValueError, match="not a cycle"):
                cx.class_coefficients(q, u)
            # p is linear on every chain, cycle or not
            for i, rep in enumerate(reps):
                shifted = dict(project(q, u))
                shifted[i] = shifted.get(i, 0) + 1
                chain = dict(u)
                for key, c in rep.items():
                    chain[key] = chain.get(key, 0) + c
                assert project(q, chain) == \
                    {j: c for j, c in shifted.items() if c}


def counting_complexes(monkeypatch):
    """Wrap the differential of every complex built from now on; returns
    one Counter of (degree, key) evaluations per complex."""
    counters = []
    init = ChainComplex.__init__

    def counting_init(self, blocks, diff, quotient_spans=None):
        seen = Counter()
        counters.append(seen)

        def counted(q, key):
            seen[q, key] += 1
            return diff(q, key)

        init(self, blocks, counted, quotient_spans=quotient_spans)

    monkeypatch.setattr(ChainComplex, "__init__", counting_init)
    return counters


def test_each_boundary_is_evaluated_once_per_complex(monkeypatch):
    counters = counting_complexes(monkeypatch)
    sl2 = LInftyAlgebra(
        GradedSpace(("h", "e", "f"), (0, 0, 0)),
        {2: {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}})
    # an arity-2 generator: the inner derivation lowers degree by 2 and
    # sends the degree-3 class to a nonzero boundary, read off once
    c = Coderivation(sl2.suspended, -1, symmetric=True)
    c.set_value((0, 1), {0: 1, 2: 1})
    c.set_value((1, 2), {1: 1})
    induced = inner_action_on_homology(sl2, c, 4)
    assert induced[3] == [{}]

    K = from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")
    report = hopf_product_on_homology(PermutationModel(K, 4))
    assert report.ok
    assert len(counters) >= 2
    for seen in counters:
        assert seen and max(seen.values()) == 1, seen.most_common(1)


def eliminated_columns(monkeypatch):
    """Record the boundary columns of every complex built from now on; returns
    the recorded (complex, degree, position) of each column, and a Counter of
    the eliminations, a `RowReducer.insert` or a `LinearSolver.add`, that
    each of them entered."""
    columns, entered = {}, Counter()
    boundary = ChainComplex._boundary

    def recording(self, q):
        cols = boundary(self, q)
        for p, col in enumerate(cols):
            columns[id(col)] = self, q, p
        return cols

    def counting(eliminate):
        def counted(self, vec, *args):
            if id(vec) in columns:
                entered[columns[id(vec)]] += 1
            return eliminate(self, vec, *args)
        return counted

    monkeypatch.setattr(ChainComplex, "_boundary", recording)
    monkeypatch.setattr(RowReducer, "insert", counting(RowReducer.insert))
    monkeypatch.setattr(LinearSolver, "add", counting(LinearSolver.add))
    return columns, entered


def test_each_boundary_is_eliminated_once_per_complex(monkeypatch):
    # ranks, cycles, representatives and class read-offs all come from one
    # elimination of each boundary: a column enters it once, and no other
    columns, entered = eliminated_columns(monkeypatch)
    sl2 = LInftyAlgebra(
        GradedSpace(("h", "e", "f"), (0, 0, 0)),
        {2: {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}})
    c = Coderivation(sl2.suspended, -1, symmetric=True)
    c.set_value((0, 1), {0: 1, 2: 1})
    c.set_value((1, 2), {1: 1})
    assert inner_action_on_homology(sl2, c, 4)[3] == [{}]
    K = from_associative(["1"], {(0, 0): {0: 1}}, unit=0, name="K")
    assert hopf_product_on_homology(PermutationModel(K, 4)).ok

    eliminated = {(cx, q) for cx, q, _ in entered}
    assert len({cx for cx, _ in eliminated}) >= 2
    for cx, q, p in columns.values():
        if (cx, q) in eliminated:
            assert entered[cx, q, p] == 1, (q, p, entered[cx, q, p])


def test_a_missing_representative_is_an_inconsistency(monkeypatch):
    # the abelian Lie algebra on one even letter: H = Lambda(x), a class in
    # degrees 0 and 1, each represented by its one word
    abelian = LInftyAlgebra(GradedSpace(["a"], [0]), {})
    assert ce_model(abelian, 2).homology(representatives=True).dims == \
        {0: 1, 1: 1, 2: 0}
    real = LinearSolver.relations
    monkeypatch.setattr(LinearSolver, "relations",
                        lambda solver: real(solver)[:-1])
    with pytest.raises(InconsistencyError, match="representative homology"):
        ce_model(abelian, 2).homology(representatives=True)
