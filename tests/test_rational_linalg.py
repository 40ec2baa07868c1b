import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from homotopyalg import graded, rational_linalg
from homotopyalg.rational_linalg import (
    LinearSolver,
    RowReducer,
)
from oracles import DictRREF


def M(rows):
    """Dense list-of-lists to the arguments of `kernel`: the sparse
    columns and the number of rows."""
    m = len(rows[0]) if rows else 0
    columns = [{r: row[c] for r, row in enumerate(rows) if row[c]}
               for c in range(m)]
    return columns, len(rows)


def kernel(columns, ambient_dim):
    """The null space of the map sending the j-th unit vector to columns[j],
    as `ChainComplex` reads a cycle space: the relations of one tagged
    elimination of the columns."""
    solver = LinearSolver(ambient_dim)
    for col in columns:
        solver.add(col)
    return solver.relations()


def span(vectors):
    red = RowReducer()
    for vec in vectors:
        red.insert(vec)
    return red


def rank(mat):
    """Rank of a matrix given by M, from the echelon dimension of its
    columns."""
    red = RowReducer()
    for col in mat[0]:
        red.insert(col)
    return red.dim


def dense_rank(rows):
    """Independent dense Gaussian elimination oracle."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rk += 1
    return rk


def test_rank_of_singular_2x2():
    # rank [[1,2],[2,4]] = 1, confirmed by hand elimination
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert dense_rank([[1, 2], [2, 4]]) == 1


def test_kernel_of_row_vector():
    # kernel of [1 1] is spanned by (1, -1) in canonical leading-1 form
    assert kernel(*M([[1, 1]])) == [{0: Fraction(1), 1: Fraction(-1)}]


def test_rank_transpose_equal():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(m)]
                for _ in range(n)]
        columns = [list(col) for col in zip(*rows)]
        assert rank(M(rows)) == rank(M(columns)) == dense_rank(rows)


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        mat = M(rows)
        assert rank(mat) + len(kernel(*mat)) == m
        # the same elimination gives the rank: the adds that report a
        # real pivot
        solver = LinearSolver(n)
        assert sum(solver.add(col) < n for col in mat[0]) == rank(mat)


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(30):
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)]
        for vec in kernel(*M(rows)):
            for mat_row in rows:
                assert sum(v * vec.get(c, 0) for c, v in enumerate(mat_row)) == 0


def test_kernel_reducer_equals_one_built_by_insertion():
    # the relations are the tag rows of the echelon, read off without
    # eliminating again: already the canonical rows of their span
    rng = random.Random(19)
    for _ in range(30):
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
        null = kernel(*M(rows))
        rebuilt = span(null).canonical_rows()
        assert tuple(tuple(vec.items()) for vec in null) == rebuilt


def test_subspace_canonical_form_is_order_independent():
    rng = random.Random(17)
    for _ in range(25):
        vecs = [{c: rng.randint(-3, 3) for c in range(5)} for _ in range(4)]
        vecs = [{c: v for c, v in vec.items() if v} for vec in vecs]
        a = span(vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = [{c: Fraction(3, 2) * v for c, v in vec.items()} for vec in shuffled]
        b = span(scaled)
        assert a.canonical_rows() == b.canonical_rows()


def test_echelon_rows_are_inter_reduced():
    red = RowReducer()
    red.insert({0: 2, 1: 4, 2: 2})
    red.insert({0: 1, 1: 3, 2: 2})
    red.insert({1: 1, 2: 1, 3: 1})
    pivots = sorted(red.rows)
    rows = red.canonical_rows()
    for p, row in zip(pivots, rows):
        d = dict(row)
        assert d[p] == 1
        assert min(d) == p
        for q in pivots:
            if q != p:
                assert q not in d
    # residuals of span members vanish
    assert red.contains({0: 3, 1: 7, 2: 4})


def test_stored_rows_stay_primitive_through_back_reduction():
    # every stored row has content 1, its pivot as its smallest column and
    # a positive pivot entry, also after a later insert back-reduces it
    rng = random.Random(37)
    back_reduced = []
    for _ in range(20):
        red = RowReducer()
        unregister = red._unregister
        red._unregister = lambda q: back_reduced.append(q) or unregister(q)
        for _ in range(6):
            red.insert({c: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for c in rng.sample(range(8), 4)})
            for p, row in red.rows.items():
                assert all(type(v) is int for v in row.values())
                assert math.gcd(*row.values()) == 1
                assert min(row) == p and row[p] > 0
    assert back_reduced


def test_residual_is_projection():
    rng = random.Random(23)
    red = RowReducer()
    for _ in range(3):
        red.insert({c: rng.randint(-2, 2) for c in range(6)})
    v = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for c in range(6)}
    res = red.residual(v)
    # v - res lies in the span, and res reduces to itself
    diff = dict(res)
    for c, val in v.items():
        diff[c] = diff.get(c, 0) - val
    assert red.contains(diff)
    assert red.residual(res) == res


def test_linear_solver_roundtrip():
    rng = random.Random(29)
    for _ in range(20):
        basis = [{c: rng.randint(-2, 2) for c in range(5)} for _ in range(3)]
        solver = LinearSolver(5)
        for i, vec in enumerate(basis):
            solver.add(vec, tag=i)
        coeffs = {i: Fraction(rng.randint(-3, 3)) for i in range(3)}
        target = {}
        for i, vec in enumerate(basis):
            for c, v in vec.items():
                nv = target.get(c, 0) + coeffs[i] * v
                if nv:
                    target[c] = nv
                else:
                    target.pop(c, None)
        got = solver.express(target)
        assert got is not None
        rebuilt = {}
        for i, cf in got.items():
            for c, v in basis[i].items():
                nv = rebuilt.get(c, 0) + cf * v
                if nv:
                    rebuilt[c] = nv
                else:
                    rebuilt.pop(c, None)
        assert rebuilt == target


def test_linear_solver_rejects_outside():
    solver = LinearSolver(3)
    solver.add({0: 1, 1: 1})
    assert solver.express({2: 1}) is None


def test_column_space_dim_equals_rank():
    rng = random.Random(31)
    for _ in range(20):
        rows = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(3)]
        columns = span([{r: row[c] for r, row in enumerate(rows) if row[c]}
                        for c in range(5)])
        assert columns.dim == rank(M(rows))


# an exact coefficient of every type `insert` and `residual` read: an int,
# a Fraction, or a float that is a binary fraction
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([0.5, -1.5, 2.0, 0.0]))
sparse_vectors = st.dictionaries(st.integers(0, 7), coefficients, max_size=6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(sparse_vectors, max_size=6),
       st.lists(sparse_vectors, max_size=4))
def test_one_reduction_agrees_with_a_rational_echelon(span_vectors, targets):
    # insert and residual share one integer reduction; against an echelon
    # kept in Fractions, insert reports the same pivot and leaves the same
    # reduced rows, and residual gives the same representative
    red, oracle = RowReducer(), DictRREF()
    for vec in span_vectors:
        expected = oracle.residual(vec)
        assert red.insert(vec) == (min(expected) if expected else None)
        oracle.insert(vec)
        assert red.canonical_rows() == tuple(
            tuple(sorted(row.items())) for _, row in sorted(oracle.rows.items()))
    for vec in span_vectors + targets:
        assert red.residual(vec) == oracle.residual(vec)
        assert red.contains(vec) == (not oracle.residual(vec))


def test_insert_builds_no_fraction_for_an_integer_vector(monkeypatch):
    rng = random.Random(41)
    vectors = [{c: rng.randint(-5, 5) for c in rng.sample(range(8), 5)}
               for _ in range(12)]
    expected = span(vectors)

    def forbidden(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(graded, "Fraction", forbidden)
    monkeypatch.setattr(rational_linalg, "Fraction", forbidden)
    red = RowReducer()
    for vec in vectors:
        red.insert(vec)
        assert red.contains(vec)
    monkeypatch.undo()
    assert red.rows == expected.rows
