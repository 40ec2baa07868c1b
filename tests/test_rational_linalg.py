import random
from fractions import Fraction

from homotopyalg.rational_linalg import (
    LinearSolver,
    RowReducer,
    SparseMatrix,
    Subspace,
    kernel,
)


def M(rows):
    """Dense list-of-lists to SparseMatrix."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    ents = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    return SparseMatrix.from_entries(n, m, ents)


def rank(mat):
    """Rank of a SparseMatrix, from the echelon dimension of its rows."""
    red = RowReducer()
    for row in mat.row_dicts():
        red.insert(row)
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
    k = kernel(M([[1, 1]]))
    assert k.dim == 1
    assert k.basis == (((0, Fraction(1)), (1, Fraction(-1))),)


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
        assert rank(mat) + kernel(mat).dim == m


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(30):
        rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)]
        mat = M(rows)
        for row in kernel(mat).basis:
            vec = dict(row)
            for mat_row in mat.row_dicts():
                assert sum(v * vec.get(c, 0) for c, v in mat_row.items()) == 0


def test_subspace_canonical_form_is_order_independent():
    rng = random.Random(17)
    for _ in range(25):
        vecs = [{c: rng.randint(-3, 3) for c in range(5)} for _ in range(4)]
        vecs = [{c: v for c, v in vec.items() if v} for vec in vecs]
        a = Subspace.from_vectors(5, vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        scaled = [{c: Fraction(3, 2) * v for c, v in vec.items()} for vec in shuffled]
        b = Subspace.from_vectors(5, scaled)
        assert a == b


def test_echelon_rows_are_inter_reduced():
    red = RowReducer()
    red.insert({0: 2, 1: 4, 2: 2})
    red.insert({0: 1, 1: 3, 2: 2})
    red.insert({1: 1, 2: 1, 3: 1})
    pivots = red.pivot_columns()
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
        columns = Subspace.from_vectors(
            3, [{r: row[c] for r, row in enumerate(rows) if row[c]}
                for c in range(5)])
        assert columns.dim == rank(M(rows))
