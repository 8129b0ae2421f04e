import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hardlef import linalg


def F(x):
    return Fraction(x)


def M(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_canonical():
    rows, pivots = linalg.rref(M([[2, 4, 0], [1, 2, 1]]), 3)
    assert pivots == [0, 2]
    assert rows == M([[1, 2, 0], [0, 0, 1]])


def test_rref_is_pivot_strategy_independent():
    mat = M([[3, 1, 0], [6, 2, 1], [0, 0, 5]])
    a = linalg.rref(mat, 3)[0]
    b = linalg.rref(list(reversed(mat)), 3)[0]
    assert a == b


def test_rank_and_row_space():
    mat = M([[1, 2], [2, 4], [0, 1]])
    assert linalg.rank(mat, 2) == 2
    assert linalg.row_space(M([[2, 4]]), 2) == M([[1, 2]])


def test_nullspace():
    mat = M([[1, 2, 3]])
    basis = linalg.left_kernel(linalg.transpose(mat, 3), 1)
    assert len(basis) == 2
    for v in basis:
        assert sum(c * x for c, x in zip(mat[0], v)) == 0


def test_left_kernel():
    mat = M([[1, 0], [2, 0], [0, 1]])
    ker = linalg.left_kernel(mat, 2)
    assert ker == M([[1, Fraction(-1, 2), 0]])


def test_left_kernel_empty_and_degenerate():
    assert linalg.left_kernel([], 3) == []
    full = linalg.left_kernel([[], []], 0)
    assert full == linalg.identity(2)


def test_express_in_rows():
    rows = M([[1, 0, 1], [0, 1, 1]])
    assert linalg.express_in_rows(rows, M([[2, 3, 5]])[0], 3) == [F(2), F(3)]
    assert linalg.express_in_rows(rows, M([[0, 0, 1]])[0], 3) is None
    assert linalg.express_in_rows([], [F(0)], 1) == []
    assert linalg.express_in_rows([], [F(1)], 1) is None


def test_inverse():
    mat = M([[1, 2], [3, 5]])
    inv = linalg.inverse(mat)
    assert linalg.matmul(mat, inv, 2) == linalg.identity(2)
    assert linalg.inverse(M([[1, 2], [2, 4]])) is None
    assert linalg.inverse([]) == []


def test_matmul_empty_dimensions():
    assert linalg.matmul([], M([[1]]), 1) == []
    assert linalg.matmul(M([[]]), [], 3) == [[F(0)] * 3]


def test_block_diag_and_negate():
    out = linalg.block_diag(M([[1]]), M([[2, 3]]), 1, 2)
    assert out == M([[1, 0, 0], [0, 2, 3]])
    assert linalg.negate(M([[1, -2]])) == M([[-1, 2]])


def test_echelon_residual():
    ech = linalg.Echelon(M([[1, 0, 2], [0, 1, 3]]), 3)
    assert ech.residual(M([[2, 1, 7]])[0]) == [F(0), F(0), F(0)]
    assert any(ech.residual(M([[0, 0, 1]])[0]))


def test_random_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(mat)
        if inv is None:
            assert linalg.rank(mat, n) < n
        else:
            assert linalg.matmul(mat, inv, n) == linalg.identity(n)
            assert linalg.matmul(inv, mat, n) == linalg.identity(n)


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                           Fraction(5, 3)])


@st.composite
def _matrices(draw):
    """Rational matrices with repeated, combined and zero rows mixed in;
    empty ones included."""
    ncols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(_entries)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    mat = [[F(x) for x in row] for row in rows]
    return mat, ncols, draw(st.lists(_entries, min_size=len(mat),
                                     max_size=len(mat)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_matrices())
def test_echelon_factorization(data):
    mat, ncols, coeffs = data
    m = len(mat)
    ech = linalg.Echelon(mat, ncols)
    assert ech.rows == linalg.row_space(mat, ncols)
    assert linalg.matmul(ech.combos, mat, ncols) == ech.rows
    assert linalg.is_zero_matrix(linalg.matmul(ech.kernel, mat, ncols))
    assert ech.kernel == linalg.row_space(ech.kernel, m)
    assert len(ech.pivots) + len(ech.kernel) == m
    inside = linalg.matmul([coeffs], mat, ncols)[0] if m else [F(0)] * ncols
    for target in (inside, [F(0)] * ncols, [F(1)] * ncols):
        sol = ech.solve(target)
        in_span = linalg.rank(mat + [target], ncols) == len(ech.pivots)
        assert (sol is not None) == in_span
        if sol is not None:
            assert linalg.matmul([sol], mat, ncols)[0] == target
            assert not any(ech.residual(target))
    assert ech.solve(inside) is not None
    k = min(m, ncols)
    square = [row[:k] for row in mat[:k]]
    inv = linalg.inverse(square)
    assert (inv is None) == (linalg.rank(square, k) < k)
    if inv is not None:
        assert linalg.matmul(inv, square, k) == linalg.identity(k)
