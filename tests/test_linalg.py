import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hardlef import linalg

import oracle


def F(x):
    return Fraction(x)


def M(rows):
    return [[Fraction(x) for x in row] for row in rows]


def S(rows):
    return [linalg.sparse(row) for row in rows]


def eye(n):
    return [{i: F(1)} for i in range(n)]


def test_rref_canonical():
    rows, pivots = linalg.rref(S(M([[2, 4, 0], [1, 2, 1]])), 3)
    assert pivots == [0, 2]
    assert rows == S(M([[1, 2, 0], [0, 0, 1]]))


def test_rref_is_pivot_strategy_independent():
    mat = S(M([[3, 1, 0], [6, 2, 1], [0, 0, 5]]))
    a = linalg.rref(mat, 3)[0]
    b = linalg.rref(list(reversed(mat)), 3)[0]
    assert a == b


def test_rank_and_row_space():
    mat = S(M([[1, 2], [2, 4], [0, 1]]))
    assert linalg.rank(mat, 2) == 2
    assert linalg.row_space(S(M([[2, 4]])), 2) == S(M([[1, 2]]))


def test_nullspace():
    mat = M([[1, 2, 3]])
    basis = linalg.left_kernel(S(M([[1], [2], [3]])), 1)
    assert len(basis) == 2
    for v in basis:
        assert sum(c * mat[0][j] for j, c in v.items()) == 0


def test_left_kernel():
    # explicit zeros and int entries are read as the sparse row they mean
    ker = linalg.left_kernel(S(M([[1, 0], [2, 0], [0, 1]])), 2)
    assert ker == [{0: F(1), 1: Fraction(-1, 2)}]
    assert linalg.left_kernel([{0: 1, 1: 0}, {0: 2}, {1: F(1)}], 2) == ker


def test_left_kernel_empty_and_degenerate():
    assert linalg.left_kernel([], 3) == []
    full = linalg.left_kernel([{}, {}], 0)
    assert full == eye(2)


def test_express_in_rows():
    ech = linalg.Echelon(S(M([[1, 0, 1], [0, 1, 1]])), 3)
    assert ech.solve({0: F(2), 1: F(3), 2: F(5)}) == {0: F(2), 1: F(3)}
    assert ech.solve({2: F(1)}) is None
    empty = linalg.Echelon([], 1)
    assert empty.solve({}) == {}
    assert empty.solve({0: F(1)}) is None


def test_inverse():
    mat = M([[1, 2], [3, 5]])
    inv = linalg.inverse(mat)
    assert inv == M([[-5, 2], [3, -1]])
    assert linalg.matmul(S(mat), S(inv)) == eye(2)
    # dense in, dense out: int entries are read, every entry is indexable
    assert linalg.inverse([[1, 0], [0, 2]]) == M([[1, 0], [0, Fraction(1, 2)]])
    assert linalg.inverse(M([[1, 2], [2, 4]])) is None
    assert linalg.inverse([]) == []


def _schoolbook(a, b, ncols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), F(0))
             for j in range(ncols)] for row in a]


def test_matmul_empty_dimensions():
    assert linalg.matmul([], S(M([[1]]))) == []
    assert linalg.matmul([{}], []) == [{}]
    assert linalg.matmul([{}, {}], S(M([[1, 2]]))) == [{}, {}]
    # (1, -1) against two equal rows cancels to the zero row
    assert linalg.matmul([{0: F(1), 1: F(-1)}],
                         S(M([[1, 2], [1, 2]]))) == [{}]
    rng = random.Random(11)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    for _ in range(60):
        r, n, c = (rng.randint(0, 4) for _ in range(3))
        a = [[F(rng.choice(values)) for _ in range(n)] for _ in range(r)]
        b = [[F(rng.choice(values)) for _ in range(c)] for _ in range(n)]
        if n >= 2 and r:
            # a row of a that cancels against two equal rows of b
            b[1] = list(b[0])
            a[0] = [F(1), F(-1)] + [F(0)] * (n - 2)
        prod = linalg.matmul(S(a), S(b))
        assert [linalg.dense(row, c) for row in prod] == _schoolbook(a, b, c)
        assert all(x for row in prod for x in row.values())


def test_echelon_residual():
    ech = linalg.Echelon(S(M([[1, 0, 2], [0, 1, 3]])), 3)
    assert ech.residual({0: F(2), 1: F(1), 2: F(7)}) == {}
    assert ech.residual({2: F(1)}) == {2: F(1)}


def test_random_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(mat)
        if inv is None:
            assert linalg.rank(S(mat), n) < n
        else:
            assert linalg.matmul(S(mat), S(inv)) == eye(n)
            assert linalg.matmul(S(inv), S(mat)) == eye(n)
            assert S(inv) == linalg.Echelon(S(mat), n).sparse_combos


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
    smat = S(mat)
    ech = linalg.Echelon(smat, ncols)
    rows, pivots = oracle.rref(mat, ncols)
    assert (ech.sparse_rows, ech.pivots) == (S(rows), pivots)
    assert linalg.matmul(ech.sparse_combos, smat) == ech.sparse_rows
    assert ech.sparse_kernel == S(oracle.kernel_rows(mat, ncols))
    assert not any(linalg.matmul(ech.sparse_kernel, smat))
    assert len(ech.pivots) + len(ech.sparse_kernel) == m
    inside = linalg.dense(
        linalg.matmul([linalg.sparse(coeffs)], smat)[0], ncols)
    for target in (inside, [F(0)] * ncols, [F(1)] * ncols):
        sol = ech.solve(linalg.sparse(target))
        in_span = linalg.rank(smat + [linalg.sparse(target)], ncols) == \
            len(ech.pivots)
        assert (sol is not None) == in_span
        if sol is not None:
            assert linalg.dense(linalg.matmul([sol], smat)[0],
                                ncols) == target
            assert not ech.residual(linalg.sparse(target))
    assert ech.solve(linalg.sparse(inside)) is not None
    k = min(m, ncols)
    square = [row[:k] for row in mat[:k]]
    inv = linalg.inverse(square)
    assert (inv is None) == (linalg.rank(S(square), k) < k)
    if inv is not None:
        assert linalg.matmul(S(inv), S(square)) == eye(k)


_rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def _mixed_matrices(draw):
    """Dense rational matrices with int and Fraction entries as drawn (not
    coerced), repeated and zero rows, empty shapes included;
    with a pivot width ncols <= width and two vectors of that width."""
    width = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))

    def entry():
        return draw(_rationals) if draw(st.floats(0, 1)) < density else 0

    rows = [[entry() for _ in range(width)]
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    [draw(st.sampled_from([0, F(0)])) for _ in range(width)])
    ncols = draw(st.integers(0, width))
    coeffs = [draw(_rationals) for _ in rows]
    inside = [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0))
              for j in range(width)]
    return rows, width, ncols, [inside, [entry() for _ in range(width)]]


def _dense_residual(ech, vec):
    v = [F(x) for x in vec]
    for row, p in zip(ech.sparse_rows, ech.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, linalg.dense(row, len(v)))]
    return v


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_mixed_matrices())
def test_sparse_kernel_matches_oracle(data):
    mat, width, ncols, vecs = data
    # the matrix and vectors as sparse dicts, entries as drawn; every
    # other one keeps its explicit zeros
    smat = [{j: x for j, x in enumerate(row) if x or i % 2}
            for i, row in enumerate(mat)]
    svecs = [{j: x for j, x in enumerate(v) if x or i % 2}
             for i, v in enumerate(vecs)]
    sparse_snapshot = [dict(row) for row in smat + svecs]

    rows, pivots = linalg.rref(smat, width)
    assert ([linalg.dense(r, width) for r in rows], pivots) == \
        oracle.rref(mat, width)
    assert all(type(x) is Fraction and x for row in rows
               for x in row.values())
    assert all(out is not row for out in rows for row in smat)
    part, part_pivots = linalg.rref(smat, ncols)
    o_part, o_pivots = oracle.rref(mat, ncols)
    assert part_pivots == o_pivots
    assert [linalg.dense(r, width)[:ncols] for r in part] == \
        [r[:ncols] for r in o_part]

    ech = linalg.Echelon(smat, width)
    assert (ech.sparse_rows, ech.pivots) == (rows, pivots)
    assert ech.sparse_kernel == S(oracle.kernel_rows(mat, width))
    assert linalg.left_kernel(smat, width) == ech.sparse_kernel
    for vec, svec in zip(vecs, svecs):
        res = _dense_residual(ech, vec)
        assert ech.residual(svec) == linalg.sparse(res)
        expected = None if any(res) else linalg.sparse([
            sum((F(vec[p]) * combo.get(j, 0) for combo, p in
                 zip(ech.sparse_combos, ech.pivots)), F(0))
            for j in range(len(mat))])
        assert ech.solve(svec) == expected
    assert ech.solve(svecs[0]) is not None
    assert smat + svecs == sparse_snapshot


def test_inputs_are_not_mutated_or_aliased():
    mat = [{1: 2, 2: Fraction(1, 2)}, {0: F(0), 2: 3},
           {0: 0, 1: 2, 2: Fraction(1, 2)}]
    vec = {0: 1, 1: 0, 2: F(3)}
    before = [dict(row) for row in mat], dict(vec)
    rows, _ = linalg.rref(mat, 3)
    ech = linalg.Echelon(mat, 3)
    ech.residual(vec)
    ech.solve(vec)
    assert ([dict(row) for row in mat], dict(vec)) == before
    assert [type(x) for x in mat[0].values()] == [int, Fraction]
    for out in ech.sparse_rows + ech.sparse_combos + ech.sparse_kernel:
        assert all(out is not row for row in mat)
    for out in rows:
        assert all(out is not row for row in mat)
        out.update((j, F(7)) for j in out)
    assert ([dict(row) for row in mat], dict(vec)) == before
    assert ech.residual({1: 2, 2: Fraction(1, 2)}) == {}
