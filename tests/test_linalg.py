import random
from fractions import Fraction

import pytest
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
    at, off = linalg.pivot_index(S(M([[1, 0, 1], [0, 1, 1]])))
    assert (at, off) == ({0: 0, 1: 1}, {0: {2: F(1)}, 1: {2: F(1)}})
    assert linalg.reduce({0: F(2), 1: F(3), 2: F(5)}, at, off) == \
        ({0: F(2), 1: F(3)}, {})
    assert linalg.reduce({2: F(1)}, at, off) == ({}, {2: F(1)})
    empty = linalg.pivot_index([])
    assert linalg.reduce({}, *empty) == ({}, {})
    assert linalg.reduce({0: F(1)}, *empty) == ({}, {0: F(1)})


@pytest.mark.parametrize("rows", [
    [{}],                                  # a zero row
    [{1: F(1)}, {0: F(1)}],                # pivots decrease
    [{0: F(1)}, {0: F(1), 1: F(1)}],       # a repeated pivot
    [{0: F(2), 1: F(1)}],                  # a pivot entry other than 1
    [{0: F(1), 1: F(1)}, {1: F(1)}],       # an entry at a later pivot
], ids=["zero", "decreasing", "repeated", "unit", "pivot_column"])
def test_pivot_index_rejects_rows_not_in_rref(rows):
    with pytest.raises(ValueError):
        linalg.pivot_index(rows)


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
    index = linalg.pivot_index(S(M([[1, 0, 2], [0, 1, 3]])))
    assert linalg.reduce({0: F(2), 1: F(1), 2: F(7)}, *index)[1] == {}
    assert linalg.reduce({0: F(1), 2: F(1)}, *index)[1] == {2: F(-1)}
    assert linalg.reduce({2: F(1)}, *index)[1] == {2: F(1)}


def test_echelon_is_one_rref(monkeypatch):
    calls = []
    rref = linalg.rref

    def counting(rows, ncols):
        calls.append((len(rows), ncols))
        return rref(rows, ncols)

    monkeypatch.setattr(linalg, "rref", counting)
    ech = linalg.Echelon(S(M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])), 3)
    assert calls == [(3, 6)]
    assert ech.pivots == [0, 1] and len(ech.sparse_kernel) == 1


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
    # the RREF rows are their own factorization
    index = linalg.pivot_index(ech.sparse_rows)
    inside = linalg.dense(
        linalg.matmul([linalg.sparse(coeffs)], smat)[0], ncols)
    for target in (inside, [F(0)] * ncols, [F(1)] * ncols):
        coords, residual = linalg.reduce(linalg.sparse(target), *index)
        in_span = linalg.rank(smat + [linalg.sparse(target)], ncols) == \
            len(ech.pivots)
        assert (not residual) == in_span
        combo = oracle.solve_combo(rows, target)
        assert (combo is not None) == in_span
        if in_span:
            assert linalg.dense(coords, len(rows)) == combo
            assert linalg.dense(linalg.matmul([coords], ech.sparse_rows)[0],
                                ncols) == target
    assert not linalg.reduce(linalg.sparse(inside), *index)[1]
    k = min(m, ncols)
    square = [row[:k] for row in mat[:k]]
    inv = linalg.inverse(square)
    assert (inv is None) == (linalg.rank(S(square), k) < k)
    if inv is not None:
        assert linalg.matmul(S(inv), S(square)) == eye(k)


_rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    # large numerators over large denominators, coprime or sharing the
    # factors 2, 3 and 5 with the other entries of their row
    st.builds(Fraction, st.integers(-10**12, 10**12),
              st.one_of(st.integers(1, 10**6),
                        st.builds(lambda a, b, c: 2**a * 3**b * 5**c,
                                  st.integers(0, 6), st.integers(0, 4),
                                  st.integers(0, 3)))))


@st.composite
def _mixed_matrices(draw):
    """Dense rational matrices with int and Fraction entries as drawn (not
    coerced), repeated and zero rows, empty shapes included;
    with a pivot width ncols <= width, two vectors of that width and a
    permutation of the rows."""
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
    perm = draw(st.permutations(range(len(rows))))
    return rows, width, ncols, [inside, [entry() for _ in range(width)]], perm


def _dense_residual(ech, vec):
    v = [F(x) for x in vec]
    for row, p in zip(ech.sparse_rows, ech.pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, linalg.dense(row, len(v)))]
    return v


def _typed(rows):
    """Rows with the type of each entry, so that a change of type shows."""
    return [[(j, type(x), x) for j, x in row.items()] for row in rows]


def _nonzero_fractions(rows):
    return all(type(x) is Fraction and x for row in rows
               for x in row.values())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_mixed_matrices())
def test_sparse_kernel_matches_oracle(data):
    mat, width, ncols, vecs, perm = data
    # the matrix and vectors as sparse dicts, entries as drawn; every
    # other one keeps its explicit zeros
    smat = [{j: x for j, x in enumerate(row) if x or i % 2}
            for i, row in enumerate(mat)]
    svecs = [{j: x for j, x in enumerate(v) if x or i % 2}
             for i, v in enumerate(vecs)]
    snapshot = _typed(smat + svecs)

    rows, pivots = linalg.rref(smat, width)
    assert ([linalg.dense(r, width) for r in rows], pivots) == \
        oracle.rref(mat, width)
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
    index = linalg.pivot_index(rows)
    dense_rows = [linalg.dense(r, width) for r in rows]
    answers = []
    for vec in vecs:
        fvec = linalg.sparse(vec)
        before = dict(fvec)
        coords, residual = linalg.reduce(fvec, *index)
        assert fvec == before
        res = _dense_residual(ech, vec)
        assert residual == linalg.sparse(res)
        assert coords == {i: fvec[p] for i, p in enumerate(pivots)
                          if p in fvec}
        combo = oracle.solve_combo(dense_rows, [F(x) for x in vec])
        assert (combo is None) == any(res)
        if combo is not None:
            assert linalg.dense(coords, len(rows)) == combo
        answers += [coords, residual]
    assert not linalg.reduce(linalg.sparse(vecs[0]), *index)[1]
    assert _nonzero_fractions(rows + part + ech.sparse_rows + ech.sparse_combos
                              + ech.sparse_kernel + answers)

    # the pivot order is free: permuted rows give the same canonical results
    permuted = [smat[i] for i in perm]
    assert linalg.rref(permuted, width) == (rows, pivots)
    p_part, p_pivots = linalg.rref(permuted, ncols)
    assert p_pivots == part_pivots
    assert [{j: x for j, x in r.items() if j < ncols} for r in p_part] == \
        [{j: x for j, x in r.items() if j < ncols} for r in part]
    pech = linalg.Echelon(permuted, width)
    assert (pech.sparse_rows, pech.pivots) == (rows, pivots)
    assert linalg.matmul(pech.sparse_combos, S([mat[i] for i in perm])) == rows
    # a kernel vector of the permuted rows, read back in the original order
    assert linalg.row_space([{perm[k]: x for k, x in v.items()}
                             for v in pech.sparse_kernel], len(mat)) == \
        ech.sparse_kernel
    assert _nonzero_fractions(p_part + pech.sparse_combos
                              + pech.sparse_kernel)
    assert _typed(smat + svecs) == snapshot


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_mixed_matrices())
def test_column_index_matches_the_rows_after_every_step(data):
    mat, width, ncols = data[:3]
    step = linalg._pivot_step
    steps = []

    def checked(rows, holders, p, c, index_width):
        step(rows, holders, p, c, index_width)
        held: dict = {}
        for i, row in enumerate(rows):
            for j in row:
                if j < index_width:
                    held.setdefault(j, set()).add(i)
        assert {j: set(ids) for j, ids in holders.items() if ids} == held
        steps.append(c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_pivot_step", checked)
        _, pivots = linalg.rref(S(mat), ncols)
        assert steps == pivots
        linalg.Echelon(S(mat), width)
    # [mat | I] has a pivot in every row
    assert len(steps) == len(pivots) + len(mat)


def test_inputs_are_not_mutated_or_aliased():
    mat = [{1: 2, 2: Fraction(1, 2)}, {0: F(0), 2: 3},
           {0: 0, 1: 2, 2: Fraction(1, 2)}]
    before = [dict(row) for row in mat]
    rows, _ = linalg.rref(mat, 3)
    ech = linalg.Echelon(mat, 3)
    assert [dict(row) for row in mat] == before
    assert [type(x) for x in mat[0].values()] == [int, Fraction]
    for out in ech.sparse_rows + ech.sparse_combos + ech.sparse_kernel:
        assert all(out is not row for row in mat)
    for out in rows:
        assert all(out is not row for row in mat)
        out.update((j, F(7)) for j in out)
    assert [dict(row) for row in mat] == before
    # pivot_index and reduce keep neither the rows nor the vector
    basis = [{0: F(1), 2: F(2)}, {1: F(1), 2: F(-3)}]
    vec = {0: F(1), 1: F(2), 2: F(5)}
    before = [dict(row) for row in basis], dict(vec)
    at, off = linalg.pivot_index(basis)
    coords, residual = linalg.reduce(vec, at, off)
    assert (coords, residual) == ({0: F(1), 1: F(2)}, {2: F(9)})
    assert ([dict(row) for row in basis], dict(vec)) == before
    for row in basis:
        row.update((j, F(7)) for j in row)
    assert linalg.reduce(vec, at, off) == (coords, residual)
    assert residual is not vec and vec == before[1]
