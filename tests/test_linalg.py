import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

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
    rows, pivots = linalg.rref(S(M([[2, 4, 0], [1, 2, 1]])))
    assert pivots == [0, 2]
    assert rows == S(M([[1, 2, 0], [0, 0, 1]]))


def test_rref_is_pivot_strategy_independent():
    mat = S(M([[3, 1, 0], [6, 2, 1], [0, 0, 5]]))
    a = linalg.rref(mat)[0]
    b = linalg.rref(list(reversed(mat)))[0]
    assert a == b


def test_rank_and_row_space():
    mat = S(M([[1, 2], [2, 4], [0, 1]]))
    assert linalg.rank(mat) == 2
    assert linalg.row_space(S(M([[2, 4]]))) == S(M([[1, 2]]))


def test_nullspace():
    mat = M([[1, 2, 3]])
    basis = linalg.left_kernel(S(M([[1], [2], [3]])))
    assert len(basis) == 2
    for v in basis:
        assert sum(c * mat[0][j] for j, c in v.items()) == 0


def test_left_kernel():
    # explicit zeros and int entries are read as the sparse row they mean
    ker = linalg.left_kernel(S(M([[1, 0], [2, 0], [0, 1]])))
    assert ker == [{0: F(1), 1: Fraction(-1, 2)}]
    assert linalg.left_kernel([{0: 1, 1: 0}, {0: 2}, {1: F(1)}]) == ker


def test_left_kernel_empty_and_degenerate():
    assert linalg.left_kernel([]) == []
    full = linalg.left_kernel([{}, {}])
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


@pytest.mark.parametrize("call, mat", [
    (linalg.inverse, [[1, 2]]),              # 1 x 2: once read as [[1]]
    (linalg.inverse, [[1], [2]]),            # 2 x 1
    (linalg.inverse, [[1, 0], [0]]),         # a short row
    (linalg.sparse_inverse, [{0: 1, 1: 2}]),  # a key at the row count
    (linalg.sparse_inverse, [{0: 1}, {3: 1}]),  # a key above it
], ids=["1x2", "2x1", "ragged", "sparse-key-at-m", "sparse-key-above-m"])
def test_inverse_refuses_a_matrix_that_is_not_square(call, mat):
    with pytest.raises(ValueError):
        call(mat)


def test_floats_are_refused_at_the_edge():
    # 0.1 is a binary fraction: read as one, it would invert to
    # 36028797018963968/3602879701896397, not to 10
    with pytest.raises(TypeError, match="float"):
        linalg.inverse([[0.1]])
    with pytest.raises(TypeError, match="float"):
        linalg.sparse([1, 0.5])
    with pytest.raises(TypeError, match="float"):
        linalg.sparse([0, 0.0])
    row = linalg.sparse([0, F(0), 2, Fraction(4, 2)])
    assert row == {2: 2, 3: 2} and _nonzero_scalars([row])
    assert linalg.inverse([[Fraction(1, 10)]]) == [[10]]


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
    # a row that picks one row of b gets a copy of it
    b = S(M([[1, 2]]))
    prod = linalg.matmul([{0: 1}], b)
    assert prod == b and prod[0] is not b[0]
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
        # an int where the value is integral, and no zero entry left
        assert _nonzero_scalars(prod)


def test_echelon_residual():
    index = linalg.pivot_index(S(M([[1, 0, 2], [0, 1, 3]])))
    assert linalg.reduce({0: F(2), 1: F(1), 2: F(7)}, *index)[1] == {}
    assert linalg.reduce({0: F(1), 2: F(1)}, *index)[1] == {2: F(-1)}
    assert linalg.reduce({2: F(1)}, *index)[1] == {2: F(1)}


def test_echelon_is_one_rref(monkeypatch):
    """The inverse is one elimination of [M | I]: singular or not."""
    calls = []
    rref = linalg.rref

    def counting(rows):
        calls.append(sorted({j for row in rows for j in row}))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    assert linalg.sparse_inverse(S(M([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))) \
        is None
    assert linalg.sparse_inverse(S(M([[1, 2], [3, 5]]))) == \
        S(M([[-5, 2], [3, -1]]))
    assert calls == [list(range(6)), list(range(4))]


def test_random_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(mat)
        if inv is None:
            assert linalg.rank(S(mat)) < n
        else:
            assert linalg.matmul(S(mat), S(inv)) == eye(n)
            assert linalg.matmul(S(inv), S(mat)) == eye(n)
            assert S(inv) == linalg.sparse_inverse(S(mat))


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                           Fraction(5, 3)])


@st.composite
def _matrices(draw):
    """Rational matrices with repeated, combined and zero rows mixed in;
    empty ones included."""
    width = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_entries, min_size=width, max_size=width),
                         max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = draw(_entries)
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * width)
    mat = [[F(x) for x in row] for row in rows]
    return mat, width, draw(st.lists(_entries, min_size=len(mat),
                                     max_size=len(mat)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_matrices())
def test_echelon_factorization(data):
    mat, width, coeffs = data
    m = len(mat)
    smat = S(mat)
    red, pivots = linalg.rref(smat)
    rows, o_pivots = oracle.rref(mat, width)
    assert (red, pivots) == (S(rows), o_pivots)
    kernel, rank = linalg.kernel_and_rank(smat)
    assert kernel == S(oracle.kernel_rows(mat, width))
    assert not any(linalg.matmul(kernel, smat))
    assert rank + len(kernel) == m and rank == len(pivots)
    # the RREF rows are their own factorization
    index = linalg.pivot_index(red)
    inside = linalg.dense(
        linalg.matmul([linalg.sparse(coeffs)], smat)[0], width)
    for target in (inside, [F(0)] * width, [F(1)] * width):
        coords, residual = linalg.reduce(linalg.sparse(target), *index)
        in_span = linalg.rank(smat + [linalg.sparse(target)]) == rank
        assert (not residual) == in_span
        combo = oracle.solve_combo(rows, target)
        assert (combo is not None) == in_span
        if in_span:
            assert linalg.dense(coords, len(rows)) == combo
            assert linalg.dense(linalg.matmul([coords], red)[0],
                                width) == target
    assert not linalg.reduce(linalg.sparse(inside), *index)[1]
    k = min(m, width)
    square = [row[:k] for row in mat[:k]]
    inv = linalg.inverse(square)
    assert (inv is None) == (linalg.rank(S(square)) < k)
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
    coerced), repeated and zero rows, empty shapes included; with their
    width, two vectors of that width and a permutation of the rows."""
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
    coeffs = [draw(_rationals) for _ in rows]
    inside = [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0))
              for j in range(width)]
    perm = draw(st.permutations(range(len(rows))))
    return rows, width, [inside, [entry() for _ in range(width)]], perm


def _dense_residual(rows, pivots, vec):
    v = [F(x) for x in vec]
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, linalg.dense(row, len(v)))]
    return v


def _typed(rows):
    """Rows with the type of each entry, so that a change of type shows."""
    return [[(j, type(x), x) for j, x in row.items()] for row in rows]


def _nonzero_scalars(rows):
    """Whether every entry is nonzero and stored by the scalar rule: an int
    when integral, a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) and x
               for row in rows for x in row.values())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_mixed_matrices())
# an empty matrix, zero matrices, repeated rows, entries in the last column
@example(data=([], 3, [[0, 0, 0], [1, 0, Fraction(1, 2)]], []))
@example(data=([[0, 0, 0], [F(0), 0, 0]], 3, [[0, 0, 0], [0, 2, 0]],
               [1, 0]))
@example(data=([[], []], 0, [[], []], [1, 0]))
@example(data=([[1, Fraction(1, 2), 0], [1, Fraction(1, 2), 0], [0, 3, 0],
                [1, Fraction(1, 2), 0]], 3, [[2, 1, 0], [0, 0, 1]],
               [2, 0, 3, 1]))
@example(data=([[0, 0, 5], [1, 0, 0], [0, 0, Fraction(-1, 3)], [2, 0, 7]],
               3, [[1, 0, 5], [0, 1, 0]], [3, 1, 0, 2]))
def test_sparse_kernel_matches_oracle(data):
    mat, width, vecs, perm = data
    # the matrix and vectors as sparse dicts, entries as drawn; every
    # other one keeps its explicit zeros
    smat = [{j: x for j, x in enumerate(row) if x or i % 2}
            for i, row in enumerate(mat)]
    svecs = [{j: x for j, x in enumerate(v) if x or i % 2}
             for i, v in enumerate(vecs)]
    snapshot = _typed(smat + svecs)

    rows, pivots = linalg.rref(smat)
    assert ([linalg.dense(r, width) for r in rows], pivots) == \
        oracle.rref(mat, width)
    assert all(out is not row for out in rows for row in smat)
    # the left kernel and the rank from one transposed elimination
    kernel, rank = linalg.kernel_and_rank(smat)
    assert kernel == S(oracle.kernel_rows(mat, width))
    assert kernel == linalg.left_kernel(smat)
    assert rank == linalg.rank(smat) == len(pivots)
    index = linalg.pivot_index(rows)
    dense_rows = [linalg.dense(r, width) for r in rows]
    answers = []
    for vec in vecs:
        fvec = linalg.sparse(vec)
        before = dict(fvec)
        coords, residual = linalg.reduce(fvec, *index)
        assert fvec == before
        res = _dense_residual(rows, pivots, vec)
        assert residual == linalg.sparse(res)
        assert coords == {i: fvec[p] for i, p in enumerate(pivots)
                          if p in fvec}
        combo = oracle.solve_combo(dense_rows, [F(x) for x in vec])
        assert (combo is None) == any(res)
        if combo is not None:
            assert linalg.dense(coords, len(rows)) == combo
        answers += [coords, residual]
    assert not linalg.reduce(linalg.sparse(vecs[0]), *index)[1]
    assert _nonzero_scalars(rows + kernel + answers)

    # the pivot order is free: permuted rows give the same canonical results
    permuted = [smat[i] for i in perm]
    assert linalg.rref(permuted) == (rows, pivots)
    p_kernel, p_rank = linalg.kernel_and_rank(permuted)
    assert p_rank == rank
    assert p_kernel == S(oracle.kernel_rows([mat[i] for i in perm], width))
    # a kernel vector of the permuted rows, read back in the original order
    assert linalg.row_space([{perm[k]: x for k, x in v.items()}
                             for v in p_kernel]) == kernel
    assert _nonzero_scalars(p_kernel)
    assert _typed(smat + svecs) == snapshot


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_mixed_matrices(),
       gaps=st.lists(st.integers(1, 2**20), min_size=7, max_size=7))
# the offsets j 2^16 of _condition_rows at 16 generators, and a wider one
@example(data=([[1, 0, 2], [0, 3, 0], [2, 3, 4]], 3, [[], []], [0, 1, 2]),
         gaps=[2**16] * 7)
@example(data=([[0, Fraction(1, 2)], [1, 1]], 2, [[], []], [1, 0]),
         gaps=[1, 5 * 2**16 + 3] + [1] * 5)
def test_far_apart_columns_match_the_compacted_oracle(data, gaps):
    """Columns keyed as _condition_rows keys them, far apart and above
    2^16: the eliminations give the oracle's answers on the same matrix
    with its columns compacted, the columns mapped back."""
    mat, width = data[:2]
    keys = list(accumulate(gaps[:width], initial=2**16))[1:]
    spread = [{keys[j]: x for j, x in enumerate(row) if x} for row in mat]
    rows, pivots = linalg.rref(spread)
    o_rows, o_pivots = oracle.rref(mat, width)
    assert pivots == [keys[p] for p in o_pivots]
    assert rows == [{keys[j]: x for j, x in linalg.sparse(r).items()}
                    for r in o_rows]
    kernel, rank = linalg.kernel_and_rank(spread)
    assert kernel == linalg.left_kernel(spread) == \
        S(oracle.kernel_rows(mat, width))
    assert rank == len(o_pivots)
    assert _nonzero_scalars(rows + kernel)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_mixed_matrices())
def test_column_index_matches_the_rows_after_every_step(data):
    mat, width = data[:2]
    step = linalg._pivot_step
    steps = []

    def checked(rows, holders, p, c, others):
        # a forward step clears rows that hold nothing left of c, a back
        # step pivot rows whose pivots lie left of c; no step is idle
        assert others and p not in others
        back = {min(rows[i]) < c for i in others}
        assert len(back) == 1
        step(rows, holders, p, c, others)
        held: dict = {}
        for i, row in enumerate(rows):
            for j in row:
                held.setdefault(j, set()).add(i)
        assert {j: set(ids) for j, ids in holders.items() if ids} == held
        steps.append((back.pop(), c))

    def check_order(pivots):
        forward = [c for back, c in steps if not back]
        backward = [c for back, c in steps if back]
        assert steps == [(False, c) for c in forward] + \
            [(True, c) for c in backward]
        assert forward == sorted(set(forward))
        assert backward == sorted(set(backward), reverse=True)
        assert set(forward + backward) <= set(pivots)
        steps.clear()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_pivot_step", checked)
        check_order(linalg.rref(S(mat))[1])
        # [mat | I], the elimination of sparse_inverse, has a pivot in
        # every row
        augmented = [{**row, width + i: 1} for i, row in enumerate(S(mat))]
        pivots = linalg.rref(augmented)[1]
        assert len(pivots) == len(mat)
        check_order(pivots)


_shortcut_entries = st.sampled_from([1, -1, 3, -2, F(1), F(-4),
                                     Fraction(2, 3), Fraction(-5, 6),
                                     Fraction(7, 4)])


@st.composite
def _shortcut_matrices(draw):
    """Sparse rows of the shapes rref treats apart, entries as drawn:
    empty rows, one-entry rows (negative, int, Fraction or an explicit
    zero), all-integer rows, rows with mixed denominators, duplicated and
    negated rows and a column held by one row; with the width."""
    width = draw(st.integers(1, 6))
    columns = st.integers(0, width - 1)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["empty", "one", "integer", "mixed",
                                     "copy"]))
        if kind == "empty":
            rows.append({})
        elif kind == "one":
            rows.append({draw(columns): draw(st.one_of(
                _shortcut_entries, st.sampled_from([0, F(0)])))})
        elif kind == "integer":
            rows.append(draw(st.dictionaries(columns, st.one_of(
                st.integers(-6, 6), st.integers(-6, 6).map(F)))))
        elif kind == "mixed":
            rows.append(draw(st.dictionaries(columns, _shortcut_entries)))
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(dict(row) if draw(st.booleans()) else
                        {j: -x for j, x in row.items()})
    if rows and draw(st.booleans()):
        # column c is held by row r alone
        c, r = draw(columns), draw(st.integers(0, len(rows) - 1))
        for row in rows:
            row.pop(c, None)
        rows[r][c] = draw(_shortcut_entries)
    return rows, width


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_shortcut_matrices())
def test_rref_shortcuts_match_oracle(data):
    smat, width = data
    snapshot = _typed(smat)
    mat = [[F(row.get(j, 0)) for j in range(width)] for row in smat]
    rows, pivots = linalg.rref(smat)
    assert ([linalg.dense(r, width) for r in rows], pivots) == \
        oracle.rref(mat, width)
    kernel = linalg.left_kernel(smat)
    assert kernel == S(oracle.kernel_rows(mat, width))
    assert _nonzero_scalars(rows + kernel)
    # an all-zero block of the same rows: every row is in the kernel
    zeros = [{j: 0 * x for j, x in row.items()} for row in smat]
    assert linalg.rref(zeros) == ([], [])
    assert linalg.left_kernel(zeros) == eye(len(smat))
    assert _typed(smat) == snapshot


def test_inputs_are_not_mutated_or_aliased():
    mat = [{1: 2, 2: Fraction(1, 2)}, {0: F(0), 2: 3},
           {0: 0, 1: 2, 2: Fraction(1, 2)}]
    before = [dict(row) for row in mat]
    rows, _ = linalg.rref(mat)
    kernel = linalg.left_kernel(mat)
    assert linalg.sparse_inverse(mat) is None  # rows 0 and 2 agree
    assert [dict(row) for row in mat] == before
    assert [type(x) for x in mat[0].values()] == [int, Fraction]
    for out in kernel:
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
