"""Exact linear algebra over the rationals.

Sparse inside, dense at the API.  Inside the package a vector is a dict
{column: nonzero Fraction} and a matrix a list of such rows; `sparse`,
`dense` and `add_scaled` convert and combine them, and `matmul` is the
one product.  Dense rows are accepted only where a caller may hold them:
rref, rank and row_space take either kind and answer in the kind given,
as do Echelon.residual, Echelon.solve and inverse; left_kernel always
answers sparse.  Linear maps act on coordinate row vectors from the
right: row i of a matrix is the image of the i-th basis vector, so the
matrix of f-then-g is matmul(M_f, M_g).  Reduced row echelon form is the
canonical presentation of a row space, which makes subspace comparison
an equality of lists.

`_eliminate` is the one elimination loop: it reduces fresh sparse rows
in place, touching only the support of the pivot row.  `rref` copies
dense or sparse rows into it and returns rows of the kind it was given.
`Echelon` is the one factorization built on it: the RREF of [M | I],
with the identity as one sparse entry per row.  It answers membership,
solve, left kernel and inverse with no further elimination.

Pivots are chosen by smallest numerator magnitude (then denominator, then
row order); the resulting RREF is the canonical one regardless.

The arithmetic follows the rule stated in exterior: `Fraction` is the only
scalar, and no `Fraction` operation is made whose result is already
known.  add_scaled does not multiply by 1 and negates for -1, a new entry
is stored as it is, the pivot key is computed only when a column has
more than one candidate row, and the augmented rows Echelon builds go to
_eliminate as they are, not copied again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list

# Dense rows are padded with this zero; the sparse conversion skips it by
# identity, before the slower Fraction truth test.
ZERO = Fraction(0)
_ONE = Fraction(1)


# ----- sparse vectors --------------------------------------------------------


def sparse(row: Sequence) -> dict[int, Fraction]:
    """{column: nonzero Fraction} of a dense row; Fraction entries are kept
    as they are, others are coerced."""
    return {j: x if type(x) is Fraction else Fraction(x)
            for j, x in enumerate(row) if x is not ZERO and x}


def dense(row: dict[int, Fraction], width: int) -> list[Fraction]:
    out = [ZERO] * width
    for j, x in row.items():
        out[j] = x
    return out


def add_scaled(acc: dict, f: Fraction, other: dict) -> None:
    """acc += f * other, in place, dropping entries that become zero; the
    keys are columns or any other index."""
    if f == 1:
        items = other.items()
    elif f == -1:
        items = ((j, -x) for j, x in other.items())
    else:
        items = ((j, f * x) for j, x in other.items())
    for j, x in items:
        y = acc.get(j)
        if y is None:
            acc[j] = x
        else:
            y += x
            if y:
                acc[j] = y
            else:
                del acc[j]


def _fresh(row: dict) -> dict[int, Fraction]:
    """Copy of a sparse row without zero entries, non-Fractions coerced."""
    return {j: x if type(x) is Fraction else Fraction(x)
            for j, x in row.items() if x}


def _is_sparse(mat: Matrix) -> bool:
    return bool(mat) and isinstance(mat[0], dict)


def _sparse_rows(mat: Matrix) -> list[dict[int, Fraction]]:
    """Fresh sparse copies of the rows of mat, dense or sparse."""
    if _is_sparse(mat):
        return [_fresh(row) for row in mat]
    return [sparse(row) for row in mat]


# ----- products --------------------------------------------------------------


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product of sparse matrices: row i is sum_k a[i][k] b[k], without the
    entries that cancel; b may be empty when a has no entries."""
    out = []
    for row in a:
        acc: dict[int, Fraction] = {}
        for k, x in row.items():
            if x:
                add_scaled(acc, x, b[k])
        out.append(acc)
    return out


# ----- elimination -----------------------------------------------------------


def rref(mat: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Rows are dense sequences or sparse dicts {column: value}, and the
    result rows are of the same kind (dense ones as wide as the input).
    Row operations apply to full rows, so callers may pass augmented rows
    and restrict pivoting to the first `ncols` columns.
    """
    rows = _sparse_rows(mat)
    pivots = _eliminate(rows, ncols)
    r = len(pivots)
    if _is_sparse(mat):
        return rows[:r], pivots
    width = len(mat[0]) if mat else 0
    return [dense(row, width) for row in rows[:r]], pivots


def _eliminate(rows: list[dict[int, Fraction]], ncols: int) -> list[int]:
    """Reduce fresh sparse rows to RREF in place, the nonzero rows first;
    returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    m = len(rows)
    for c in range(ncols):
        if r == m:
            break
        found = [i for i in range(r, m) if c in rows[i]]
        if not found:
            continue
        i = found[0] if len(found) == 1 else \
            min(found, key=lambda i: (abs(rows[i][c].numerator),
                                      rows[i][c].denominator, i))
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        inv = _ONE / prow[c]
        if inv != 1:
            prow = rows[r] = {j: x * inv for j, x in prow.items()}
        # the other rows holding column c; the swap moved row r to i
        for j in [j for j in range(r) if c in rows[j]] + \
                [i if j == r else j for j in found if j != i]:
            row = rows[j]
            add_scaled(row, -row[c], prow)
        pivots.append(c)
        r += 1
    return pivots


def rank(mat: Matrix, ncols: int) -> int:
    return len(rref(mat, ncols)[1])


def row_space(mat: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of the span of the rows."""
    return rref(mat, ncols)[0]


class Echelon:
    """One factorization of a matrix: the RREF of [mat | I].

    mat has dense rows of width ncols or sparse rows with columns below
    ncols.  sparse_rows and pivots are the canonical RREF of mat;
    sparse_combos[i] . mat = sparse_rows[i]; sparse_kernel is the
    canonical RREF basis of the left kernel of mat (the identity block of
    the rows whose pivot lies past ncols); all three are sparse.  residual
    and solve take a dense or a sparse vector and answer in the same kind.
    """

    def __init__(self, mat: Matrix, ncols: int):
        red = _sparse_rows(mat)
        m = len(red)
        for i, row in enumerate(red):
            row[ncols + i] = _ONE
        pivots = _eliminate(red, ncols + m)
        r = sum(1 for p in pivots if p < ncols)
        self.pivots = pivots[:r]
        self.sparse_rows = [{j: x for j, x in row.items() if j < ncols}
                            for row in red[:r]]
        self.sparse_combos = [{j - ncols: x for j, x in row.items()
                               if j >= ncols} for row in red[:r]]
        self.sparse_kernel = [{j - ncols: x for j, x in row.items()}
                              for row in red[r:]]
        self._nrows = m
        self._row_at = dict(zip(self.pivots, self.sparse_rows))
        self._combo_at = dict(zip(self.pivots, self.sparse_combos))

    def _residual(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        # the RREF rows vanish on each other's pivots, so the coefficient of
        # the row with pivot p is v[p], whatever the order of reduction
        out = dict(v)
        for p, c in v.items():
            row = self._row_at.get(p)
            if row is not None:
                add_scaled(out, -c, row)
        return out

    def residual(self, vec):
        """vec reduced against the rows: zero iff vec is in the row space."""
        if isinstance(vec, dict):
            return self._residual(_fresh(vec))
        return dense(self._residual(sparse(vec)), len(vec))

    def solve(self, target):
        """Coefficients c with c . mat = target, or None outside the row
        space; unique when the rows of mat are independent."""
        given_sparse = isinstance(target, dict)
        t = _fresh(target) if given_sparse else sparse(target)
        if self._residual(t):
            return None
        acc: dict[int, Fraction] = {}
        for p, c in t.items():
            combo = self._combo_at.get(p)
            if combo is not None:
                add_scaled(acc, c, combo)
        return acc if given_sparse else dense(acc, self._nrows)


def left_kernel(mat: Matrix, ncols: int) -> Matrix:
    """Canonical sparse basis of {x : x . mat = 0}; x is indexed by the
    rows of mat."""
    return Echelon(mat, ncols).sparse_kernel


def inverse(mat: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular; its rows are of
    the kind given."""
    ech = Echelon(mat, len(mat))
    if len(ech.pivots) != len(mat):
        return None
    if _is_sparse(mat):
        return ech.sparse_combos
    return [dense(row, len(mat)) for row in ech.sparse_combos]
