"""Exact linear algebra over the rationals.

At the API, matrices are dense lists of rows of `Fraction`.  Linear maps
act on coordinate row vectors from the right: row i of a matrix is the
image of the i-th basis vector, so the matrix of f-then-g is
matmul(M_f, M_g).  Reduced row echelon form is the canonical presentation
of a row space, which makes subspace comparison an equality of lists.

`rref` is the one elimination loop.  Inside, it works on sparse rows,
dicts {column: nonzero Fraction}, and touches only the support of the
pivot row; it returns dense rows.  `Echelon` is the one factorization
built on it: the RREF of [M | I], which answers membership, solve, left
kernel and inverse with no further elimination, reducing sparse copies of
its rows.

Pivots are chosen by smallest numerator magnitude (then denominator, then
row order); the resulting RREF is the canonical one regardless.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list

# Dense rows are padded with this zero; the sparse conversion skips it by
# identity, before the slower Fraction truth test.
ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(mat: Matrix, ncols: int) -> Matrix:
    return [[row[j] for row in mat] for j in range(ncols)]


def matmul(a: Matrix, b: Matrix, b_ncols: int) -> Matrix:
    """Product of a (r x n) and b (n x b_ncols); b may be empty when n = 0."""
    out = []
    for row in a:
        acc = [ZERO] * b_ncols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(b_ncols):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out


def is_zero_matrix(mat: Matrix) -> bool:
    return all(not x for row in mat for x in row)


def _sparse(row: Sequence) -> dict[int, Fraction]:
    """{column: nonzero Fraction} of a dense row; Fraction entries are kept
    as they are, others are coerced."""
    return {j: x if type(x) is Fraction else Fraction(x)
            for j, x in enumerate(row) if x is not ZERO and x}


def _dense(row: dict[int, Fraction], width: int) -> list[Fraction]:
    out = [ZERO] * width
    for j, x in row.items():
        out[j] = x
    return out


def _axpy(row: dict[int, Fraction], f: Fraction,
          other: dict[int, Fraction]) -> None:
    """row -= f * other, in place, dropping entries that become zero."""
    for j, x in other.items():
        y = row.get(j)
        if y is None:
            row[j] = -f * x
        else:
            y -= f * x
            if y:
                row[j] = y
            else:
                del row[j]


def rref(mat: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Row operations apply to full rows, so callers may pass augmented rows
    and restrict pivoting to the first `ncols` columns.
    """
    width = len(mat[0]) if mat else 0
    rows = [_sparse(row) for row in mat]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        found = [i for i in range(r, len(rows)) if c in rows[i]]
        if not found:
            continue
        i = min(found, key=lambda i: (abs(rows[i][c].numerator),
                                      rows[i][c].denominator, i))
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        inv = _ONE / prow[c]
        if inv != 1:
            prow = rows[r] = {j: x * inv for j, x in prow.items()}
        for j, row in enumerate(rows):
            if j != r:
                f = row.get(c)
                if f is not None:
                    _axpy(row, f, prow)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [_dense(row, width) for row in rows[:r]], pivots


def rank(mat: Matrix, ncols: int) -> int:
    return len(rref(mat, ncols)[1])


def row_space(mat: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of the span of the rows."""
    return rref(mat, ncols)[0]


class Echelon:
    """One factorization of a matrix: the RREF of [mat | I].

    rows and pivots are the canonical RREF of mat; combos[i] . mat =
    rows[i]; kernel is the canonical RREF basis of the left kernel of mat
    (the identity block of the rows whose pivot lies past ncols).  residual
    and solve reduce against sparse copies of rows and combos.
    """

    def __init__(self, mat: Matrix, ncols: int):
        m = len(mat)
        red, pivots = rref([list(row) + e for row, e in zip(mat, identity(m))],
                           ncols + m)
        r = sum(1 for p in pivots if p < ncols)
        self.rows = [row[:ncols] for row in red[:r]]
        self.pivots = pivots[:r]
        self.combos = [row[ncols:] for row in red[:r]]
        self.kernel = [row[ncols:] for row in red[r:]]
        self._nrows = m
        self._sparse_rows = [_sparse(row) for row in self.rows]
        self._sparse_combos = [_sparse(row) for row in self.combos]

    def _reduce(self, v: dict[int, Fraction]) -> dict[int, Fraction]:
        """Reduce the sparse vector v against the rows, in place."""
        for row, p in zip(self._sparse_rows, self.pivots):
            c = v.get(p)
            if c is not None:
                _axpy(v, c, row)
        return v

    def residual(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """vec reduced against the rows: zero iff vec is in the row space."""
        return _dense(self._reduce(_sparse(vec)), len(vec))

    def solve(self, target: Sequence[Fraction]) -> list[Fraction] | None:
        """Coefficients c with c . mat = target, or None outside the row
        space; unique when the rows of mat are independent."""
        t = _sparse(target)
        if self._reduce(dict(t)):
            return None
        acc: dict[int, Fraction] = {}
        for combo, p in zip(self._sparse_combos, self.pivots):
            c = t.get(p)
            if c is not None:
                _axpy(acc, -c, combo)
        return _dense(acc, self._nrows)


def left_kernel(mat: Matrix, ncols: int) -> Matrix:
    """Canonical basis of {x : x . mat = 0}; x has len(mat) entries."""
    return Echelon(mat, ncols).kernel


def express_in_rows(rows: Matrix, target: Sequence[Fraction],
                    ncols: int) -> list[Fraction] | None:
    """Coefficients c with sum c_i rows[i] = target, or None.

    Callers pass linearly independent rows, so the answer is unique.
    """
    return Echelon(rows, ncols).solve(target)


def negate(mat: Matrix) -> Matrix:
    return [[-x for x in row] for row in mat]


def block_diag(a: Matrix, b: Matrix, a_ncols: int, b_ncols: int) -> Matrix:
    out = [list(row) + [ZERO] * b_ncols for row in a]
    out += [[ZERO] * a_ncols + list(row) for row in b]
    return out


def inverse(mat: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    ech = Echelon(mat, len(mat))
    return ech.combos if len(ech.pivots) == len(mat) else None
