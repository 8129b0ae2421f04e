"""Exact dense linear algebra over the rationals.

Matrices are lists of rows of `Fraction`.  Linear maps act on coordinate
row vectors from the right: row i of a matrix is the image of the i-th
basis vector, so the matrix of f-then-g is matmul(M_f, M_g).  Reduced row
echelon form is the canonical presentation of a row space, which makes
subspace comparison an equality of lists.

`rref` is the one elimination loop; a faster kernel (a sparse integer
one, see ROADMAP.md) replaces it alone.  `Echelon` is the one
factorization built on it: the RREF of [M | I], which answers membership,
solve, left kernel and inverse with no further elimination.

Pivots are chosen by smallest numerator magnitude (then denominator, then
row order); the resulting RREF is the canonical one regardless.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def transpose(mat: Matrix, ncols: int) -> Matrix:
    return [[row[j] for row in mat] for j in range(ncols)]


def matmul(a: Matrix, b: Matrix, b_ncols: int) -> Matrix:
    """Product of a (r x n) and b (n x b_ncols); b may be empty when n = 0."""
    out = []
    for row in a:
        acc = [_ZERO] * b_ncols
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


def rref(mat: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Row operations apply to full rows, so callers may pass augmented rows
    and restrict pivoting to the first `ncols` columns.
    """
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(rows)):
            x = rows[i][c]
            if x:
                key = (abs(x.numerator), x.denominator, i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        rows[r], rows[i] = rows[i], rows[r]
        inv = _ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [xj - f * xr for xj, xr in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(mat: Matrix, ncols: int) -> int:
    return len(rref(mat, ncols)[1])


def row_space(mat: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of the span of the rows."""
    return rref(mat, ncols)[0]


class Echelon:
    """One factorization of a matrix: the RREF of [mat | I].

    rows and pivots are the canonical RREF of mat; combos[i] . mat =
    rows[i]; kernel is the canonical RREF basis of the left kernel of mat
    (the identity block of the rows whose pivot lies past ncols).
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

    def residual(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """vec reduced against the rows: zero iff vec is in the row space."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def solve(self, target: Sequence[Fraction]) -> list[Fraction] | None:
        """Coefficients c with c . mat = target, or None outside the row
        space; unique when the rows of mat are independent."""
        if any(self.residual(target)):
            return None
        return matmul([[target[p] for p in self.pivots]], self.combos,
                      self._nrows)[0]


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
    out = [list(row) + [_ZERO] * b_ncols for row in a]
    out += [[_ZERO] * a_ncols + list(row) for row in b]
    return out


def inverse(mat: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    ech = Echelon(mat, len(mat))
    return ech.combos if len(ech.pivots) == len(mat) else None
