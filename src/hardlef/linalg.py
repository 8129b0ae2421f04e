"""Exact dense linear algebra over the rationals.

Matrices are lists of rows of `Fraction`.  Linear maps act on coordinate
row vectors from the right: row i of a matrix is the image of the i-th
basis vector, so the matrix of f-then-g is matmul(M_f, M_g).  Reduced row
echelon form is the canonical presentation of a row space, which makes
subspace comparison an equality of lists.

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


def nullspace(mat: Matrix, ncols: int) -> Matrix:
    """Basis of {x : mat . x = 0} with x a column vector of length ncols."""
    rows, pivots = rref(mat, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for r_i, p in enumerate(pivots):
            v[p] = -rows[r_i][free]
        basis.append(v)
    return basis


def left_kernel(mat: Matrix, ncols: int) -> Matrix:
    """Canonical basis of {x : x . mat = 0}; x has len(mat) entries."""
    ker = nullspace(transpose(mat, ncols), len(mat))
    return row_space(ker, len(mat))


def express_in_rows(rows: Matrix, target: Sequence[Fraction],
                    ncols: int) -> list[Fraction] | None:
    """Coefficients c with sum c_i rows[i] = target, or None.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    if not rows:
        return [] if not any(target) else None
    aug = transpose(rows, ncols)
    for j, row in enumerate(aug):
        row.append(Fraction(target[j]))
    red, pivots = rref(aug, len(rows))
    # rows of `red` beyond the pivot count were reduced away only if their
    # augmented entry also vanished; a leftover nonzero entry means the
    # system is inconsistent.  rref() already dropped all-zero rows, so it
    # would have kept such a row only by pivoting, which it cannot do in
    # the augmented column; recheck directly.
    sol = [_ZERO] * len(rows)
    for r_i, p in enumerate(pivots):
        sol[p] = red[r_i][len(rows)]
    residual = list(target)
    for i, c in enumerate(sol):
        if c:
            for j in range(ncols):
                residual[j] -= c * rows[i][j]
    if any(residual):
        return None
    return sol


def reduce_mod_rows(vec: Sequence[Fraction], rows: Matrix,
                    pivots: Sequence[int]) -> list[Fraction]:
    """Residual of a vector after reduction against RREF rows."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return v


def negate(mat: Matrix) -> Matrix:
    return [[-x for x in row] for row in mat]


def block_diag(a: Matrix, b: Matrix, a_ncols: int, b_ncols: int) -> Matrix:
    out = [list(row) + [_ZERO] * b_ncols for row in a]
    out += [[_ZERO] * a_ncols + list(row) for row in b]
    return out


def inverse(mat: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    n = len(mat)
    if n == 0:
        return []
    aug = [list(row) + list(ident_row)
           for row, ident_row in zip(mat, identity(n))]
    red, pivots = rref(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in red]
