"""Exact linear algebra over the rationals.

One matrix kind: a vector is a dict {column: nonzero Fraction} and a
matrix a list of such rows.  `sparse`, `dense` and `dense_rows` convert
at the edges of the package, `add_scaled` combines rows and `matmul` is
the one product.  rref, rank, row_space, Echelon, left_kernel, pivot_index
and reduce take sparse rows and answer sparse; only inverse takes and
gives dense rows, for callers outside the package that index its entries.
Linear maps act on coordinate row vectors from the right: row i of a
matrix is the image of the i-th basis vector, so the matrix of f-then-g
is matmul(M_f, M_g).  Reduced row echelon form is the canonical
presentation of a row space, which makes subspace comparison an equality
of lists.

`rref` is the one elimination: rank, row_space and Echelon all call it.
It works on integer rows: each row is scaled to coprime integers, and a
step replaces a row q by (a/g) q - (b/g) p, with a and b the entries of
the pivot row p and of q in the pivot column and g = gcd(a, b), then
divides q by its content.  A column index (column -> ids of the rows
holding it, for the pivot columns) finds the rows to clear without a
scan; a step updates it on the keys of p only.
The RREF is unique, so any row may give a pivot (Dumas, Saunders and
Villard, J. Symb. Comp. 32, 2001); the smallest entry, then the fewest
nonzeros, then the first row keeps the integers small.  Pivot rows are
divided by their pivots at the end: every function here takes and gives
`Fraction`s.  `Echelon` is the one factorization built on it: the RREF
of [M | I], with the identity as one entry per row, which gives the
combinations behind each row, the left kernel and the inverse.  Rows
already in RREF need no factorization: `pivot_index` checks them and
`reduce` reads a vector's coordinates at their pivots, with the residual
that decides membership.

Elsewhere the arithmetic follows the rule stated in exterior: add_scaled
does not multiply by 1 and negates for -1, and stores a new entry as it is.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = list

# Dense rows are padded with this zero; the sparse conversion skips it by
# identity, before the slower Fraction truth test.
ZERO = Fraction(0)
_SMALL = {i: Fraction(i) for i in range(-16, 17)}  # shared by reduced rows


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


def dense_rows(rows, width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Sparse rows as the dense tuples a public result shows."""
    return tuple(tuple(dense(row, width)) for row in rows)


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


def _integer_row(row: dict) -> dict[int, int]:
    """The row scaled to coprime integers, zero entries dropped."""
    den = lcm(*[x.denominator for x in row.values()])
    out = {j: x.numerator * (den // x.denominator)
           for j, x in row.items() if x}
    _divide_content(out)
    return out


def _divide_content(row: dict[int, int]) -> None:
    g = gcd(*row.values())
    if g > 1:
        for j, x in row.items():
            row[j] = x // g


def rref(mat: Matrix, ncols: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Row operations apply to full rows, so callers may pass augmented rows
    and restrict pivoting (and canonical form) to the first `ncols` columns.
    holders[c] has the ids of the rows holding c as keys: a dict of ints,
    which the garbage collector does not track; a set is."""
    rows = [_integer_row(row) for row in mat]
    holders: dict[int, dict[int, None]] = defaultdict(dict)
    for i, row in enumerate(rows):
        for j in row:
            if j < ncols:
                holders[j][i] = None
    free = set(range(len(rows)))
    order: list[tuple[int, int]] = []
    for c in range(ncols):
        found = [i for i in holders.get(c, ()) if i in free]
        if not found:
            continue
        p = found[0] if len(found) == 1 else \
            min(found, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
        free.discard(p)
        if rows[p][c] < 0:
            rows[p] = {j: -x for j, x in rows[p].items()}
        _pivot_step(rows, holders, p, c, ncols)
        order.append((p, c))
    out = [{j: _SMALL.get(x) or Fraction(x) for j, x in rows[p].items()}
           if rows[p][c] == 1 else
           {j: Fraction(x, rows[p][c]) for j, x in rows[p].items()}
           for p, c in order]
    return out, [c for _, c in order]


def _pivot_step(rows: list[dict[int, int]], holders: dict[int, dict],
                p: int, c: int, ncols: int) -> None:
    """Clear column c from every row but rows[p], updating holders on
    the keys of rows[p] only."""
    others = [i for i in holders[c] if i != p]
    holders[c] = {p: None}
    prow = rows[p]
    a = prow[c]
    for i in others:
        row = rows[i]
        g = gcd(a, row[c])
        ag, bg = a // g, row[c] // g
        if ag != 1:
            for j, x in row.items():
                row[j] = x * ag
        for j, x in prow.items():
            y = row.get(j)
            if y is None:
                row[j] = -bg * x
                if j < ncols:
                    holders[j][i] = None
            else:
                y -= bg * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    if j < ncols:
                        holders[j].pop(i, None)  # c: reset above
        _divide_content(row)


def rank(mat: Matrix, ncols: int) -> int:
    return len(rref(mat, ncols)[1])


def row_space(mat: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of the span of the rows."""
    return rref(mat, ncols)[0]


def pivot_index(rows: Matrix) -> tuple[dict, dict]:
    """(pivot -> row index, pivot -> the row without its pivot entry if it
    has others) of RREF rows over nonnegative columns; a row's pivot is its
    smallest key.  ValueError unless every pivot entry is 1, the pivots
    increase and no row has an entry at another row's pivot."""
    at: dict = {}
    off: dict = {}
    last = -1  # below every column
    for i, row in enumerate(rows):
        p = min(row, default=-1)
        if p <= last or row[p] != 1:
            raise ValueError(f"row {i} lacks a pivot 1 past the rows above")
        at[p] = i
        last = p
        if len(row) > 1:
            off[p] = {j: x for j, x in row.items() if j != p}
    if any(not at.keys().isdisjoint(rest) for rest in off.values()):
        raise ValueError("a row has an entry at another row's pivot")
    return at, off


def reduce(vec: dict, at: dict, off: dict) -> tuple[dict, dict]:
    """(coordinates, residual) of a sparse vector of nonzero Fractions
    against RREF rows given by pivot_index.  The rows vanish on each
    other's pivots, so the row with pivot p has coefficient vec[p]; the
    residual vec - sum vec[p] row_p is empty exactly in the row space."""
    coords: dict[int, Fraction] = {}
    residual: dict = {}
    for j, x in vec.items():
        i = at.get(j)
        if i is None:
            residual[j] = x
        else:
            coords[i] = x
    if off:
        for p, x in vec.items():
            if p in off:
                add_scaled(residual, -x, off[p])
    return coords, residual


class Echelon:
    """One factorization of a matrix: the RREF of [mat | I].

    mat has sparse rows with columns below ncols.  sparse_rows and pivots
    are the canonical RREF of mat; sparse_combos[i] . mat = sparse_rows[i];
    sparse_kernel is the canonical RREF basis of the left kernel of mat
    (the identity block of the rows whose pivot lies past ncols).
    """

    def __init__(self, mat: Matrix, ncols: int):
        m = len(mat)
        red, pivots = rref([{**row, ncols + i: 1}
                            for i, row in enumerate(mat)], ncols + m)
        r = sum(1 for p in pivots if p < ncols)
        self.pivots = pivots[:r]
        self.sparse_rows = [{j: x for j, x in row.items() if j < ncols}
                            for row in red[:r]]
        self.sparse_combos = [{j - ncols: x for j, x in row.items()
                               if j >= ncols} for row in red[:r]]
        self.sparse_kernel = [{j - ncols: x for j, x in row.items()}
                              for row in red[r:]]


def left_kernel(mat: Matrix, ncols: int) -> Matrix:
    """Canonical sparse basis of {x : x . mat = 0}; x is indexed by the
    rows of mat."""
    return Echelon(mat, ncols).sparse_kernel


def inverse(mat: Sequence[Sequence]) -> list[list[Fraction]] | None:
    """Inverse of a square matrix of dense rows, as dense rows, or None
    when singular."""
    ech = Echelon([sparse(row) for row in mat], len(mat))
    if len(ech.pivots) != len(mat):
        return None
    return [dense(row, len(mat)) for row in ech.sparse_combos]
