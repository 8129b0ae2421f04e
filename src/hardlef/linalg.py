"""Exact linear algebra over the rationals.

One matrix kind: a vector is a dict {column: nonzero scalar} and a
matrix a list of such rows.  The scalar rule of the package: an exact
value is stored as an `int` when it is integral and as a `Fraction`
otherwise, never as an integral `Fraction` or a float (as_scalar); a
float given from outside is a TypeError (_coerce).  Ints and Fractions
of equal value compare, hash and print alike, so the rule changes no
result; it keeps most arithmetic on the structure constants of a model
in C.  `sparse`, `dense` and `dense_rows` convert at the edges of the
package, `add_scaled` adds a multiple of one row to another and `matmul`
is the one product, which sums each of its rows in one loop under the
same rule.  rref, rank, row_space, left_kernel, kernel_and_rank,
sparse_inverse, pivot_index and reduce take sparse rows and answer
sparse; only inverse takes and gives dense rows, for callers outside the
package that index its entries.  No elimination takes a column count:
the columns of a matrix are the keys its rows hold, however far apart.
Linear maps act on coordinate row vectors from the right: row i of a
matrix is the image of the i-th basis vector, so the matrix of
f-then-g is matmul(M_f, M_g).  Reduced row echelon form is the canonical
presentation of a row space, which makes subspace comparison an equality
of lists.

`rref` is the one elimination: rank, row_space, kernel_and_rank,
left_kernel, sparse_inverse and inverse all call it.
It works on integer rows: each row is scaled to coprime integers, and a
step replaces a row q by (a/g) q - (b/g) p, with a and b the entries of
the pivot row p and of q in the pivot column and g = gcd(a, b), then
divides q by its content.  It runs in the sparse order (Duff, Erisman and
Reid, Direct Methods for Sparse Matrices, 1986): a forward pass clears
each pivot column from the rows not yet used as pivots, then one
back-substitution, from the last pivot up, clears it from the pivot rows
above.  A column index (column -> ids of the rows holding it) finds the
rows to clear without a scan; a step updates it on the keys of p only.
The RREF is unique, so any row may give a pivot (Dumas, Saunders and
Villard, J. Symb. Comp. 32, 2001); the fewest nonzeros (Markowitz,
Management Science 3, 1957), then the smallest |entry|, then the first
row keep fill-in and integers small.  Work follows the nonzeros: an empty
row is neither converted nor indexed, a one-entry row becomes {j: 1},
an all-integer row keeps its numerators unscaled, the passes visit only
the columns some row holds, and a column that its pivot row alone holds
takes no step.  Pivot rows are divided by their pivots at the end: an
entry the pivot divides becomes an int, any other a Fraction, and a row
with pivot 1 is returned as its integer row.  A left kernel is read off
the RREF of the transpose with its columns in reverse order, which also
gives the rank (kernel_and_rank); no identity block is carried.  The one
identity block is the inverse's: sparse_inverse reads it off the RREF of
[M | I], with I one entry per row.  Rows already in RREF need no
elimination: `pivot_index` checks them and `reduce` reads a vector's
coordinates at their pivots, with the residual that decides membership.

Elsewhere the arithmetic follows the rule stated in exterior: add_scaled
and matmul do not multiply by 1, drop an entry that cancels and store an
integral product or sum as an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Matrix = list
Rational = Union[int, Fraction]


def as_scalar(x: Rational) -> Rational:
    """x as the scalar rule stores it: the int of an integral value, any
    other Fraction as it is."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


# ----- sparse vectors --------------------------------------------------------


def _coerce(value: Rational) -> Rational:
    """A given value by the scalar rule; a float is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return as_scalar(Fraction(value))


def sparse(row: Sequence) -> dict[int, Rational]:
    """{column: nonzero scalar} of a dense row, entries coerced to the
    scalar rule (_coerce): a float, even 0.0, is a TypeError."""
    return {j: c for j, x in enumerate(row)
            if (c := x if type(x) is int else _coerce(x))}


def dense(row: dict[int, Rational], width: int) -> list[Rational]:
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def dense_rows(rows, width: int) -> tuple[tuple[Rational, ...], ...]:
    """Sparse rows as the dense tuples a public result shows."""
    return tuple(tuple(dense(row, width)) for row in rows)


def add_scaled(acc: dict, f: Rational, other: dict) -> None:
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
        if y is not None:
            x = y + x
            if not x:
                del acc[j]
                continue
        # as_scalar, inline on the hottest path of the package
        acc[j] = x if type(x) is int or x.denominator != 1 else x.numerator


# ----- products --------------------------------------------------------------


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Product of sparse matrices: row i is sum_k a[i][k] b[k], without the
    entries that cancel; b may be empty when a has no entries.  Each row
    is summed in one loop, and a row that is 1 times one row of b is a
    copy of it."""
    out = []
    for row in a:
        if len(row) == 1:
            (k, x), = row.items()
            if x == 1:
                out.append(dict(b[k]))
                continue
        acc: dict[int, Rational] = {}
        get = acc.get
        for k, x in row.items():
            if not x:
                continue
            for j, y in b[k].items():
                if x != 1:
                    y = x * y
                z = get(j)
                if z is not None:
                    y += z
                    if not y:
                        del acc[j]
                        continue
                # as_scalar, inline as in add_scaled
                acc[j] = y if type(y) is int or y.denominator != 1 \
                    else y.numerator
        out.append(acc)
    return out


# ----- elimination -----------------------------------------------------------


def _integer_row(row: dict) -> dict[int, int]:
    """A multiple of the row in coprime integers, zero entries dropped: a
    one-entry row is {j: 1}, the same line whatever its sign, and an
    all-integer row (lcm 1) keeps its numerators unscaled."""
    if len(row) == 1:
        (j, x), = row.items()
        return {j: 1} if x else {}
    den = lcm(*[x.denominator for x in row.values()])
    if den == 1:
        out = {j: n for j, x in row.items() if (n := x.numerator)}
    else:
        out = {j: n * (den // x.denominator)
               for j, x in row.items() if (n := x.numerator)}
    _divide_content(out)
    return out


def _divide_content(row: dict[int, int]) -> None:
    g = gcd(*row.values())
    if g > 1:
        for j, x in row.items():
            row[j] = x // g


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).
    Every key some row holds is a column and may give a pivot.
    holders[c] has the ids of the rows holding c as keys: a dict of ints,
    which the garbage collector does not track; a set is."""
    rows = [row for row in map(_integer_row, filter(None, mat)) if row]
    holders: dict[int, dict[int, None]] = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, {})[i] = None
    free = set(range(len(rows)))
    order: list[tuple[int, int]] = []
    for c in sorted(holders):
        found = [i for i in holders[c] if i in free]
        if not found:
            continue
        p = found[0] if len(found) == 1 else \
            min(found, key=lambda i: (len(rows[i]), abs(rows[i][c]), i))
        free.discard(p)
        if rows[p][c] < 0:
            rows[p] = {j: -x for j, x in rows[p].items()}
        if len(found) > 1:
            _pivot_step(rows, holders, p, c,
                        [i for i in found if i != p])
        order.append((p, c))
    for p, c in reversed(order):
        if len(holders[c]) > 1:
            _pivot_step(rows, holders, p, c,
                        [i for i in holders[c] if i != p])
    out = []
    for p, c in order:
        row, a = rows[p], rows[p][c]
        out.append(row if a == 1 else {j: Fraction(x, a) if x % a else x // a
                                       for j, x in row.items()})
    return out, [c for _, c in order]


def _pivot_step(rows: list[dict[int, int]], holders: dict[int, dict],
                p: int, c: int, others: list[int]) -> None:
    """Clear column c from the rows in others with rows[p], updating
    holders on the keys of rows[p] only."""
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
                holders[j][i] = None
            else:
                y -= bg * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    del holders[j][i]
        _divide_content(row)


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def row_space(mat: Matrix) -> Matrix:
    """Canonical (RREF) basis of the span of the rows."""
    return rref(mat)[0]


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
    """(coordinates, residual) of a sparse vector of nonzero scalars
    against RREF rows given by pivot_index.  The rows vanish on each
    other's pivots, so the row with pivot p has coefficient vec[p]; the
    residual vec - sum vec[p] row_p is empty exactly in the row space."""
    coords: dict[int, Rational] = {}
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


def kernel_and_rank(mat: Matrix) -> tuple[Matrix, int]:
    """(canonical sparse basis of {x : x . mat = 0}, rank of mat), from one
    RREF of the transpose of mat, whose rows are the columns mat holds and
    whose columns are the rows of mat in reverse order: row i of mat is
    column last - i there.  A free column f gives the kernel row with 1 at
    last - f and -R[f] at last - p for each pivot row R, of pivot p, that
    holds f.  Such a p is below f, so the row's smallest key is last - f,
    at which no other row has an entry: in ascending order of last - f
    these rows are the RREF."""
    last = len(mat) - 1
    transposed: dict[int, dict[int, Rational]] = {}
    for i, row in enumerate(mat):
        for j, x in row.items():
            if x:
                transposed.setdefault(j, {})[last - i] = x
    rows, pivots = rref(list(transposed.values()))
    bound = set(pivots)
    kernel = {f: {last - f: 1} for f in range(last, -1, -1)
              if f not in bound}
    for row, p in zip(rows, pivots):
        for f, x in row.items():
            if f != p:
                kernel[f][last - p] = -x
    return list(kernel.values()), len(pivots)


def left_kernel(mat: Matrix) -> Matrix:
    """Canonical sparse basis of {x : x . mat = 0}; x is indexed by the
    rows of mat (kernel_and_rank)."""
    return kernel_and_rank(mat)[0]


def sparse_inverse(mat: Matrix) -> Matrix | None:
    """Inverse of a square matrix of sparse rows, as sparse rows, or None
    when singular; ValueError when a row holds a key at or above the
    number of rows m.  [mat | I] has rank m; mat is invertible exactly when
    every pivot of its RREF lies in the mat block, and then the RREF is
    [I | mat^-1]."""
    m = len(mat)
    if any(j >= m for row in mat for j in row):
        raise ValueError(f"a row of a {m}-row matrix has a column >= {m}")
    rows, pivots = rref([{**row, m + i: 1} for i, row in enumerate(mat)])
    if pivots and pivots[-1] >= m:
        return None
    return [{j - m: x for j, x in row.items() if j >= m} for row in rows]


def inverse(mat: Sequence[Sequence]) -> list[list[Rational]] | None:
    """Inverse of a square matrix of dense rows, as dense rows, or None
    when singular (sparse_inverse); ValueError when it is not square."""
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("inverse needs a square matrix")
    inv = sparse_inverse([sparse(row) for row in mat])
    return None if inv is None else [dense(row, len(mat)) for row in inv]
