"""Subcomplexes of the invariant complex and their exact cohomology.

A Subcomplex owns, per degree, a basis of an admissible d-stable subspace
together with the restricted differential.  full_complex takes all
monomials; basic_complex takes the joint kernel of i_v and L_v over a
list of fields, built as the kernel of L_v on the exterior algebra of
the fields' annihilator; it is automatically d-stable (verified anyway).

Betti numbers come from ranks: b_k = dim C^k - rank d_k - rank d_(k-1),
once D_(k-1) D_k = 0 is checked.  A rank is read off the differential's
factorization when one exists and taken by a plain RREF otherwise.
space(k) builds representatives and the class table only on demand, and
betti_numbers reads the dimension of a space that is already built.
Cohomology spaces carry a deterministic representative basis, obtained by
completing the canonical image basis inside the canonical kernel basis;
the elimination that picks them also gives the class of every cycle.

Sparse inside, dense at the API.  The differential rows, kernels, images,
representatives, the classes _class_of returns and the rows of a
CohomologyMap are sparse vectors {column: Fraction}, the one matrix kind
of linalg.  Dense tuples or lists are built only when a public method or
attribute is read: coords, class_of, diff_matrix and CohomologyMap.matrix.
Every degree basis is an RREF over the monomials of its degree (the
identity for full_complex, a row space for basic_complex), hence its own
factorization: linalg.reduce reads a form's coordinates at the pivots,
and its residual is empty exactly when the form lies in the slice.  Each
differential is factored once, lazily: its kernel is the cycles of degree
k and its rows the image in degree k+1.  A Subcomplex keeps only these;
what other layers derive from it (relations, chain-map certificates,
class maps) they keep themselves.  A CohomologyMap (a splitting map, or
a transversal Lefschetz map) keeps its own rank, and a splitting report
reads invertibility off its maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import Sequence

from . import linalg
from .errors import (DegreeError, InternalConsistencyError, ModelMismatchError,
                     NotClosedError, PreconditionError)
from .exterior import (Form, Vector, _column_index, degree_masks,
                       sparse_coords)
from .model import StructureModel
from .record import Record


class Subcomplex:
    """A graded d-stable subspace of the invariant forms of a model.  Each
    degree's basis must be in RREF over the monomials in ascending mask
    order, as linalg.pivot_index checks; ValueError otherwise."""

    def __init__(self, model: StructureModel, fields: Sequence[Vector],
                 bases: Sequence[Sequence[Form]]):
        n = model.n_gen
        self.model = model
        self.fields = tuple(fields)
        self.bases = tuple(tuple(b) for b in bases)
        if len(self.bases) != n + 1:
            raise ValueError("need one basis per degree 0..n_gen")
        # per degree, linalg.pivot_index on masks; monomials share one index
        self._pivots: list[tuple[dict, dict]] = []
        for k, basis in enumerate(self.bases):
            try:
                at, off = linalg.pivot_index([f.terms for f in basis])
            except ValueError as exc:
                raise ValueError(f"degree {k} basis not in RREF: {exc}")
            index = _column_index(n, k)
            self._pivots.append((index if at == index else at, off))
        # sparse rows of d from each degree, in subcomplex coordinates
        self._diff: list[list[dict[int, Fraction]]] = []
        for k in range(n + 1):
            mat = []
            for f in self.bases[k]:
                coords = self._coords(model.d(f), k + 1)
                if coords is None:
                    raise InternalConsistencyError(
                        f"span is not closed under d in degree {k}; "
                        f"the fields do not cut out a subcomplex")
                mat.append(coords)
            self._diff.append(mat)
        self._diff_echelons: dict[int, linalg.Echelon] = {}
        self._ranks: dict[int, int] = {}
        self._spaces: dict[int, CohomologySpace] = {}

    # ----- degree slices --------------------------------------------------

    def basis(self, k: int) -> tuple[Form, ...]:
        if 0 <= k <= self.model.n_gen:
            return self.bases[k]
        return ()

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def diff_matrix(self, k: int) -> linalg.Matrix:
        """Matrix of d from degree k to k+1, rows indexed by the basis."""
        return [linalg.dense(row, self.dim(k + 1)) for row in self._d(k)]

    def _d(self, k: int) -> list[dict[int, Fraction]]:
        return self._diff[k] if 0 <= k <= self.model.n_gen else []

    def _diff_echelon(self, k: int) -> linalg.Echelon:
        """The one factorization of d from degree k: its RREF rows span
        the image in degree k+1, its kernel is the cycles in degree k."""
        ech = self._diff_echelons.get(k)
        if ech is None:
            ech = linalg.Echelon(self._diff[k], self.dim(k + 1))
            self._diff_echelons[k] = ech
        return ech

    def _rank(self, k: int) -> int:
        """Rank of d from degree k: the factorization's when it exists, a
        plain RREF (no identity block) otherwise."""
        r = self._ranks.get(k)
        if r is None:
            ech = self._diff_echelons.get(k)
            r = (len(ech.pivots) if ech is not None
                 else linalg.rank(self._d(k), self.dim(k + 1)))
            self._ranks[k] = r
        return r

    def coords(self, form: Form, degree: int | None = None):
        """Coordinates of a form in the degree basis, or None if outside."""
        k = form.degree if degree is None else degree
        sol = self._coords(form, k)
        return None if sol is None else linalg.dense(sol, self.dim(k))

    def _coords(self, form: Form, k: int) -> dict[int, Fraction] | None:
        """Sparse coordinates of a form in the degree-k basis, or None."""
        if form.n_gen != self.model.n_gen:
            raise ModelMismatchError("form does not live over this model")
        if not form.terms:
            return {}
        if form.degree != k or not 0 <= k <= self.model.n_gen:
            return None
        coords, residual = linalg.reduce(form.terms, *self._pivots[k])
        return None if residual else coords

    def dims(self) -> tuple[int, ...]:
        return tuple(self.dim(k) for k in range(self.model.n_gen + 1))

    # ----- cohomology -----------------------------------------------------

    def space(self, k: int) -> "CohomologySpace":
        sp = self._spaces.get(k)
        if sp is None:
            sp = self._build_space(k)
            self._spaces[k] = sp
        return sp

    def _betti(self, k: int) -> int:
        """dim H^k: the dimension of the space if it is built, otherwise
        dim C^k - rank d_k - rank d_(k-1), once D_(k-1) D_k = 0 is checked
        as _build_space checks it."""
        sp = self._spaces.get(k)
        if sp is not None:
            return sp.dimension
        self._check_d_squared(k)
        return self.dim(k) - self._rank(k) - (self._rank(k - 1) if k else 0)

    def _check_d_squared(self, k: int) -> None:
        """Raise unless D_(k-1) D_k = 0.  The product is taken on integers:
        each row of D_(k-1) times its own denominator, D_k times one common
        denominator."""
        right = self._d(k)
        den = lcm(*[x.denominator for row in right for x in row.values()])
        right = [{j: x.numerator * (den // x.denominator)
                  for j, x in row.items()} for row in right]
        for row in self._d(k - 1):
            acc: dict[int, int] = {}
            for i, x in linalg._integer_row(row).items():
                for j, y in right[i].items():
                    acc[j] = acc.get(j, 0) + x * y
            if any(acc.values()):
                raise InternalConsistencyError(
                    f"image is not contained in the kernel in degree {k}")

    def _build_space(self, k: int) -> "CohomologySpace":
        m_k = self.dim(k)
        if m_k == 0:
            return CohomologySpace(self, k, [], {})
        kernel = self._diff_echelon(k).sparse_kernel
        image = self._diff_echelon(k - 1).sparse_rows if k >= 1 else []
        # a kernel row is a representative exactly when it is independent of
        # the image and the kernel rows before it: a pivot column of the
        # transpose of [image; kernel].  A column of an RREF is the sum of the
        # pivot columns weighted by its entries in the pivot rows, and the
        # representative rows vanish on the image columns (all pivots)
        r = len(image)
        cols = image + kernel
        transposed: list[dict[int, Fraction]] = [{} for _ in range(m_k)]
        for i, col in enumerate(cols):
            for j, x in col.items():
                transposed[j][i] = x
        rows, pivots = linalg.rref(transposed, len(cols))
        reps = [cols[p] for p in pivots if p >= r]
        if len(reps) != len(kernel) - r:
            raise InternalConsistencyError(
                f"image is not contained in the kernel in degree {k}")
        classes: list[dict[int, Fraction]] = [{} for _ in kernel]
        for i, row in enumerate(rows[r:]):
            for j, x in row.items():
                classes[j - r][i] = x
        return CohomologySpace(self, k, reps, {
            min(row): c for row, c in zip(kernel, classes)})

    def __repr__(self):
        label = "full" if not self.fields else f"basic({len(self.fields)})"
        return f"<Subcomplex {label} of {self.model!r}>"


class CohomologySpace:
    """One degree of the cohomology of a subcomplex.

    representatives are closed admissible forms whose classes form a basis;
    class_of maps any closed admissible form to its exact coordinates in
    that basis.  A cycle x is sum_j x[p_j] K_j in the RREF basis K_j of the
    cycles, p_j the smallest key of K_j; the class of K_j is kept under p_j.
    """

    def __init__(self, cplx: Subcomplex, degree: int,
                 rep_coords: list[dict[int, Fraction]],
                 classes: dict[int, dict[int, Fraction]]):
        self.complex = cplx
        self.degree = degree
        self.dimension = len(rep_coords)
        self._classes = classes
        basis = cplx.basis(degree)
        self.representatives = tuple(
            _combine(basis, row, cplx.model.n_gen, degree)
            for row in rep_coords)

    def class_of(self, form: Form) -> tuple[Fraction, ...]:
        return tuple(linalg.dense(self._class_of(form), self.dimension))

    def _class_of(self, form: Form) -> dict[int, Fraction]:
        """Sparse class of a closed element of the degree slice."""
        coords = self.complex._coords(form, self.degree)
        if coords is None:
            raise InternalConsistencyError(
                f"form of degree {form.degree} is not an element of the "
                f"degree-{self.degree} slice of the subcomplex")
        diff = self.complex._d(self.degree)
        img: dict[int, Fraction] = {}
        for i, c in coords.items():
            linalg.add_scaled(img, c, diff[i])
        if img:
            raise PreconditionError(
                f"class_of needs a closed form in degree {self.degree}")
        out: dict[int, Fraction] = {}
        for p, c in coords.items():
            cls = self._classes.get(p)
            if cls is not None:
                linalg.add_scaled(out, c, cls)
        return out

    def __repr__(self):
        return (f"<CohomologySpace degree {self.degree} "
                f"dimension {self.dimension}>")


def _combine(basis: Sequence[Form], coords: dict[int, Fraction], n_gen: int,
             degree: int) -> Form:
    """sum c_i basis[i] for sparse coordinates."""
    out: dict[int, Fraction] = {}
    for i, c in coords.items():
        linalg.add_scaled(out, c, basis[i].terms)
    return Form._make(n_gen, max(degree, 0), out)


def _joint_kernel(basis: Sequence[Form], operators, n_gen: int,
                  degree: int) -> list[Form]:
    """Canonical basis of the forms in span(basis) that every operator
    sends to zero.  Row i lays the images of basis[i] side by side, each
    in the monomial basis of its degree, columns offset by the widths
    before them."""
    if not basis:
        return []
    rows = []
    for f in basis:
        row: dict[int, Fraction] = {}
        width = 0
        for op in operators:
            g = op(f)
            row.update((width + j, x) for j, x in sparse_coords(g).items())
            width += len(degree_masks(g.n_gen, g.degree))
        rows.append(row)
    kernel = linalg.left_kernel(rows, width)
    return [_combine(basis, coords, n_gen, degree) for coords in kernel]


def full_complex(model: StructureModel) -> Subcomplex:
    """The whole invariant complex, with the monomial basis per degree."""
    n = model.n_gen
    one = Fraction(1)
    bases = [[Form._make(n, k, {m: one}) for m in degree_masks(n, k)]
             for k in range(n + 1)]
    return Subcomplex(model, (), bases)


def basic_complex(model: StructureModel,
                  fields: Sequence[Vector]) -> Subcomplex:
    """Joint kernel of i_v and L_v for every listed field, per degree.

    The kernel of every i_v is spanned by the products theta_I of a basis
    theta of the 1-forms that vanish on the fields; only L_v is imposed on
    them, and a row space in monomial coordinates gives the canonical
    basis.  With an empty field list this is the full complex.
    """
    fields = tuple(fields)
    for v in fields:
        if v.n_gen != model.n_gen:
            raise ModelMismatchError("field does not live over this model")
    if not fields:
        return full_complex(model)
    n = model.n_gen
    pairing = [linalg.sparse(col) for col in zip(*(v.coeffs for v in fields))]
    theta = [Form._make(n, 1, {1 << i: x for i, x in row.items()})
             for row in linalg.left_kernel(pairing, len(fields))]
    lie = [partial(model.lie_derivative, v) for v in fields]
    # (index of the last factor, theta_I) for ascending index tuples I
    products = [(-1, Form.constant(n, 1))]
    bases = []
    for k in range(n + 1):
        kept = _joint_kernel([f for _, f in products], lie, n, k)
        masks = degree_masks(n, k)
        rows = linalg.row_space([sparse_coords(f) for f in kept], len(masks))
        bases.append([Form._make(n, k, {masks[j]: x for j, x in row.items()})
                      for row in rows])
        products = [(j, f.wedge(theta[j])) for i, f in products
                    for j in range(i + 1, len(theta))]
    return Subcomplex(model, fields, bases)


def cohomology(cplx: Subcomplex, k: int) -> CohomologySpace:
    """Exact degree-k cohomology with canonical representatives."""
    if not 0 <= k <= cplx.model.n_gen:
        raise DegreeError(f"degree {k} outside [0, {cplx.model.n_gen}]")
    return cplx.space(k)


def betti_numbers(cplx: Subcomplex) -> tuple[int, ...]:
    """Cohomology dimensions of all degrees 0..n_gen, from the ranks of the
    differentials; no space is built."""
    return tuple(cplx._betti(k) for k in range(cplx.model.n_gen + 1))


# ----- splitting isomorphisms ---------------------------------------------


class CohomologyMap(Record):
    """A linear map into a cohomology space: row i is the class of the
    image of the i-th source basis vector, sparse; matrix is the same rows
    as dense tuples.  The map keeps its own rank, taken on first read;
    invertible asks for it only when the map is square."""

    degree: int
    rows: tuple[dict[int, Fraction], ...]
    target_dim: int

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return linalg.dense_rows(self.rows, self.target_dim)

    @property
    def square(self) -> bool:
        return len(self.rows) == self.target_dim

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.rows, self.target_dim)

    @property
    def invertible(self) -> bool:
        return self.square and self.rank == self.target_dim


class SplittingMap(CohomologyMap):
    """([b], [b']) -> [b + w ^ b'] in the representative bases: the rows
    are the images of the H^k(outer) representatives followed by the
    H^(k-1)(outer) representatives, the columns index H^k(inner)."""

    outer_dims: tuple[int, int]


class SplittingReport(Record):
    """The splitting maps of every degree; ok when each is invertible."""

    maps: tuple[SplittingMap, ...]

    @property
    def ok(self) -> bool:
        return all(m.invertible for m in self.maps)

    def to_dict(self):
        return {
            "ok": self.ok,
            "degrees": [
                {"k": m.degree, "inner_dim": m.target_dim,
                 "outer_dim": m.outer_dims[0],
                 "outer_prev_dim": m.outer_dims[1],
                 "square": m.square, "invertible": m.invertible}
                for m in self.maps],
        }


def _check_splitting_setup(model: StructureModel, w_form: Form,
                           inner: Subcomplex, outer: Subcomplex) -> None:
    if inner.model != model or outer.model != model:
        raise ModelMismatchError("subcomplexes must share the given model")
    if w_form.degree != 1 or w_form.n_gen != model.n_gen:
        raise DegreeError("w must be a 1-form over the model")
    if not model.d(w_form).is_zero():
        raise NotClosedError("the splitting 1-form w must be closed")
    inner_fields = list(inner.fields)
    outer_fields = list(outer.fields)
    extras = [f for f in outer_fields if f not in inner_fields]
    if (len(extras) != 1 or len(outer_fields) != len(inner_fields) + 1
            or any(f not in outer_fields for f in inner_fields)):
        raise PreconditionError(
            "outer fields must extend the inner fields by exactly one")
    w_field = extras[0]
    if w_field.pair(w_form) != 1:
        raise PreconditionError("w must evaluate to 1 on the added field")
    for f in inner_fields:
        if f.pair(w_form) != 0:
            raise PreconditionError("w must vanish on the inner fields")


def splitting_map(model: StructureModel, w_form: Form, inner: Subcomplex,
                  outer: Subcomplex, k: int) -> SplittingMap:
    """The degree-k splitting map H^k(outer) + H^(k-1)(outer) -> H^k(inner)."""
    _check_splitting_setup(model, w_form, inner, outer)
    if not 0 <= k <= model.n_gen:
        raise DegreeError(f"degree {k} outside [0, {model.n_gen}]")
    src1 = outer.space(k)
    src0 = outer.space(k - 1)
    dst = inner.space(k)
    rows = tuple([dst._class_of(rep) for rep in src1.representatives]
                 + [dst._class_of(w_form.wedge(rep))
                    for rep in src0.representatives])
    return SplittingMap(k, rows, dst.dimension,
                        (src1.dimension, src0.dimension))


def splitting_check(model: StructureModel, w_form: Form, inner: Subcomplex,
                    outer: Subcomplex) -> SplittingReport:
    """The splitting map of every degree; the report is ok when each is
    square and invertible."""
    return SplittingReport(tuple(splitting_map(model, w_form, inner, outer, k)
                                 for k in range(model.n_gen + 1)))
