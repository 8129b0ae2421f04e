"""Subcomplexes of the invariant complex and their exact cohomology.

A Subcomplex owns, per degree, a basis of an admissible d-stable subspace
together with the restricted differential.  full_complex takes all
monomials; basic_complex takes the joint kernel of i_v and L_v over a
list of fields, which is automatically d-stable (verified anyway).

Cohomology spaces carry a deterministic representative basis, obtained by
completing the canonical image basis inside the canonical kernel basis.

Sparse inside, dense at the API.  Forms enter through
exterior.sparse_coords, which owns the mask -> column index of each
monomial basis; everything after that (the slice factorizations, the
differential rows, kernels, images, representatives, the classes
_class_of solves for and the rows of a SplittingMap) is a sparse vector
{column: Fraction}, the one matrix kind of linalg.  Dense tuples or lists
are built only when a public method or attribute is read: coords,
class_of, diff_matrix and SplittingMap.matrix.  Each slice and each space
holds one linalg.Echelon, so coords and _class_of are one reduction
against a stored factorization; a slice whose basis is the monomial
basis, as in full_complex, needs none (its coordinates are sparse_coords)
and is factored only if slice(k) asks.  Each differential is factored
once, lazily: its kernel is the cycles of degree k and its rows the image
in degree k+1.  A Subcomplex keeps only these; what other layers derive
from it (relations, chain-map certificates, class maps) they keep
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence

from . import linalg
from .errors import (DegreeError, InternalConsistencyError, ModelMismatchError,
                     NotClosedError, PreconditionError)
from .exterior import Form, Vector, contract, degree_masks, sparse_coords
from .model import StructureModel


class Subcomplex:
    """A graded d-stable subspace of the invariant forms of a model."""

    def __init__(self, model: StructureModel, fields: Sequence[Vector],
                 bases: Sequence[Sequence[Form]]):
        n = model.n_gen
        self.model = model
        self.fields = tuple(fields)
        self.bases = tuple(tuple(b) for b in bases)
        if len(self.bases) != n + 1:
            raise ValueError("need one basis per degree 0..n_gen")
        # a degree whose basis is the monomial basis, in order, needs no
        # factorization: coordinates there are sparse_coords, and slice(k)
        # factors it only when asked for
        self._monomial = [_is_monomial_basis(basis, n, k)
                          for k, basis in enumerate(self.bases)]
        self._slices = [None if mono else self._factor(k)
                        for k, mono in enumerate(self._monomial)]
        for k, ech in enumerate(self._slices):
            if ech is not None and len(ech.pivots) != len(self.bases[k]):
                raise InternalConsistencyError(
                    f"degree {k} basis forms are linearly dependent")
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

    def slice(self, k: int) -> linalg.Echelon:
        """Factorization of the degree-k basis in monomial coordinates."""
        if not 0 <= k <= self.model.n_gen:
            raise DegreeError(f"degree {k} outside [0, {self.model.n_gen}]")
        if self._slices[k] is None:
            self._slices[k] = self._factor(k)
        return self._slices[k]

    def _factor(self, k: int) -> linalg.Echelon:
        return linalg.Echelon([sparse_coords(f) for f in self.bases[k]],
                              len(degree_masks(self.model.n_gen, k)))

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
        if self._monomial[k]:
            return sparse_coords(form)
        return self._slices[k].solve(sparse_coords(form))

    def dims(self) -> tuple[int, ...]:
        return tuple(self.dim(k) for k in range(self.model.n_gen + 1))

    # ----- cohomology -----------------------------------------------------

    def space(self, k: int) -> "CohomologySpace":
        sp = self._spaces.get(k)
        if sp is None:
            sp = self._build_space(k)
            self._spaces[k] = sp
        return sp

    def _build_space(self, k: int) -> "CohomologySpace":
        m_k = self.dim(k)
        if m_k == 0:
            return CohomologySpace(self, k, [], [])
        kernel = self._diff_echelon(k).sparse_kernel
        image = self._diff_echelon(k - 1).sparse_rows if k >= 1 else []
        # a kernel row is a representative exactly when it is independent of
        # the image and the kernel rows before it: a pivot column of the
        # transpose of [image; kernel]
        cols = image + kernel
        transposed: list[dict[int, Fraction]] = [{} for _ in range(m_k)]
        for i, col in enumerate(cols):
            for j, x in col.items():
                transposed[j][i] = x
        _, pivots = linalg.rref(transposed, len(cols))
        reps = [cols[p] for p in pivots if p >= len(image)]
        if len(reps) != len(kernel) - len(image):
            raise InternalConsistencyError(
                f"image is not contained in the kernel in degree {k}")
        return CohomologySpace(self, k, reps, image)

    def __repr__(self):
        label = "full" if not self.fields else f"basic({len(self.fields)})"
        return f"<Subcomplex {label} of {self.model!r}>"


class CohomologySpace:
    """One degree of the cohomology of a subcomplex.

    representatives are closed admissible forms whose classes form a basis;
    class_of maps any closed admissible form to its exact coordinates in
    that basis.
    """

    def __init__(self, cplx: Subcomplex, degree: int,
                 rep_coords: list[dict[int, Fraction]],
                 image_rows: list[dict[int, Fraction]]):
        self.complex = cplx
        self.degree = degree
        self.dimension = len(rep_coords)
        self._echelon = linalg.Echelon(rep_coords + image_rows,
                                       cplx.dim(degree))
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
        sol = self._echelon.solve(coords)
        if sol is None:
            raise InternalConsistencyError(
                "closed form is outside kernel = reps + image; "
                "the quotient data is corrupt")
        # the coefficients past the representatives are those of the image
        return {i: c for i, c in sol.items() if i < self.dimension}

    def __repr__(self):
        return (f"<CohomologySpace degree {self.degree} "
                f"dimension {self.dimension}>")


def _is_monomial_basis(basis: Sequence[Form], n_gen: int,
                       degree: int) -> bool:
    """Whether basis is degree_masks(n_gen, degree) in order, each mask
    with coefficient 1."""
    masks = degree_masks(n_gen, degree)
    return len(basis) == len(masks) and all(
        len(f.terms) == 1 and f.terms.get(m) == 1
        for f, m in zip(basis, masks))


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
    bases = [[Form(n, k, {m: Fraction(1)}) for m in degree_masks(n, k)]
             for k in range(n + 1)]
    return Subcomplex(model, (), bases)


def basic_complex(model: StructureModel,
                  fields: Sequence[Vector]) -> Subcomplex:
    """Joint kernel of i_v and L_v for every listed field, per degree.

    With an empty field list this is the full complex.
    """
    fields = tuple(fields)
    for v in fields:
        if v.n_gen != model.n_gen:
            raise ModelMismatchError("field does not live over this model")
    if not fields:
        return full_complex(model)
    n = model.n_gen
    ops = []
    for v in fields:
        ops += [partial(contract, v), partial(model.lie_derivative, v)]
    bases = [_joint_kernel([Form(n, k, {m: Fraction(1)})
                            for m in degree_masks(n, k)], ops, n, k)
             for k in range(n + 1)]
    return Subcomplex(model, fields, bases)


def cohomology(cplx: Subcomplex, k: int) -> CohomologySpace:
    """Exact degree-k cohomology with canonical representatives."""
    if not 0 <= k <= cplx.model.n_gen:
        raise DegreeError(f"degree {k} outside [0, {cplx.model.n_gen}]")
    return cplx.space(k)


def betti_numbers(cplx: Subcomplex) -> tuple[int, ...]:
    """Cohomology dimensions of all degrees 0..n_gen."""
    return tuple(cplx.space(k).dimension
                 for k in range(cplx.model.n_gen + 1))


# ----- splitting isomorphisms ---------------------------------------------


@dataclass(frozen=True)
class SplittingMap:
    """Matrix of ([b], [b']) -> [b + w ^ b'] in the representative bases.

    Rows list the images of the H^k(outer) representatives followed by the
    H^(k-1)(outer) representatives; columns index H^k(inner).  rows are
    sparse; matrix is the same rows as dense tuples.
    """

    degree: int
    rows: tuple[dict[int, Fraction], ...]
    outer_dims: tuple[int, int]
    inner_dim: int

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return linalg.dense_rows(self.rows, self.inner_dim)


@dataclass(frozen=True)
class SplittingDegree:
    degree: int
    inner_dim: int
    outer_dim: int
    outer_prev_dim: int
    square: bool
    invertible: bool


@dataclass(frozen=True)
class SplittingReport:
    """Per-degree verdicts, with the splitting maps they were read from."""

    degrees: tuple[SplittingDegree, ...]
    ok: bool
    maps: tuple[SplittingMap, ...]

    def to_dict(self):
        return {
            "ok": self.ok,
            "degrees": [
                {"k": e.degree, "inner_dim": e.inner_dim,
                 "outer_dim": e.outer_dim, "outer_prev_dim": e.outer_prev_dim,
                 "square": e.square, "invertible": e.invertible}
                for e in self.degrees],
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
    return SplittingMap(k, rows,
                        (src1.dimension, src0.dimension), dst.dimension)


def splitting_check(model: StructureModel, w_form: Form, inner: Subcomplex,
                    outer: Subcomplex) -> SplittingReport:
    """Verify the splitting map is square and invertible in every degree."""
    entries = []
    maps = tuple(splitting_map(model, w_form, inner, outer, k)
                 for k in range(model.n_gen + 1))
    for k, sm in enumerate(maps):
        square = len(sm.rows) == sm.inner_dim
        invertible = square and linalg.rank(
            sm.rows, sm.inner_dim) == sm.inner_dim
        entries.append(SplittingDegree(k, sm.inner_dim, sm.outer_dims[0],
                                       sm.outer_dims[1], square, invertible))
    return SplittingReport(tuple(entries), all(e.invertible for e in entries),
                           maps)
