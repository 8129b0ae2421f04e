"""Subcomplexes of the invariant complex and their exact cohomology.

A Subcomplex owns, per degree, a basis of an admissible d-stable subspace
together with the restricted differential.  full_complex takes all
monomials, and row I of D_k is d(e_I) as the model keeps it, read by
column index; basic_complex takes the joint kernel of i_v and L_v over a
list of fields, built as the kernel of L_v on the exterior algebra of
the fields' annihilator, and its D is checked d-stable.  Operators reach
the slices as exterior.Operator values, mapping terms to terms.

Betti numbers come from ranks: b_k = dim C^k - rank d_k - rank d_(k-1),
once D_(k-1) D_k = 0 is checked; a rank is the one kept with the cycles
when they exist and a plain RREF otherwise.  space(k) builds the class
table on demand, and betti_numbers reads the dimension of a built space.
Cohomology is read in the coordinates of the cycles: the rows of
D_(k-1) reduced against the canonical cycle basis are the boundaries,
and one elimination of them, r x z for r rows and z cycles, picks the
representatives (the cycles independent of the image and of the cycles
before them) and gives the class of every cycle.  The representative
forms are built when first read, and no engine computation reads them:
every image is taken of their terms (_rep_terms, _image_classes).

Sparse inside, dense at the API: differential rows, kernels, images,
classes and the rows of a CohomologyMap are sparse vectors {column:
scalar} under the scalar rule of linalg; dense tuples are built only for
coords, class_of, diff_matrix and CohomologyMap.matrix.  Every degree
basis is an RREF over the monomials of its degree, hence its own
factorization: linalg.reduce reads a form's coordinates at the pivots,
and its residual is empty exactly when the form lies in the slice.  The
cycles of degree k, the left kernel of D_k in RREF, are taken once by
linalg.kernel_and_rank, which gives rank d_k too; their pivot index is
the membership test of class_of.  A Subcomplex keeps only the rows of d,
the cycles, the ranks and the spaces; other layers keep what they derive
(relations, chain-map certificates, class maps) themselves.  A
CohomologyMap (a splitting map, or a transversal Lefschetz map) keeps
its own rank, and a splitting report reads invertibility off its maps.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Sequence

from . import linalg
from .errors import (DegreeError, InternalConsistencyError, ModelMismatchError,
                     NotClosedError, PreconditionError)
from .exterior import (Form, Inclusion, Operator, Rational, Vector, Wedge,
                       _column_index, degree_masks)
from .model import Differential, LieDerivative, StructureModel
from .record import Record


class Subcomplex:
    """A graded d-stable subspace of the invariant forms of a model.  Each
    degree's basis must be in RREF over the monomials in ascending mask
    order, as linalg.pivot_index checks; ValueError otherwise."""

    def __init__(self, model: StructureModel, fields: Sequence[Vector],
                 bases: Sequence[Sequence[Form]], diff=None):
        n = model.n_gen
        self.model = model
        self.fields = tuple(fields)
        self.bases = tuple(tuple(b) for b in bases)
        if len(self.bases) != n + 1:
            raise ValueError("need one basis per degree 0..n_gen")
        # per degree, linalg.pivot_index on masks; monomials share one
        # index, which the monomial bases of full_complex (diff given) are
        self._pivots: list[tuple[dict, dict]] = []
        for k, basis in enumerate(self.bases):
            index = _column_index(n, k)
            if diff is not None:
                self._pivots.append((index, {}))
                continue
            try:
                at, off = linalg.pivot_index([f.terms for f in basis])
            except ValueError as exc:
                raise ValueError(f"degree {k} basis not in RREF: {exc}")
            self._pivots.append((index if at == index else at, off))
        # sparse rows of d from each degree, in subcomplex coordinates,
        # unless given; each must leave no residual
        if diff is None:
            d, diff = Differential(model), []
            for k in range(n + 1):
                diff.append([self._reduce_terms(d(f.terms), k + 1)
                             for f in self.bases[k]])
                if any(residual for _, residual in diff[k]):
                    raise InternalConsistencyError(
                        f"span is not closed under d in degree {k}; "
                        f"the fields do not cut out a subcomplex")
                diff[k] = [coords for coords, _ in diff[k]]
        self._diff: list[list[dict[int, Rational]]] = diff
        self._cycle_bases: dict[int, linalg.Matrix] = {}
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

    def _d(self, k: int) -> list[dict[int, Rational]]:
        return self._diff[k] if 0 <= k <= self.model.n_gen else []

    def _cycles(self, k: int) -> linalg.Matrix:
        """The canonical RREF basis of the cycles in degree k, the left
        kernel of D_k, taken once; the same elimination gives rank d_k."""
        cycles = self._cycle_bases.get(k)
        if cycles is None:
            cycles, self._ranks[k] = linalg.kernel_and_rank(self._d(k))
            self._cycle_bases[k] = cycles
        return cycles

    def _rank(self, k: int) -> int:
        """Rank of d from degree k: the one kept with the cycles when they
        exist, a plain RREF otherwise."""
        r = self._ranks.get(k)
        if r is None:
            r = self._ranks[k] = linalg.rank(self._d(k))
        return r

    def coords(self, form: Form, degree: int | None = None):
        """Coordinates of a form in the degree basis, or None if outside."""
        k = form.degree if degree is None else degree
        sol, residual = self._reduce(form, k)
        return None if residual else linalg.dense(sol, self.dim(k))

    def _reduce(self, form: Form, k: int) -> tuple[dict, dict]:
        """(sparse coordinates, residual) of a form against the degree-k
        basis (linalg.reduce); a nonzero form of another degree is all
        residual, and the form lies in the slice when none is left."""
        if form.n_gen != self.model.n_gen:
            raise ModelMismatchError("form does not live over this model")
        if form.degree != k or not 0 <= k <= self.model.n_gen:
            return {}, form.terms
        return self._reduce_terms(form.terms, k)

    def _reduce_terms(self, terms: dict, k: int) -> tuple[dict, dict]:
        """_reduce of the terms of a degree-k form, an operator's image: a
        nonempty one has masks of degree k, so k is a degree of the frame."""
        return linalg.reduce(terms, *self._pivots[k]) if terms else ({}, {})

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
        """H^k in the coordinates of the cycles K_0, ..., K_(z-1).  Each row
        of D_(k-1) must reduce to nothing against them (d d = 0); its
        coordinates are a boundary, with cycle i in column z-1-i.  A pivot
        of the RREF of the boundaries in these reversed columns is the
        largest cycle some boundary ends at, so K_i is a representative,
        independent of the image and of the cycles before it, exactly when
        column z-1-i is not a pivot.  Then its class is a unit vector, and
        otherwise the RREF row of pivot z-1-i gives it: minus each entry,
        at the representative of the entry's column."""
        if not self.dim(k):
            return CohomologySpace(self, k, [], ({}, {}), [])
        cycles = self._cycles(k)
        index = linalg.pivot_index(cycles)
        last = len(cycles) - 1
        bounds = []
        for row in self._d(k - 1):
            coords, residual = linalg.reduce(row, *index)
            if residual:
                raise InternalConsistencyError(
                    f"image is not contained in the kernel in degree {k}")
            bounds.append({last - i: x for i, x in coords.items()})
        rows, pivots = linalg.rref(bounds)
        bounded = set(pivots)
        reps = [i for i in range(last + 1) if last - i not in bounded]
        classes: list[dict[int, Rational]] = [{} for _ in cycles]
        for r, i in enumerate(reps):
            classes[i] = {r: 1}
        slot = {last - i: r for r, i in enumerate(reps)}
        for row, p in zip(rows, pivots):
            classes[last - p] = {slot[f]: -x for f, x in row.items()
                                 if f != p}
        return CohomologySpace(self, k, [cycles[i] for i in reps], index,
                               classes)

    def __repr__(self):
        label = "full" if not self.fields else f"basic({len(self.fields)})"
        return f"<Subcomplex {label} of {self.model!r}>"


class CohomologySpace:
    """One degree of the cohomology of a subcomplex.

    representatives are closed admissible forms whose classes form a basis;
    class_of maps any closed admissible form to its exact coordinates in
    that basis.  A form is closed exactly when its slice coordinates lie
    in the row space of the RREF basis K_i of the cycles, given by its
    pivot index: then it is sum_i c_i K_i, c_i its coordinate at the pivot
    of K_i, and its class is sum_i c_i classes[i].
    """

    def __init__(self, cplx: Subcomplex, degree: int,
                 rep_coords: list[dict[int, Rational]],
                 cycle_index: tuple[dict, dict],
                 classes: list[dict[int, Rational]]):
        self.complex = cplx
        self.degree = degree
        self.dimension = len(rep_coords)
        self._rep_coords = rep_coords
        self._cycle_index = cycle_index
        self._classes = classes

    @cached_property
    def representatives(self) -> tuple[Form, ...]:
        """The representative forms, built on first read."""
        cplx = self.complex
        return tuple(_combine(cplx.basis(self.degree), row, cplx.model.n_gen,
                              self.degree) for row in self._rep_coords)

    def class_of(self, form: Form) -> tuple[Rational, ...]:
        return tuple(linalg.dense(self._class_of(form), self.dimension))

    def _class_of(self, form: Form) -> dict[int, Rational]:
        """Sparse class of a closed element of the degree slice."""
        coords, residual = self.complex._reduce(form, self.degree)
        if residual:
            raise InternalConsistencyError(
                f"form of degree {form.degree} is not an element of the "
                f"degree-{self.degree} slice of the subcomplex")
        return self._class_of_coords(coords)

    def _class_of_coords(self, coords: dict[int, Rational]
                         ) -> dict[int, Rational]:
        """_class_of, given the coordinates in the slice basis: closed
        means no residual against the cycles, and the coordinates in the
        cycles weigh their classes; no product by D_k is taken."""
        cycle_coords, residual = linalg.reduce(coords, *self._cycle_index)
        if residual:
            raise PreconditionError(
                f"class_of needs a closed form in degree {self.degree}")
        out: dict[int, Rational] = {}
        for i, c in cycle_coords.items():
            linalg.add_scaled(out, c, self._classes[i])
        return out

    def __repr__(self):
        return (f"<CohomologySpace degree {self.degree} "
                f"dimension {self.dimension}>")


def _combine(basis: Sequence[Form], coords: dict[int, Rational], n_gen: int,
             degree: int) -> Form:
    """sum c_i basis[i] for sparse coordinates."""
    out: dict[int, Rational] = {}
    for i, c in coords.items():
        linalg.add_scaled(out, c, basis[i].terms)
    return Form._make(n_gen, max(degree, 0), out)


def _rep_terms(space: CohomologySpace) -> linalg.Matrix:
    """The terms {mask: coefficient} of the representatives; no Form."""
    basis = space.complex.basis(space.degree)
    return linalg.matmul(space._rep_coords, [f.terms for f in basis])


def _image_classes(src: CohomologySpace, dst: CohomologySpace,
                   op: Operator) -> list[dict[int, Rational]]:
    """The sparse classes in dst of op applied to the representatives of
    src, read from the images' coordinates in the slice of dst."""
    images = [dst.complex._reduce_terms(op(terms), dst.degree)
              for terms in _rep_terms(src)]
    if any(residual for _, residual in images):
        raise InternalConsistencyError(
            f"an image leaves the degree-{dst.degree} slice")
    return [dst._class_of_coords(coords) for coords, _ in images]


def _condition_rows(basis: Sequence[Form], operators: Sequence[Operator],
                    n_gen: int) -> list[dict[int, Rational]]:
    """Row i lays the images of basis[i] under the operator values side by
    side, keyed by monomial mask, the j-th image's offset by j 2^n_gen, so
    the keys of one row lie far apart.  A combination of the basis lies in
    the kernel of every operator exactly when it is in the left kernel of
    the rows."""
    span = 1 << n_gen
    return [{j * span + m: x for j, op in enumerate(operators)
             for m, x in op(f.terms).items()} for f in basis]


def full_complex(model: StructureModel) -> Subcomplex:
    """The whole invariant complex, with the monomial basis per degree,
    its own pivot index.  Row I of D_k is d(e_I) (model._d_monomial) read
    by column index: every monomial is in the complex, so no residual is
    left to check."""
    n = model.n_gen
    masks = [degree_masks(n, k) for k in range(n + 1)]
    upper = [_column_index(n, k + 1) for k in range(n + 1)]
    diff = [[{upper[k][m]: x for m, x in model._d_monomial(mask).items()}
             for mask in ms] for k, ms in enumerate(masks)]
    return Subcomplex(model, (), [[Form._make(n, k, {m: 1}) for m in ms]
                                  for k, ms in enumerate(masks)], diff)


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
             for row in linalg.left_kernel(pairing)]
    lie = [LieDerivative(model, v) for v in fields]
    # (index of the last factor, theta_I) for ascending index tuples I
    products = [(-1, Form.constant(n, 1))]
    bases = []
    for k in range(n + 1):
        forms = [f for _, f in products]
        kept = linalg.left_kernel(_condition_rows(forms, lie, n))
        bases.append([Form._make(n, k, row) for row in linalg.row_space(
            linalg.matmul(kept, [f.terms for f in forms]))])
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
    rows: tuple[dict[int, Rational], ...]
    target_dim: int

    @property
    def matrix(self) -> tuple[tuple[Rational, ...], ...]:
        return linalg.dense_rows(self.rows, self.target_dim)

    @property
    def square(self) -> bool:
        return len(self.rows) == self.target_dim

    @cached_property
    def rank(self) -> int:
        return linalg.rank(self.rows)

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
    return _splitting_map(w_form, inner, outer, k)


def _splitting_map(w_form: Form, inner: Subcomplex, outer: Subcomplex,
                   k: int) -> SplittingMap:
    """splitting_map once its setup and degree are checked."""
    src1, src0, dst = outer.space(k), outer.space(k - 1), inner.space(k)
    rows = tuple(_image_classes(src1, dst, Inclusion())
                 + _image_classes(src0, dst, Wedge(w_form)))
    return SplittingMap(k, rows, dst.dimension,
                        (src1.dimension, src0.dimension))


def splitting_check(model: StructureModel, w_form: Form, inner: Subcomplex,
                    outer: Subcomplex) -> SplittingReport:
    """The splitting map of every degree, the setup checked once; the
    report is ok when each is square and invertible."""
    _check_splitting_setup(model, w_form, inner, outer)
    return SplittingReport(tuple(_splitting_map(w_form, inner, outer, k)
                                 for k in range(model.n_gen + 1)))
