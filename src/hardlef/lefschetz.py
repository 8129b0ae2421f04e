"""Hard Lefschetz relations, maps, pairings and exact-sequence checks.

Throughout, L is exterior multiplication by d(eta).  The degree-k Lefschetz
relation of an l.c.s. structure of the first kind pairs the class of every
admissible k-form gamma (closed, L_U gamma = 0, i_V gamma = 0,
L^(n-k+2) gamma = 0, L^(n-k+1)(omega ^ gamma) = 0) with the class of

    eta ^ L^(n-k)(L i_U gamma - omega ^ gamma),

and the structure is Lefschetz in degree k when that relation is the graph
of an isomorphism H^k -> H^(2n+2-k).  The Lee-basic and contact variants
follow the same pattern with the simpler admissibility conditions
(closed, i_V beta = 0, L^(n-k+1) beta = 0) and target eta ^ L^(n-k) beta.
Everything is decided by exact rank computations; powers of L that exceed
the top degree are the zero map.  A relation is read over the cycles of
its source slice, in slice coordinates: the conditions and the target map
meet once each slice basis form that some cycle uses, and no other, and
no d of a form is taken.  They are operator values (exterior.Operator)
whose fixed factors are multiplied out once per degree: the target is
P ^ i_U gamma - Q ^ gamma for P = eta ^ L^(n-k) ^ d eta and Q = eta ^
L^(n-k) ^ omega.

The flow sequences compare cohomologies through maps induced by operators
on forms, linear in each degree: cup with d(eta), inclusion and i_V.
They are values, built where they are used: equal ones key the same
family of class maps.  When such an operator is certified a chain map on
the source slices of degrees a-1 and a (it lands in the target slices and
d op = +-op d on their basis forms), [x] -> [op x] is well defined and
its matrix is the classes of op applied to the source representatives.
The certificates are read in slice coordinates from the rows of the
differentials, and the classes from the same coordinates: the images of
op on the slice basis (_images).  The maps of one source complex, target
complex, operator and degree shift form a family, built in one pass
upwards in degree (_class_maps): the images of two consecutive slices are
its loop locals, so each slice is imaged and certified once per family
and no image outlives the pass.  An operator that is not certified falls
back to the relation of class pairs ([x], [op x]), which decides whether
the map is defined on every class and single valued; a family leaves out
a map that is not, and asking for it reports why.

Each model owns the memo of everything this layer computes from it:
complexes, relations, reports, the powers of d(eta), the families of
induced class maps and the Lee quotient.  A relation keeps its own graph
and verdict.  The map a graph is of, a transversal Lefschetz map and psi
are each a cohomology.CohomologyMap, which takes its one rank when its
injectivity, surjectivity or invertibility is first read.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from . import linalg
from .cohomology import (CohomologyMap, CohomologySpace, Subcomplex,
                         _condition_rows, _image_classes,
                         basic_complex, betti_numbers, full_complex,
                         splitting_check)
from .errors import (DegreeError, InternalConsistencyError, NotLefschetzError,
                     NotProjectableError, PreconditionError)
from .exterior import (Contraction, Form, Inclusion, Operator, Rational,
                       Wedge, merge_sign)
from .model import LieDerivative
from .record import Record
from .structures import ContactStructure, LcsStructure, quotient_contact


def _cached(model, key, build, *args):
    """The entry of key in the model's memo (an equal model has its own),
    build(*args) on first request; a build that raises stores nothing, so
    its error reaches every caller.  Keys are tagged by kind: ("complex",
    fields); (picture, structure, k) for a relation, which keeps its own
    graph and verdict; ("transversal", structure, k) for a transversal
    Lefschetz map, which keeps its own rank; ("parity", "equivalence",
    "quotient" or "powers", structure); ("class maps", source complex,
    target complex, operator value, degree shift) for a family of induced
    class maps, which an equal operator built elsewhere shares."""
    memo = model._memo
    if key not in memo:
        memo[key] = build(*args)
    return memo[key]


def _full(model) -> Subcomplex:
    return _basic(model, ())


def _basic(model, fields) -> Subcomplex:
    return _cached(model, ("complex", fields),
                   lambda: (basic_complex(model, fields) if fields
                            else full_complex(model)))


def _deta_powers(struct) -> tuple[Form, ...]:
    """(d eta)^0, ..., (d eta)^(n+2), each the wedge of the one before with
    d eta, once per structure."""
    return _cached(struct.model, ("powers", struct), lambda: tuple(accumulate(
        [struct.model.d(struct.eta)] * (struct.n + 2), Form.wedge,
        initial=Form.constant(struct.model.n_gen, 1))))


def _check_k(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise DegreeError(f"Lefschetz degree {k} outside [0, {n}]")


# ----- relations -----------------------------------------------------------


class CohomologyRelation(Record):
    """A linear subspace of H^a x H^b, stored by its canonical RREF basis:
    sparse rows, the H^b columns offset by dim H^a; span is dense.  Its
    graph and verdict are computed once, on first read."""

    source: CohomologySpace
    target: CohomologySpace
    rows: tuple[dict[int, Rational], ...]

    @classmethod
    def from_pairs(cls, source: CohomologySpace, target: CohomologySpace,
                   pairs) -> "CohomologyRelation":
        """The span of sparse class pairs (x, y)."""
        da = source.dimension
        rows = [{**x, **{da + j: c for j, c in y.items()}} for x, y in pairs]
        return cls(source, target, tuple(linalg.row_space(rows)))

    @property
    def span(self) -> tuple[tuple[Rational, ...], ...]:
        return linalg.dense_rows(
            self.rows, self.source.dimension + self.target.dimension)

    @cached_property
    def graph(self):
        """(total, functional, map): whether the relation is defined on
        every source class and single valued, and when both hold the map
        it is the graph of (a CohomologyMap).  In the canonical RREF, the
        rows with a pivot among the source columns have independent source
        parts and the others have none; when they are dim H^a and all of
        the rows, the rows are [I | M]."""
        da = self.source.dimension
        rows = self.rows
        x_rank = sum(1 for row in rows if min(row) < da)
        total = x_rank == da
        functional = x_rank == len(rows)
        if not (total and functional):
            return total, functional, None
        return total, functional, CohomologyMap(self.source.degree, tuple(
            {j - da: c for j, c in row.items() if j >= da} for row in rows),
            self.target.dimension)

    @cached_property
    def verdict(self) -> "LefschetzVerdict":
        return LefschetzVerdict(self.source.degree, *self.graph)


class LefschetzVerdict(Record):
    """Graph-of-isomorphism diagnosis of a relation: total, single valued
    and, when both, the map it is the graph of, which has one row per
    source class and is ranked once, on first read."""

    degree: int
    is_total: bool
    is_functional: bool
    map: CohomologyMap | None

    @property
    def is_injective(self) -> bool:
        return self.map is not None and self.map.rank == len(self.map.rows)

    @property
    def is_surjective(self) -> bool:
        return self.map is not None and self.map.rank == self.map.target_dim

    @property
    def is_graph_of_isomorphism(self) -> bool:
        return self.map is not None and self.map.invertible

    def to_dict(self):
        return {"k": self.degree, "total": self.is_total,
                "functional": self.is_functional,
                "injective": self.is_injective,
                "surjective": self.is_surjective,
                "graph_of_isomorphism": self.is_graph_of_isomorphism}


def is_graph_of_isomorphism(relation: CohomologyRelation) -> LefschetzVerdict:
    """Decide totality, functionality and invertibility by exact ranks,
    once per relation (its verdict)."""
    return relation.verdict


def _relation(src: CohomologySpace, dst: CohomologySpace,
              conditions: linalg.Matrix, images: tuple,
              label: str) -> CohomologyRelation:
    """The class pairs ([x], [op x]) over the cycles x of the source slice
    that the condition rows send to zero, in slice coordinates, given the
    images of op on the slice basis (_images).  The condition rows, keyed
    by any columns, and the images are indexed by slice basis form, and
    only the rows of the forms some cycle uses are read: lists over the
    whole basis or mappings from those indices.  x runs over the left
    kernel of (cycles . conditions) taken back through the cycles, and
    op x is x times the images' coordinates; op x must lie in the target
    slice (x cancels the residuals) and be closed there.  A Lefschetz
    relation takes its other admissibility conditions and the images of
    its target map (_cycle_relation), an induced map the conditions op
    behaves on (_relation_map); a slice outside degrees 0..n_gen is empty
    and has no cycles."""
    cplx, a, b = src.complex, src.degree, dst.degree
    cycles = cplx._cycles(a)
    xs = linalg.matmul(linalg.left_kernel(linalg.matmul(cycles, conditions)),
                       cycles)
    coords, residuals = images
    if any(linalg.matmul(xs, residuals)):
        raise InternalConsistencyError(
            f"{label} in degree {a} leaves the degree-{b} slice")
    try:
        ys = [dst._class_of_coords(y) for y in linalg.matmul(xs, coords)]
    except PreconditionError:
        raise InternalConsistencyError(
            f"{label} in degree {a} is not closed") from None
    return CohomologyRelation.from_pairs(
        src, dst, zip(map(src._class_of_coords, xs), ys))


def _cycle_relation(cplx: Subcomplex, k: int, b: int,
                    conditions: tuple[Operator, ...],
                    targets: tuple[Operator, ...],
                    label: str) -> CohomologyRelation:
    """The Lefschetz relation of degrees k and b of cplx: _relation with
    one condition row per operator of conditions and the images of the
    target map, the sum of the operators of targets.  Both are taken only
    on the degree-k basis rows that some cycle uses, and kept by basis
    index: cycles . conditions and xs . images read no other row."""
    basis = cplx._basis_rows(k)
    used = sorted({i for row in cplx._cycles(k) for i in row})
    rows = _condition_rows([basis[i] for i in used], conditions,
                           cplx.model.n_gen)
    coords, residuals = {}, {}
    for i in used:
        image = targets[0](basis[i])
        for op in targets[1:]:
            image = dict(image)
            linalg.add_scaled(image, 1, op(basis[i]))
        coords[i], residuals[i] = cplx._reduce_terms(image, b)
    return _relation(cplx.space(k), cplx.space(b), dict(zip(used, rows)),
                     (coords, residuals), label)


def de_rham_lefschetz_relation(struct: LcsStructure,
                               k: int) -> CohomologyRelation:
    """The degree-k relation between H^k and H^(2n+2-k)."""
    return _lefschetz_relation("de_rham", struct, k)


def basic_lefschetz_relation(struct: LcsStructure,
                             k: int) -> CohomologyRelation:
    """The degree-k relation inside the Lee-basic complex."""
    return _lefschetz_relation("basic", struct, k)


def contact_lefschetz_relation(contact: ContactStructure,
                               k: int) -> CohomologyRelation:
    """The degree-k relation between H^k(N) and H^(2n+1-k)(N)."""
    return _lefschetz_relation("contact", contact, k)


def _lefschetz_relation(picture: str, struct, k: int) -> CohomologyRelation:
    _check_k(k, struct.n)
    return _cached(struct.model, (picture, struct, k), _build_relation,
                   picture, struct, k)


def _build_relation(picture: str, struct, k: int) -> CohomologyRelation:
    """The degree-k relation of a picture, its fixed factors multiplied out
    once: de Rham as the module says; Lee-basic (field V, U-basic complex)
    and contact (field xi, full contact complex) with the conditions
    i_field and L^(n-k+1) and the target eta ^ L^(n-k)."""
    n, model = struct.n, struct.model
    powers = _deta_powers(struct)
    lead = struct.eta.wedge(powers[n - k])
    if picture == "de_rham":
        omega = struct.omega
        conditions = (LieDerivative(model, struct.U), Contraction(struct.V),
                      Wedge(powers[n - k + 2]),
                      Wedge(powers[n - k + 1].wedge(omega)))
        targets = (Wedge(lead.wedge(powers[1]), Contraction(struct.U)),
                   Wedge(-lead.wedge(omega)))
        return _cycle_relation(_full(model), k, 2 * n + 2 - k, conditions,
                               targets, "relation target")
    field, fields = ((struct.V, (struct.U,)) if picture == "basic"
                     else (struct.xi, ()))
    return _cycle_relation(
        _basic(model, fields), k, 2 * n + 1 - k,
        (Contraction(field), Wedge(powers[n - k + 1])), (Wedge(lead),),
        f"{picture} relation target")


def _isomorphism(relation: CohomologyRelation, k: int) -> LefschetzVerdict:
    verdict = is_graph_of_isomorphism(relation)
    if not verdict.is_graph_of_isomorphism:
        raise NotLefschetzError(k, verdict)
    return verdict


def lefschetz_map_de_rham(struct: LcsStructure, k: int):
    """Matrix of the degree-k Lefschetz isomorphism H^k -> H^(2n+2-k)."""
    return _isomorphism(de_rham_lefschetz_relation(struct, k), k).map.matrix


def lefschetz_map_basic(struct: LcsStructure, k: int):
    """Matrix of the degree-k Lee-basic Lefschetz isomorphism."""
    return _isomorphism(basic_lefschetz_relation(struct, k), k).map.matrix


# ----- transversal machinery -----------------------------------------------


def uv_basic_lefschetz(struct: LcsStructure, k: int) -> CohomologyMap:
    """The transversal Lefschetz map H^k_B(U,V) -> H^(2n-k)_B(U,V), cup
    with (d eta)^(n-k), built once per structure and degree; its rank is
    taken when its invertibility is first read."""
    n = struct.n
    _check_k(k, n)
    model = struct.model

    def build():
        uv = _basic(model, (struct.U, struct.V))
        dst = uv.space(2 * n - k)
        return CohomologyMap(k, tuple(_image_classes(
            uv.space(k), dst, Wedge(_deta_powers(struct)[n - k]))),
            dst.dimension)

    return _cached(model, ("transversal", struct, k), build)


def _images(src: Subcomplex, dst: Subcomplex, op: Operator, k: int,
            j: int) -> tuple[list, list]:
    """(coordinates, residuals) of op f in the degree-j slice of dst, over
    the basis rows f of the degree-k slice of src.  Nothing keeps them:
    _class_maps holds two slices at a time while it builds a family."""
    pairs = [dst._reduce_terms(op(row), j) for row in src._basis_rows(k)]
    return [c for c, _ in pairs], [r for _, r in pairs]


def _chain_slice(src: Subcomplex, dst: Subcomplex, k: int, j: int,
                 images: tuple[list, list], upper: tuple[list, list]) -> bool:
    """Whether op sends the degree-k slice of src into the degree-j slice
    of dst with d(op f) = s op(d f) on every basis form f, for one sign s,
    given the images of op on the degree-k and degree-(k+1) slice bases
    (_images).  No d of a form is taken: d(op f) is the coordinates of op f
    times the rows of d of dst, and op(d f), op being linear, the row of
    d f in src times the images of the degree-(k+1) basis, whose residuals
    must cancel."""
    coords, residuals = images
    if any(residuals):
        return False
    upper_coords, upper_residuals = upper
    if any(upper_residuals) and \
            any(linalg.matmul(src._d(k), upper_residuals)):
        return False
    lhs = linalg.matmul(coords, dst._d(j))
    rhs = linalg.matmul(src._d(k), upper_coords)
    return lhs == rhs or lhs == [{c: -x for c, x in row.items()}
                                 for row in rhs]


def _induced_map(src_space: CohomologySpace, dst_space: CohomologySpace,
                 op: Operator, label: str) -> linalg.Matrix:
    """Sparse matrix of the class map induced by op, or an error if ill
    defined.  It is read from the family of (source complex, target
    complex, op, degree shift), built once per model and shared, so
    callers never change it in place.  A degree the family lacks is ill
    defined and is not kept: its relation path runs again, with the
    caller's label, and raises."""
    src, dst = src_space.complex, dst_space.complex
    a, b = src_space.degree, dst_space.degree
    matrix = _cached(src.model, ("class maps", src, dst, op, b - a),
                     _class_maps, src, dst, op, b - a).get(a)
    if matrix is None:
        matrix = _relation_map(src_space, dst_space,
                               _images(src, dst, op, a, b), label)
    return matrix


def _class_maps(src: Subcomplex, dst: Subcomplex, op: Operator,
                shift: int) -> dict[int, linalg.Matrix]:
    """{a: matrix} of the class maps H^a(src) -> H^(a+shift)(dst) induced
    by op, for every degree a in -2..n_gen+2 where the map is well defined.
    One pass upwards in degree holds the images of slices a and a+1 and
    certifies slice a once.  When op is certified a chain map on slices a-1
    and a, [x] -> [op x] is defined on every class (closed forms go to
    closed forms) and single valued (exact to exact), and row i is the
    class of op applied to the i-th source representative, read from the
    images.  Otherwise the map is read off its relation of class pairs
    (_relation_map) over the same images, and left out when that finds it
    ill defined."""
    maps = {}
    certified = True  # slice -3 is empty
    upper = _images(src, dst, op, -2, shift - 2)
    for a in range(-2, src.model.n_gen + 3):
        images, upper = upper, _images(src, dst, op, a + 1, a + 1 + shift)
        below, certified = certified, _chain_slice(src, dst, a, a + shift,
                                                   images, upper)
        src_space, dst_space = src.space(a), dst.space(a + shift)
        if below and certified:
            maps[a] = [dst_space._class_of_coords(row) for row in
                       linalg.matmul(src_space._rep_coords, images[0])]
            continue
        try:
            maps[a] = _relation_map(src_space, dst_space, images,
                                    "induced map")
        except InternalConsistencyError:
            pass  # ill defined: _induced_map raises with its caller's label
    return maps


def _relation_map(src_space: CohomologySpace, dst_space: CohomologySpace,
                  images: tuple[list, list], label: str) -> linalg.Matrix:
    """The map read off the class pairs ([x], [op x]) over every cycle x
    that op behaves on, given the images of op on the source slice basis
    (_images): op x lies in the target slice and is closed.  Both
    conditions are rows over the source slice basis: the residuals against
    the target slice, keyed by monomial mask, and beside them, from column
    2^n_gen on, the images' coordinates times the target differential.
    The relation decides whether the map is defined on every class and
    single valued, and this raises if not; on a chain map it is the graph
    of the same matrix as the representatives give."""
    src, dst = src_space.complex, dst_space.complex
    b, span = dst_space.degree, 1 << src.model.n_gen
    coords, residuals = images
    conditions = [{**res, **{span + j: x for j, x in row.items()}} for res, row
                  in zip(residuals, linalg.matmul(coords, dst._d(b)))]
    total, functional, graph = _relation(
        src_space, dst_space, conditions, images, label).graph
    if not total:
        raise InternalConsistencyError(
            f"{label} is not defined on every class in the invariant model")
    if not functional:
        raise InternalConsistencyError(
            f"{label} is not single valued on classes in the invariant model")
    return list(graph.rows)


def t_map(struct: LcsStructure,
          k: int) -> tuple[tuple[Rational, ...], ...]:
    """The composite [id] . (transversal Lefschetz)^-1 . [i_V] from
    H^(2n+1-k)_B(U) to H^k_B(U); the two-sided inverse of the Lee-basic
    Lefschetz map whenever that map exists."""
    n = struct.n
    _check_k(k, n)
    model = struct.model
    u_cplx = _basic(model, (struct.U,))
    uv = _basic(model, (struct.U, struct.V))
    lef_uv = uv_basic_lefschetz(struct, k)
    if not lef_uv.invertible:
        raise PreconditionError(
            f"transversal Lefschetz map is not invertible in degree {k}")
    src = u_cplx.space(2 * n + 1 - k)
    mid = uv.space(2 * n - k)
    low = uv.space(k)
    dst = u_cplx.space(k)
    iv = _induced_map(src, mid, Contraction(struct.V),
                      "[i_V] on Lee-basic classes")
    inc = _induced_map(low, dst, Inclusion(), "[id] on (U,V)-basic classes")
    # invertible, checked above, so the inverse is never None
    l_inv = linalg.sparse_inverse(lef_uv.rows)
    t = linalg.matmul(linalg.matmul(iv, l_inv), inc)
    basic = is_graph_of_isomorphism(basic_lefschetz_relation(struct, k))
    if basic.is_graph_of_isomorphism:
        if linalg.matmul(basic.map.rows, t) != _identity(dst.dimension) or \
                linalg.matmul(t, basic.map.rows) != _identity(src.dimension):
            raise InternalConsistencyError(
                f"T_{k} is not inverse to the basic Lefschetz map")
    return linalg.dense_rows(t, dst.dimension)


def _identity(n: int) -> linalg.Matrix:
    return [{i: 1} for i in range(n)]


# ----- flow exact sequences -------------------------------------------------


class FlowChainReport(Record):
    """Exactness data of one Gysin-type chain."""

    label: str
    node_labels: tuple[str, ...]
    dims: tuple[int, ...]
    well_defined: bool
    failures: tuple[str, ...]
    compositions_vanish: bool
    exact: bool

    def to_dict(self):
        return {"label": self.label,
                "nodes": list(self.node_labels),
                "dims": list(self.dims),
                "well_defined": self.well_defined,
                "failures": list(self.failures),
                "compositions_vanish": self.compositions_vanish,
                "exact": self.exact}


class GysinReport(Record):
    """Both rows of the flow diagram plus their splitting linkage."""

    top: FlowChainReport
    bottom: FlowChainReport
    splitting_v: object
    splitting_full: object
    squares_commute: bool | None

    @property
    def ok(self) -> bool:
        # a chain is exact only when well defined with vanishing compositions
        return (self.top.exact and self.bottom.exact
                and self.splitting_v.ok and self.splitting_full.ok
                and bool(self.squares_commute))

    def to_dict(self):
        return {"ok": self.ok,
                "top": self.top.to_dict(),
                "bottom": self.bottom.to_dict(),
                "splitting_inner_v": self.splitting_v.to_dict(),
                "splitting_full": self.splitting_full.to_dict(),
                "squares_commute": self.squares_commute}


def _flow_chain(label: str, b_cplx: Subcomplex, a_cplx: Subcomplex,
                b_name: str, a_name: str, ops) -> FlowChainReport:
    eps_op, inc_op, iv_op = ops
    spaces = [b_cplx.space(-2)]
    node_labels = [f"{b_name}(-2)"]
    maps: list[linalg.Matrix | None] = []
    failures: list[str] = []

    def append(space, name, op, desc):
        src = spaces[-1]
        try:
            maps.append(_induced_map(src, space, op, desc))
        except InternalConsistencyError as exc:
            maps.append(None)
            failures.append(str(exc))
        spaces.append(space)
        node_labels.append(name)

    for k in range(-2, b_cplx.model.n_gen + 1):
        append(b_cplx.space(k + 2), f"{b_name}({k + 2})", eps_op,
               f"[eps_deta] {b_name}({k})->{b_name}({k + 2})")
        append(a_cplx.space(k + 2), f"{a_name}({k + 2})", inc_op,
               f"[id] {b_name}({k + 2})->{a_name}({k + 2})")
        append(b_cplx.space(k + 1), f"{b_name}({k + 1})", iv_op,
               f"[i_V] {a_name}({k + 2})->{b_name}({k + 1})")
    dims = tuple(sp.dimension for sp in spaces)
    well_defined = not failures
    if not well_defined:
        return FlowChainReport(label, tuple(node_labels), dims, False,
                               tuple(failures), False, False)
    comps_ok = True
    for i in range(len(maps) - 1):
        if any(linalg.matmul(maps[i], maps[i + 1])):
            comps_ok = False
            failures.append(f"composition through {node_labels[i + 1]} "
                            f"does not vanish")
    # map i runs from node i to node i+1; each is ranked once
    ranks = [linalg.rank(m) for m in maps]
    bad = [node_labels[i] for i in range(1, len(spaces) - 1)
           if ranks[i - 1] != dims[i] - ranks[i]]
    if bad:
        failures.append(f"exactness fails at {', '.join(bad)}")
    return FlowChainReport(label, tuple(node_labels), dims, True,
                           tuple(failures), comps_ok, not bad and comps_ok)


def _splitting_matrix(report, outer: Subcomplex, k: int) -> linalg.Matrix:
    """Degree-k sparse splitting matrix from splitting_check's report.
    Outside degrees 0..n_gen the inner space is zero, so each of the
    dim H^k(outer) + dim H^(k-1)(outer) rows is empty."""
    if 0 <= k < len(report.maps):
        return report.maps[k].rows
    return [{} for _ in range(outer.space(k).dimension
                              + outer.space(k - 1).dimension)]


def _squares_commute(ops, v_cplx: Subcomplex, full_c: Subcomplex,
                     uv: Subcomplex, u_cplx: Subcomplex, splitting_v,
                     splitting_full) -> bool:
    """Each map of the top row, composed after the splitting of its source,
    equals the splitting of its target after the block-diagonal map of the
    bottom row.  A row is (inner, outer, splitting report); a square is
    (source row, target row, operator, degree shift, sign of the lower
    block); i_V crosses the 1-form omega in the lower summand, hence its
    sign.  The block-diagonal map stacks the upper map over the lower one,
    whose columns are offset by the dimension of the upper target."""
    eps_op, ident, iv_op = ops
    rows = ((v_cplx, uv, splitting_v), (full_c, u_cplx, splitting_full))
    squares = ((0, 0, eps_op, 2, 1, "[eps]"), (0, 1, ident, 0, 1, "[id]"),
               (1, 0, iv_op, -1, -1, "[i_V]"))
    for k in range(0, full_c.model.n_gen + 1):
        for a, b, op, shift, sign, label in squares:
            inner_a, outer_a, report_a = rows[a]
            inner_b, outer_b, report_b = rows[b]
            j = k + shift
            lhs = linalg.matmul(
                _splitting_matrix(report_a, outer_a, k),
                _induced_map(inner_a.space(k), inner_b.space(j), op, label))
            offset = outer_b.space(j).dimension
            low = _induced_map(outer_a.space(k - 1), outer_b.space(j - 1),
                               op, label)
            block = _induced_map(outer_a.space(k), outer_b.space(j), op,
                                 label) + \
                [{offset + i: sign * x for i, x in row.items()} for row in low]
            if lhs != linalg.matmul(
                    block, _splitting_matrix(report_b, outer_b, j)):
                return False
    return True


def gysin_sequence_check(struct: LcsStructure) -> GysinReport:
    """Verify both flow sequences and their splitting linkage.

    The top row runs through the anti-Lee-basic cohomology and the full
    cohomology; the bottom row through the (U,V)-basic and Lee-basic
    cohomologies.  Failures are reported, never raised.
    """
    model = struct.model
    v_cplx = _basic(model, (struct.V,))
    u_cplx = _basic(model, (struct.U,))
    uv = _basic(model, (struct.U, struct.V))
    full_c = _full(model)
    ops = (Wedge(_deta_powers(struct)[1]), Inclusion(),
           Contraction(struct.V))
    top = _flow_chain("anti-Lee flow sequence", v_cplx, full_c,
                      "H_B(V)", "H", ops)
    bottom = _flow_chain("transversal flow sequence", uv, u_cplx,
                         "H_B(U,V)", "H_B(U)", ops)
    splitting_v = splitting_check(model, struct.omega, v_cplx, uv)
    splitting_full = splitting_check(model, struct.omega, full_c, u_cplx)
    squares = None
    if top.well_defined and bottom.well_defined:
        squares = _squares_commute(ops, v_cplx, full_c, uv, u_cplx,
                                   splitting_v, splitting_full)
    return GysinReport(top, bottom, splitting_v, splitting_full, squares)


# ----- pairing, parity, equivalence -----------------------------------------


class PairingResult(CohomologyMap):
    """psi on degree-k Lee-basic cohomology: its Gram matrix as the sparse
    rows of a square map, nondegenerate when that map is invertible."""

    symmetric: bool
    skew: bool

    @property
    def nondegenerate(self) -> bool:
        return self.invertible

    @property
    def parity_ok(self) -> bool:
        """psi is symmetric for even k and skew for odd k."""
        return self.skew if self.degree % 2 else self.symmetric

    def to_dict(self):
        matrix = [["0"] * len(self.rows) for _ in self.rows]
        for row, entries in zip(matrix, self.rows):
            for j, x in entries.items():
                row[j] = str(x)
        return {"k": self.degree,
                "matrix": matrix,
                "nondegenerate": self.nondegenerate,
                "parity_ok": self.parity_ok,
                "symmetric": self.symmetric,
                "skew": self.skew}


def pairing_psi(struct: LcsStructure, k: int) -> PairingResult:
    """Gram matrix of psi([a], [b]) on the representative basis.

    psi pairs a class with the Lefschetz image of the other through the
    top coefficient of omega ^ lef(a) ^ b; defined whenever the Lee-basic
    Lefschetz map exists in degree k.  A mask m of omega ^ lef(a) meets
    the terms of b at full ^ m, which index them, signed by merge_sign.
    """
    n = struct.n
    if not 1 <= k <= n:
        raise DegreeError(f"psi is defined for 1 <= k <= {n}, got {k}")
    lef = _isomorphism(basic_lefschetz_relation(struct, k), k).map.rows
    u_cplx = _basic(struct.model, (struct.U,))
    full = (1 << struct.model.n_gen) - 1
    index: dict[int, dict[int, Rational]] = {}
    for j, terms in enumerate(u_cplx.space(k)._rep_terms):
        for m, b in terms.items():
            index.setdefault(full ^ m, {})[j] = \
                b if merge_sign(full ^ m, m) > 0 else -b
    images = map(Wedge(struct.omega), linalg.matmul(
        lef, u_cplx.space(2 * n + 1 - k)._rep_terms))
    psi = linalg.matmul([{m: x for m, x in w.items() if m in index}
                         for w in images], index)
    # an entry x at (i, j) needs x (symmetric) or -x (skew) at (j, i)
    entries = [(i, j, x) for i, row in enumerate(psi) for j, x in row.items()]
    symmetric = all(psi[j].get(i) == x for i, j, x in entries)
    skew = all(psi[j].get(i) == -x for i, j, x in entries)
    return PairingResult(k, tuple(psi), len(psi), symmetric, skew)


class BettiParityReport(Record):
    """Betti numbers, Lee-basic Betti numbers and their two identities."""

    betti: tuple[int, ...]
    basic_betti: tuple[int, ...]
    parity_ok: bool
    odd_failures: tuple[int, ...]
    sum_identity_ok: bool

    def to_dict(self):
        return {"betti": list(self.betti),
                "basic_betti": list(self.basic_betti),
                "parity_ok": self.parity_ok,
                "odd_failures": list(self.odd_failures),
                "b_equals_c_sum": self.sum_identity_ok}


def betti_parity_check(struct: LcsStructure) -> BettiParityReport:
    """Evenness of b_k - b_(k-1) for odd k <= n, and b_k = c_k + c_(k-1)."""
    return _cached(struct.model, ("parity", struct), _betti_parity, struct)


def _betti_parity(struct: LcsStructure) -> BettiParityReport:
    model = struct.model
    betti = betti_numbers(_full(model))
    basic = betti_numbers(_basic(model, (struct.U,)))
    failures = []
    for k in range(1, struct.n + 1, 2):
        if (betti[k] - betti[k - 1]) % 2:
            failures.append(k)
    return BettiParityReport(betti, basic, not failures, tuple(failures),
                             _sum_identity(betti, basic))


def _sum_identity(betti, basic) -> bool:
    """b_k = c_k + c_(k-1) in every degree, with c_(-1) = 0."""
    return all(b == c + (basic[k - 1] if k else 0)
               for k, (b, c) in enumerate(zip(betti, basic)))


class DegreeVerdicts(Record):
    degree: int
    de_rham: bool
    basic: bool
    contact: bool | None


class LefschetzEquivalenceReport(Record):
    """Per-degree Lefschetz verdicts in the three pictures.

    The aggregates must agree for structures satisfying the parallel-Lee
    hypotheses; disagreement is reported as a model assumption violation,
    never reconciled silently.
    """

    per_degree: tuple[DegreeVerdicts, ...]
    de_rham_all: bool
    basic_all: bool
    contact_all: bool | None
    contact_available: bool
    agree: bool
    note: str

    def to_dict(self):
        return {"per_degree": [
                    {"k": v.degree, "de_rham": v.de_rham, "basic": v.basic,
                     "contact": v.contact} for v in self.per_degree],
                "de_rham_all": self.de_rham_all,
                "basic_all": self.basic_all,
                "contact_all": self.contact_all,
                "contact_available": self.contact_available,
                "agree": self.agree,
                "note": self.note}


def lefschetz_equivalence_report(struct: LcsStructure) -> LefschetzEquivalenceReport:
    """Evaluate all three verdict vectors and compare their aggregates."""
    return _cached(struct.model, ("equivalence", struct), _equivalence,
                   struct)


def _quotient(struct: LcsStructure) -> ContactStructure:
    """quotient_contact of the structure, built once: its model then keeps
    the contact relations for every later caller."""
    return _cached(struct.model, ("quotient", struct), quotient_contact,
                   struct)


def _equivalence(struct: LcsStructure) -> LefschetzEquivalenceReport:
    n = struct.n
    try:
        contact = _quotient(struct)
    except NotProjectableError:
        contact = None
    per = []
    for k in range(n + 1):
        dr = is_graph_of_isomorphism(
            de_rham_lefschetz_relation(struct, k)).is_graph_of_isomorphism
        ba = is_graph_of_isomorphism(
            basic_lefschetz_relation(struct, k)).is_graph_of_isomorphism
        co = None
        if contact is not None:
            co = is_graph_of_isomorphism(
                contact_lefschetz_relation(contact, k)).is_graph_of_isomorphism
        per.append(DegreeVerdicts(k, dr, ba, co))
    de_rham_all = all(v.de_rham for v in per)
    basic_all = all(v.basic for v in per)
    contact_all = (all(v.contact for v in per)
                   if contact is not None else None)
    agree = de_rham_all == basic_all and (
        contact_all is None or contact_all == de_rham_all)
    note = ("" if agree else
            "model assumption violation: the Lefschetz verdicts disagree "
            "between the de Rham, Lee-basic and quotient contact pictures")
    return LefschetzEquivalenceReport(tuple(per), de_rham_all, basic_all,
                                      contact_all, contact is not None,
                                      agree, note)


def search_lefschetz_mismatches(structures) -> list:
    """Scan structures for disagreement between the de Rham and Lee-basic
    aggregates; returns the offending (structure, report) pairs."""
    out = []
    for struct in structures:
        report = lefschetz_equivalence_report(struct)
        if report.de_rham_all != report.basic_all:
            out.append((struct, report))
    return out
