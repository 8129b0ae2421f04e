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
the top degree are the zero map.

The flow sequences compare cohomologies through maps induced by operators
on forms: cup with d(eta), inclusion and i_V, made once per structure.
When such an operator is certified a chain map on the source slices of
degrees a-1 and a (it lands in the target slices and d op = +-op d on
their basis forms), [x] -> [op x] is well defined and its matrix is the
classes of op applied to the source representatives.  An operator that is
not certified falls back to the relation of class pairs ([x], [op x]),
which decides whether the map is defined on every class and single valued
and reports it when it is not.

Each model owns the memo of everything this layer computes from it:
complexes, relations, reports, the flow operators, chain-slice
certificates, induced class maps and the Lee quotient.  A relation keeps
its own graph and verdict, and a transversal Lefschetz map (a
cohomology.CohomologyMap) its own rank; they live and die with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import linalg
from .cohomology import (CohomologyMap, CohomologySpace, Subcomplex,
                         _combine, _joint_kernel, basic_complex,
                         betti_numbers, full_complex, splitting_check)
from .errors import (DegreeError, InternalConsistencyError, NotLefschetzError,
                     NotProjectableError, PreconditionError)
from .exterior import Form, contract, top_pairing, wedge_power
from .record import Record
from .structures import ContactStructure, LcsStructure, quotient_contact


def _cached(model, key, build):
    """The entry of key in the model's memo (an equal model has its own),
    built on first request; a build that raises stores nothing, so its
    error reaches every caller.  Keys are tagged by kind: ("complex",
    fields); (picture, structure, k) for a relation, which keeps its own
    graph and verdict; ("transversal", structure, k) for a transversal
    Lefschetz map, which keeps its own rank; ("parity", "equivalence" or
    "quotient", structure); ("flow operators", structure); ("chain slice",
    source complex, target complex, operator, k, j); ("class map", source
    space, target space, operator)."""
    memo = model._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _full(model) -> Subcomplex:
    return _basic(model, ())


def _basic(model, fields) -> Subcomplex:
    return _cached(model, ("complex", fields),
                   lambda: (basic_complex(model, fields) if fields
                            else full_complex(model)))


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
    rows: tuple[dict[int, Fraction], ...]

    @classmethod
    def from_pairs(cls, source: CohomologySpace, target: CohomologySpace,
                   pairs) -> "CohomologyRelation":
        """The span of sparse class pairs (x, y)."""
        da = source.dimension
        rows = [{**x, **{da + j: c for j, c in y.items()}} for x, y in pairs]
        return cls(source, target, tuple(
            linalg.row_space(rows, da + target.dimension)))

    @property
    def span(self) -> tuple[tuple[Fraction, ...], ...]:
        return linalg.dense_rows(
            self.rows, self.source.dimension + self.target.dimension)

    @cached_property
    def graph(self):
        """(total, functional, matrix): whether the relation is defined on
        every source class and single valued, and when both hold the sparse
        matrix of the map it is the graph of.  In the canonical RREF, the
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
        return total, functional, [
            {j - da: c for j, c in row.items() if j >= da} for row in rows]

    @cached_property
    def verdict(self) -> "LefschetzVerdict":
        return _verdict(self)


class LefschetzVerdict(Record):
    """Graph-of-isomorphism diagnosis of a cohomology relation."""

    degree: int
    is_total: bool
    is_functional: bool
    is_injective: bool
    is_surjective: bool
    rows: tuple[dict[int, Fraction], ...] | None
    target_dim: int

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The rows of the map as dense tuples, when it is one."""
        return (None if self.rows is None
                else linalg.dense_rows(self.rows, self.target_dim))

    @property
    def is_graph_of_isomorphism(self) -> bool:
        return (self.is_total and self.is_functional
                and self.is_injective and self.is_surjective)

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


def _verdict(relation: CohomologyRelation) -> LefschetzVerdict:
    total, functional, m = relation.graph
    width = relation.target.dimension
    injective = surjective = False
    if m is not None:
        r = linalg.rank(m, width)
        injective = r == relation.source.dimension
        surjective = r == width
        m = tuple(m)
    return LefschetzVerdict(relation.source.degree, total, functional,
                            injective, surjective, m, width)


def _relation(src: CohomologySpace, dst: CohomologySpace,
              conditions: Sequence[Callable[[Form], Form]],
              op: Callable[[Form], Form], label: str) -> CohomologyRelation:
    """The class pairs ([x], [op x]) over the x of the source slice that
    every condition sends to zero, their joint kernel; op x must be closed.
    A Lefschetz relation takes the admissible forms and its target map; an
    induced map takes the forms op behaves on (_relation_map)."""
    cplx = src.complex
    d = cplx.model.d
    pairs = []
    for x in _joint_kernel(cplx.basis(src.degree), conditions,
                           cplx.model.n_gen, src.degree):
        y = op(x)
        if not d(y).is_zero():
            raise InternalConsistencyError(
                f"{label} in degree {src.degree} is not closed")
        pairs.append((src._class_of(x), dst._class_of(y)))
    return CohomologyRelation.from_pairs(src, dst, pairs)


def de_rham_lefschetz_relation(struct: LcsStructure,
                               k: int) -> CohomologyRelation:
    """The degree-k relation between H^k and H^(2n+2-k)."""
    n = struct.n
    _check_k(k, n)
    model = struct.model

    def build():
        deta = model.d(struct.eta)
        l_high = wedge_power(deta, n - k + 2)
        l_mid = wedge_power(deta, n - k + 1)
        l_low = wedge_power(deta, n - k)
        ops = (model.d,
               lambda f: model.lie_derivative(struct.U, f),
               lambda f: contract(struct.V, f),
               lambda f: l_high.wedge(f),
               lambda f: l_mid.wedge(struct.omega.wedge(f)))

        def target(gamma):
            # i_U of a 0-form is zero, and zero forms add in any degree
            liu = deta.wedge(contract(struct.U, gamma))
            return struct.eta.wedge(
                l_low.wedge(liu - struct.omega.wedge(gamma)))

        cplx = _full(model)
        return _relation(cplx.space(k), cplx.space(2 * n + 2 - k), ops,
                         target, "relation target")

    return _cached(model, ("de_rham", struct, k), build)


def basic_lefschetz_relation(struct: LcsStructure,
                             k: int) -> CohomologyRelation:
    """The degree-k relation inside the Lee-basic complex."""
    return _odd_relation("basic", struct, struct.V, (struct.U,), k)


def contact_lefschetz_relation(contact: ContactStructure,
                               k: int) -> CohomologyRelation:
    """The degree-k relation between H^k(N) and H^(2n+1-k)(N)."""
    return _odd_relation("contact", contact, contact.xi, (), k)


def _odd_relation(picture: str, struct, field, fields,
                  k: int) -> CohomologyRelation:
    """The degree-k relation between degrees k and 2n+1-k of the complex
    basic for fields: the Lee-basic picture (field V, fields (U,)) or the
    contact one (field xi, the full complex of the contact model)."""
    n = struct.n
    _check_k(k, n)
    model = struct.model

    def build():
        deta = model.d(struct.eta)
        l_mid = wedge_power(deta, n - k + 1)
        l_low = wedge_power(deta, n - k)
        ops = (model.d,
               lambda f: contract(field, f),
               lambda f: l_mid.wedge(f))
        cplx = _basic(model, fields)
        return _relation(cplx.space(k), cplx.space(2 * n + 1 - k), ops,
                         lambda beta: struct.eta.wedge(l_low.wedge(beta)),
                         f"{picture} relation target")

    return _cached(model, (picture, struct, k), build)


def _isomorphism(relation: CohomologyRelation, k: int) -> LefschetzVerdict:
    verdict = is_graph_of_isomorphism(relation)
    if not verdict.is_graph_of_isomorphism:
        raise NotLefschetzError(k, verdict)
    return verdict


def lefschetz_map_de_rham(struct: LcsStructure, k: int):
    """Matrix of the degree-k Lefschetz isomorphism H^k -> H^(2n+2-k)."""
    return _isomorphism(de_rham_lefschetz_relation(struct, k), k).matrix


def lefschetz_map_basic(struct: LcsStructure, k: int):
    """Matrix of the degree-k Lee-basic Lefschetz isomorphism."""
    return _isomorphism(basic_lefschetz_relation(struct, k), k).matrix


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
        src = uv.space(k)
        dst = uv.space(2 * n - k)
        power = wedge_power(model.d(struct.eta), n - k)
        return CohomologyMap(k, tuple(dst._class_of(power.wedge(rep))
                                      for rep in src.representatives),
                             dst.dimension)

    return _cached(model, ("transversal", struct, k), build)


def _flow_ops(struct: LcsStructure) -> tuple:
    """(cup with d eta, inclusion, i_V), made once per structure, so that
    the flow sequences and T_k share their class maps."""
    def build():
        deta = struct.model.d(struct.eta)
        return (lambda f: deta.wedge(f), lambda f: f,
                lambda f: contract(struct.V, f))
    return _cached(struct.model, ("flow operators", struct), build)


def _chain_slice(src: Subcomplex, dst: Subcomplex,
                 op: Callable[[Form], Form], k: int, j: int) -> bool:
    """Whether op sends the degree-k slice of src into the degree-j slice
    of dst with d(op f) = s op(d f) on every basis form f, for one sign s."""
    d = src.model.d
    pairs = []
    for f in src.basis(k):
        g = op(f)
        if dst._coords(g, j) is None:
            return False
        pairs.append((d(g), op(d(f))))
    return (all(x == y for x, y in pairs)
            or all(x == -y for x, y in pairs))


def _is_chain_map(src_space: CohomologySpace, dst_space: CohomologySpace,
                  op: Callable[[Form], Form]) -> bool:
    """Whether op is certified a chain map on the source slices of degrees
    a-1 and a, which makes [x] -> [op x] defined on every class (closed
    forms go to closed forms) and single valued (exact to exact).  Each
    slice verdict is computed once per model."""
    src, dst = src_space.complex, dst_space.complex
    a = src_space.degree
    shift = dst_space.degree - a
    return all(_cached(src.model, ("chain slice", src, dst, op, k, k + shift),
                       lambda k=k: _chain_slice(src, dst, op, k, k + shift))
               for k in (a - 1, a))


def _induced_map(src_space: CohomologySpace, dst_space: CohomologySpace,
                 op: Callable[[Form], Form], label: str) -> linalg.Matrix:
    """Sparse matrix of the class map induced by op, or an error if ill
    defined; built once per (source, target, operator) of a model, and
    shared, so callers never change it in place."""
    return _cached(src_space.complex.model,
                   ("class map", src_space, dst_space, op),
                   lambda: _class_map(src_space, dst_space, op, label))


def _class_map(src_space: CohomologySpace, dst_space: CohomologySpace,
               op: Callable[[Form], Form], label: str) -> linalg.Matrix:
    """When op is certified a chain map (_is_chain_map), row i is the class
    of op applied to the i-th source representative; otherwise the map is
    read off its relation of class pairs (_relation_map)."""
    if _is_chain_map(src_space, dst_space, op):
        return [dst_space._class_of(op(rep))
                for rep in src_space.representatives]
    return _relation_map(src_space, dst_space, op, label)


def _relation_map(src_space: CohomologySpace, dst_space: CohomologySpace,
                  op: Callable[[Form], Form], label: str) -> linalg.Matrix:
    """The map read off the class pairs ([x], [op x]) over every x op
    behaves on: closed slice elements whose image is closed and lies in
    the target slice.  The relation decides whether the map is defined on
    every class and single valued, and this raises if not; on a chain map
    it is the graph of the same matrix as the representatives give."""
    model = src_space.complex.model
    n, b = model.n_gen, dst_space.degree
    conditions = [model.d, lambda f: model.d(op(f))]
    if 0 <= b <= n:
        # the part of op f off the target slice, as a b-form
        at, off = dst_space.complex._pivots[b]
        conditions.append(lambda f: Form._make(
            n, b, linalg.reduce(op(f).terms, at, off)[1]))
    total, functional, matrix = _relation(
        src_space, dst_space, conditions, op, label).graph
    if not total:
        raise InternalConsistencyError(
            f"{label} is not defined on every class in the invariant model")
    if not functional:
        raise InternalConsistencyError(
            f"{label} is not single valued on classes in the invariant model")
    return matrix


def t_map(struct: LcsStructure, k: int) -> tuple[tuple[Fraction, ...], ...]:
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
    _, inc_op, iv_op = _flow_ops(struct)
    iv = _induced_map(src, mid, iv_op, "[i_V] on Lee-basic classes")
    inc = _induced_map(low, dst, inc_op, "[id] on (U,V)-basic classes")
    # invertible, so the combinations that reduce it to I are its inverse
    l_inv = linalg.Echelon(lef_uv.rows, lef_uv.target_dim).sparse_combos
    t = linalg.matmul(linalg.matmul(iv, l_inv), inc)
    basic = is_graph_of_isomorphism(basic_lefschetz_relation(struct, k))
    if basic.is_graph_of_isomorphism:
        if linalg.matmul(basic.rows, t) != _identity(dst.dimension) or \
                linalg.matmul(t, basic.rows) != _identity(src.dimension):
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
                b_name: str, a_name: str, ops,
                top_k: int) -> FlowChainReport:
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

    for k in range(-2, top_k + 1):
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
    ranks = [linalg.rank(m, dims[i + 1]) for i, m in enumerate(maps)]
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
    ops = _flow_ops(struct)
    top = _flow_chain("anti-Lee flow sequence", v_cplx, full_c,
                      "H_B(V)", "H", ops, model.n_gen)
    bottom = _flow_chain("transversal flow sequence", uv, u_cplx,
                         "H_B(U,V)", "H_B(U)", ops, model.n_gen)
    splitting_v = splitting_check(model, struct.omega, v_cplx, uv)
    splitting_full = splitting_check(model, struct.omega, full_c, u_cplx)
    squares = None
    if top.well_defined and bottom.well_defined:
        squares = _squares_commute(ops, v_cplx, full_c, uv, u_cplx,
                                   splitting_v, splitting_full)
    return GysinReport(top, bottom, splitting_v, splitting_full, squares)


# ----- pairing, parity, equivalence -----------------------------------------


class PairingResult(Record):
    """The bilinear form psi on degree-k Lee-basic cohomology."""

    degree: int
    matrix: tuple[tuple[Fraction, ...], ...]
    nondegenerate: bool
    parity_ok: bool
    symmetric: bool
    skew: bool

    def to_dict(self):
        return {"k": self.degree,
                "matrix": [[str(x) for x in row] for row in self.matrix],
                "nondegenerate": self.nondegenerate,
                "parity_ok": self.parity_ok,
                "symmetric": self.symmetric,
                "skew": self.skew}


def pairing_psi(struct: LcsStructure, k: int) -> PairingResult:
    """Gram matrix of psi([a], [b]) on the representative basis.

    psi pairs a class with the Lefschetz image of the other through the
    top coefficient of omega ^ lef(a) ^ b; defined whenever the Lee-basic
    Lefschetz map exists in degree k.
    """
    n = struct.n
    if not 1 <= k <= n:
        raise DegreeError(f"psi is defined for 1 <= k <= {n}, got {k}")
    lef = _isomorphism(basic_lefschetz_relation(struct, k), k).rows
    model = struct.model
    u_cplx = _basic(model, (struct.U,))
    src = u_cplx.space(k)
    dst = u_cplx.space(2 * n + 1 - k)
    lef_forms = [_combine(dst.representatives, row, model.n_gen,
                          2 * n + 1 - k) for row in lef]
    psi = [[top_pairing(w, rep) for rep in src.representatives]
           for w in (struct.omega.wedge(f) for f in lef_forms)]
    d = src.dimension
    # one scan over i <= j: the diagonal counts, as skew needs psi[i][i] = 0
    symmetric = skew = True
    for i, row in enumerate(psi):
        for j in range(i, d):
            a, b = row[j], psi[j][i]
            if a == b:
                skew = skew and not a
            else:
                symmetric = False
                skew = skew and a == -b
    nondegenerate = linalg.rank([linalg.sparse(r) for r in psi], d) == d
    # parity_ok: psi is symmetric for even k and skew for odd k
    return PairingResult(k, tuple(tuple(r) for r in psi), nondegenerate,
                         skew if k % 2 else symmetric, symmetric, skew)


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
    return _cached(struct.model, ("parity", struct),
                   lambda: _betti_parity(struct))


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
    return _cached(struct.model, ("equivalence", struct),
                   lambda: _equivalence(struct))


def _quotient(struct: LcsStructure) -> ContactStructure:
    """quotient_contact of the structure, built once: its model then keeps
    the contact relations for every later caller."""
    return _cached(struct.model, ("quotient", struct),
                   lambda: quotient_contact(struct))


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
