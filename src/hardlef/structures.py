"""Contact and locally conformal symplectic structures of the first kind.

An l.c.s. structure of the first kind on a 2n+2 dimensional model is a
pair of 1-forms (omega, eta) with omega closed, d(eta) of rank 2n and
omega ^ eta ^ (d eta)^n a volume form.  The Lee field U and anti-Lee field
V are the unique solutions of

    omega(U) = 1, eta(U) = 0, i_U d(eta) = 0,
    omega(V) = 0, eta(V) = 1, i_V d(eta) = 0,

and Omega = d(eta) + eta ^ omega is the associated nondegenerate 2-form.
A contact structure on an odd model is a 1-form with eta ^ (d eta)^n a
volume form, with its Reeb field.  validate_* check everything exactly and
solve the characterizing systems; the product and quotient constructions
move between the two pictures.
"""

from __future__ import annotations

from . import linalg
from .errors import (DegreeError, InternalConsistencyError, ModelMismatchError,
                     NonUniqueLeeFieldError, NonUniqueReebError, NotClosedError,
                     NotProjectableError, NotVolumeError, RankDefectError,
                     ValidationError)
from .exterior import (Form, Vector, contract, indices_of, top_coefficient,
                       wedge, wedge_power)
from .model import StructureModel
from .record import Record


class LcsStructure(Record):
    """A validated l.c.s. structure of the first kind."""

    model: StructureModel
    omega: Form
    eta: Form
    n: int
    U: Vector
    V: Vector
    Omega: Form


class ContactStructure(Record):
    """A validated contact structure with its Reeb field."""

    model: StructureModel
    eta: Form
    n: int
    xi: Vector


def _two_form_skew_rows(f: Form) -> linalg.Matrix:
    rows: linalg.Matrix = [{} for _ in range(f.n_gen)]
    for mask, coeff in f.terms.items():
        i, j = indices_of(mask)
        rows[i - 1][j - 1] = coeff
        rows[j - 1][i - 1] = -coeff
    return rows


def two_form_rank(f: Form) -> int:
    """Rank of a 2-form as a skew bilinear form on the frame."""
    if f.degree != 2:
        raise DegreeError("rank is defined for 2-forms")
    return linalg.rank(_two_form_skew_rows(f))


def _solve_characterizing_field(deta: Form, conditions, err_cls) -> Vector:
    """Unique v with i_v d(eta) = 0 and the listed (form, value) pairings,
    read off one RREF of the equations in v_1..v_n, values in column n (by
    skew symmetry the rows of d(eta) are those of i_v d(eta) = 0)."""
    n = deta.n_gen
    eqs = _two_form_skew_rows(deta) + [
        {**{m.bit_length() - 1: x for m, x in form.terms.items()},
         n: value} for form, value in conditions]
    rows, pivots = linalg.rref(eqs)
    if sum(1 for p in pivots if p < n) < n:
        raise err_cls("characterizing linear system is singular; the field "
                      "is not unique")
    if pivots[-1] == n:
        raise err_cls("characterizing linear system has no solution")
    return Vector([row.get(n, 0) for row in rows])


def validate_lcs(model: StructureModel, omega: Form, eta: Form) -> LcsStructure:
    """Check the defining conditions and derive U, V and Omega."""
    p = model.n_gen
    if omega.n_gen != p or eta.n_gen != p:
        raise ModelMismatchError("omega and eta must live over the model")
    if omega.degree != 1 or eta.degree != 1:
        raise DegreeError("omega and eta must be 1-forms")
    if p % 2 or p < 2:
        raise ValidationError(f"an l.c.s. structure of the first kind needs "
                              f"an even-dimensional model, got {p}")
    n = (p - 2) // 2
    domega = model.d(omega)
    if not domega.is_zero():
        raise NotClosedError(f"omega is not closed: d(omega) = {domega}")
    deta = model.d(eta)
    r = two_form_rank(deta)
    if r != 2 * n:
        raise RankDefectError(r, 2 * n)
    vol = wedge(wedge(omega, eta), wedge_power(deta, n))
    if not top_coefficient(vol):
        raise NotVolumeError("omega ^ eta ^ (d eta)^n is not a volume form")
    U = _solve_characterizing_field(
        deta, [(omega, 1), (eta, 0)], NonUniqueLeeFieldError)
    V = _solve_characterizing_field(
        deta, [(omega, 0), (eta, 1)], NonUniqueLeeFieldError)
    Omega = deta + eta.wedge(omega)
    struct = LcsStructure(model, omega, eta, n, U, V, Omega)
    # the two identities below follow formally; treat failure as corruption
    if model.d(Omega) != omega.wedge(Omega):
        raise InternalConsistencyError("d(Omega) != omega ^ Omega")
    if contract(U, Omega) != -eta:
        raise InternalConsistencyError("eta != -i_U Omega")
    return struct


def validate_contact(model: StructureModel, eta: Form) -> ContactStructure:
    """Check the contact volume condition and derive the Reeb field."""
    p = model.n_gen
    if eta.n_gen != p:
        raise ModelMismatchError("eta must live over the model")
    if eta.degree != 1:
        raise DegreeError("eta must be a 1-form")
    if p % 2 == 0:
        raise ValidationError(f"a contact structure needs an "
                              f"odd-dimensional model, got {p}")
    n = (p - 1) // 2
    deta = model.d(eta)
    vol = wedge(eta, wedge_power(deta, n))
    if not top_coefficient(vol):
        raise NotVolumeError("eta ^ (d eta)^n is not a volume form")
    xi = _solve_characterizing_field(deta, [(eta, 1)], NonUniqueReebError)
    return ContactStructure(model, eta, n, xi)


def _reframed(form: Form, n_gen: int) -> Form:
    return Form(n_gen, form.degree, form.terms)


def product_with_circle(contact: ContactStructure) -> LcsStructure:
    """Adjoin one closed circle generator.

    The circle form becomes the Lee form and the contact form the anti-Lee
    form, so the Lee field is the new generator direction and the anti-Lee
    field is the lift of the Reeb field.
    """
    old = contact.model
    p = old.n_gen + 1
    diffs = [_reframed(f, p) for f in old.d1] + [Form.zero(p, 2)]
    name = f"{old.name}_x_S1" if old.name else ""
    model = StructureModel(diffs, name=name)
    omega = Form.generator(p, p)
    eta = _reframed(contact.eta, p)
    return validate_lcs(model, omega, eta)


def _drop_index(mask: int, bit: int) -> int:
    low = bit - 1
    return (mask & low) | ((mask >> 1) & ~low)


def quotient_contact(struct: LcsStructure) -> ContactStructure:
    """Collapse the Lee direction when it is a split central generator.

    Requires U = E_u for a generator u with d(e_u) = 0, no other structure
    equation involving e_u, and eta free of e_u; the remaining generators
    then carry an induced model on which eta is contact, and the Reeb field
    is the projection of the anti-Lee field.
    """
    model = struct.model
    nonzero = [i for i, c in enumerate(struct.U.coeffs, start=1) if c]
    if len(nonzero) != 1 or struct.U.coeffs[nonzero[0] - 1] != 1:
        raise NotProjectableError(
            f"Lee field {struct.U} is not a single generator direction")
    u = nonzero[0]
    bit = 1 << (u - 1)
    if not model.d1[u - 1].is_zero():
        raise NotProjectableError(f"d(e{u}) != 0, the Lee direction is not "
                                  f"closed off")
    for i, f in enumerate(model.d1, start=1):
        if any(mask & bit for mask in f.terms):
            raise NotProjectableError(
                f"d(e{i}) involves e{u}; the quotient model is not defined")
    if any(mask & bit for mask in struct.eta.terms):
        raise NotProjectableError(f"eta has a component along e{u}")
    p = model.n_gen - 1
    diffs = []
    for i, f in enumerate(model.d1, start=1):
        if i == u:
            continue
        diffs.append(Form(p, 2, {_drop_index(m, bit): c
                                 for m, c in f.terms.items()}))
    name = f"{model.name}_Lee" if model.name else ""
    new_model = StructureModel(diffs, name=name)
    eta_n = Form(p, 1, {_drop_index(m, bit): c
                        for m, c in struct.eta.terms.items()})
    contact = validate_contact(new_model, eta_n)
    projected = Vector([c for i, c in enumerate(struct.V.coeffs, start=1)
                        if i != u])
    if contact.xi != projected:
        raise InternalConsistencyError(
            "Reeb field of the quotient is not the projected anti-Lee field")
    return contact


class VaismanReport(Record):
    """Linear-algebra necessary conditions for a compatible Vaisman metric.

    The metric conditions themselves (parallel and unitary Lee field,
    Killing anti-Lee field) have no expression in the model, so the verdict
    is only ever "obstruction found" or "no obstruction found".
    """

    lie_conditions: tuple[tuple[str, bool], ...]
    parity: object
    equivalence: object
    obstructions: tuple[str, ...]
    verdict: str
    caveats: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.obstructions

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "lie_conditions": {name: ok for name, ok in self.lie_conditions},
            "obstructions": list(self.obstructions),
            "parity": self.parity.to_dict(),
            "equivalence": self.equivalence.to_dict(),
            "caveats": list(self.caveats),
        }


def vaisman_candidate_report(struct: LcsStructure) -> VaismanReport:
    """Evaluate every finitely checkable necessary condition."""
    from . import lefschetz as _lef
    from .report import CAVEAT_INVARIANT_MODEL, CAVEAT_METRIC_SURROGATE, \
        CAVEAT_NO_NORMALIZATION, CAVEAT_NON_NILPOTENT

    m = struct.model
    conds = (
        ("L_U eta = 0", m.lie_derivative(struct.U, struct.eta).is_zero()),
        ("L_U omega = 0", m.lie_derivative(struct.U, struct.omega).is_zero()),
        ("L_V omega = 0", m.lie_derivative(struct.V, struct.omega).is_zero()),
        ("L_U Omega = 0", m.lie_derivative(struct.U, struct.Omega).is_zero()),
        ("[U, V] = 0", m.bracket(struct.U, struct.V).is_zero()),
    )
    parity = _lef.betti_parity_check(struct)
    equivalence = _lef.lefschetz_equivalence_report(struct)
    obstructions = []
    for name, ok in conds:
        if not ok:
            obstructions.append(f"infinitesimal automorphism condition "
                                f"fails: {name}")
    if not parity.parity_ok:
        obstructions.append("Betti parity obstruction: b_k - b_(k-1) odd "
                            f"for odd k in {list(parity.odd_failures)}")
    if not equivalence.de_rham_all:
        obstructions.append("hard Lefschetz fails (de Rham)")
    if not equivalence.basic_all:
        obstructions.append("hard Lefschetz fails (Lee-basic)")
    caveats = [CAVEAT_INVARIANT_MODEL, CAVEAT_METRIC_SURROGATE,
               CAVEAT_NO_NORMALIZATION]
    if not m.is_nilpotent:
        caveats.append(CAVEAT_NON_NILPOTENT)
    verdict = "obstruction found" if obstructions else "no obstruction found"
    return VaismanReport(conds, parity, equivalence, tuple(obstructions),
                         verdict, tuple(caveats))
