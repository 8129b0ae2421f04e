"""Cross-check the package against the independent dense oracle.

For every catalog model (all have at most six generators), and for su(2)
and su(2) x R, the cohomology dimensions and every Lefschetz relation
subspace must agree exactly with the dense recomputation.
"""

import pytest

from hardlef import Form, StructureModel
from hardlef import lefschetz as lef
from hardlef.catalog import builtin_entries
from hardlef.errors import ValidationError
from hardlef.structures import validate_contact, validate_lcs

import oracle


def _positive_entries(kind):
    out = []
    for entry in builtin_entries():
        if entry.kind != kind:
            continue
        try:
            if kind == "lcs":
                struct = validate_lcs(entry.model, entry.omega, entry.eta)
            else:
                struct = validate_contact(entry.model, entry.eta)
        except ValidationError:
            continue
        out.append((entry.name, struct))
    return out


# the invariant models of the Hopf surface S^3 x S^1, the paper's basic
# compact Vaisman example, and of its contact quotient S^3
LCS = _positive_entries("lcs") + [("su2_s1", validate_lcs(
    StructureModel.from_salamon("(23,-13,12,0)"), Form.generator(4, 4),
    Form.generator(4, 3)))]
CONTACT = _positive_entries("contact") + [("su2", validate_contact(
    StructureModel.from_salamon("(23,-13,12)"), Form.generator(3, 3)))]


def _cases(pairs):
    return pytest.mark.parametrize("struct", [s for _, s in pairs],
                                   ids=[name for name, _ in pairs])


@_cases(LCS + CONTACT)
def test_betti_numbers_match_oracle(struct):
    m = struct.model
    d1 = oracle.model_of(m)
    pkg = list(lef.betti_numbers(lef._full(m)))
    assert pkg == oracle.betti(d1, m.n_gen)


@_cases(LCS)
def test_basic_betti_match_oracle(struct):
    m = struct.model
    d1 = oracle.model_of(m)
    u = [c for c in struct.U.coeffs]
    pkg = list(lef.betti_numbers(lef._basic(m, (struct.U,))))
    assert pkg == oracle.basic_betti(d1, m.n_gen, [u])


@_cases(LCS)
def test_de_rham_relations_match_oracle(struct):
    m = struct.model
    d1 = oracle.model_of(m)
    omega = oracle.form_of(struct.omega)
    eta = oracle.form_of(struct.eta)
    u = list(struct.U.coeffs)
    v = list(struct.V.coeffs)
    cplx = lef._full(m)
    for k in range(struct.n + 1):
        rel = lef.de_rham_lefschetz_relation(struct, k)
        src_reps = [oracle.form_of(f) for f in cplx.space(k).representatives]
        dst_reps = [oracle.form_of(f)
                    for f in cplx.space(2 * struct.n + 2 - k).representatives]
        dense = oracle.de_rham_relation(d1, m.n_gen, struct.n, omega, eta,
                                        u, v, k, src_reps, dst_reps)
        assert [list(r) for r in rel.span] == dense


@_cases(LCS)
def test_basic_relations_match_oracle(struct):
    m = struct.model
    d1 = oracle.model_of(m)
    omega = oracle.form_of(struct.omega)
    eta = oracle.form_of(struct.eta)
    u = list(struct.U.coeffs)
    v = list(struct.V.coeffs)
    basic = lef._basic(m, (struct.U,))
    for k in range(struct.n + 1):
        rel = lef.basic_lefschetz_relation(struct, k)
        src_reps = [oracle.form_of(f) for f in basic.space(k).representatives]
        dst_reps = [oracle.form_of(f)
                    for f in basic.space(2 * struct.n + 1 - k).representatives]
        dense = oracle.basic_relation(d1, m.n_gen, struct.n, omega, eta,
                                      u, v, k, src_reps, dst_reps)
        assert [list(r) for r in rel.span] == dense


@_cases(CONTACT)
def test_contact_relations_match_oracle(struct):
    m = struct.model
    d1 = oracle.model_of(m)
    eta = oracle.form_of(struct.eta)
    xi = list(struct.xi.coeffs)
    cplx = lef._full(m)
    for k in range(struct.n + 1):
        rel = lef.contact_lefschetz_relation(struct, k)
        src_reps = [oracle.form_of(f) for f in cplx.space(k).representatives]
        dst_reps = [oracle.form_of(f)
                    for f in cplx.space(2 * struct.n + 1 - k).representatives]
        dense = oracle.contact_relation(d1, m.n_gen, struct.n, eta, xi, k,
                                        src_reps, dst_reps)
        assert [list(r) for r in rel.span] == dense
