import pytest

from hardlef import (Form, StructureModel, Vector, contract, product_with_circle,
                     quotient_contact, top_coefficient, validate_contact,
                     validate_lcs, vaisman_candidate_report, wedge_power)
from hardlef.errors import (DegreeError, NotClosedError,
                            NotProjectableError, NotVolumeError,
                            RankDefectError, ValidationError)


def gen(n, i):
    return Form.generator(n, i)


@pytest.fixture
def kt4():
    return StructureModel.from_salamon("(0,0,12,0)", name="kt4")


@pytest.fixture
def kt4_struct(kt4):
    return validate_lcs(kt4, gen(4, 4), gen(4, 3))


def test_validate_lcs_kt4(kt4_struct):
    s = kt4_struct
    assert s.n == 1
    assert s.U == Vector.basis(4, 4)
    assert s.V == Vector.basis(4, 3)
    assert s.Omega == Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4))


def test_lcs_identities(kt4_struct):
    s = kt4_struct
    assert s.model.d(s.Omega) == s.omega.wedge(s.Omega)
    assert contract(s.U, s.Omega) == -s.eta
    assert top_coefficient(wedge_power(s.Omega, s.n + 1)) != 0


def test_characterizing_conditions_exact(kt4_struct):
    s = kt4_struct
    deta = s.model.d(s.eta)
    assert s.U.pair(s.omega) == 1 and s.U.pair(s.eta) == 0
    assert s.V.pair(s.omega) == 0 and s.V.pair(s.eta) == 1
    assert contract(s.U, deta).is_zero()
    assert contract(s.V, deta).is_zero()


@pytest.mark.parametrize("deta, message", [
    (Form.zero(2, 2), "characterizing linear system is singular; the field "
                      "is not unique"),
    (Form.monomial(2, (1, 2)), "characterizing linear system has no "
                               "solution"),
], ids=["singular", "no_solution"])
def test_characterizing_field_errors(deta, message):
    """i_v deta = 0 with <v, e1> = 1: deta = 0 leaves v_2 free; a
    nondegenerate deta forces v = 0, which pairs to 0 with e1."""
    from hardlef.structures import _solve_characterizing_field
    with pytest.raises(ValidationError) as err:
        _solve_characterizing_field(deta, [(gen(2, 1), 1)], ValidationError)
    assert str(err.value) == message


def test_characterizing_field_is_read_off_the_pivots():
    from hardlef.structures import _solve_characterizing_field
    # i_v (e1 ^ (e2 + e3)) = 0 leaves v = (0, t, -t); the second
    # condition repeats the first
    deta = Form.monomial(3, (1, 2)) + Form.monomial(3, (1, 3))
    v = _solve_characterizing_field(
        deta, [(gen(3, 2), 2), (gen(3, 2) - gen(3, 3), 4)], ValidationError)
    assert v == Vector([0, 2, -2])


def test_not_closed(kt4):
    with pytest.raises(NotClosedError):
        validate_lcs(kt4, gen(4, 3), gen(4, 4))


def test_rank_defect():
    m = StructureModel.from_salamon("(0,0,12,0,0,0)")
    with pytest.raises(RankDefectError) as err:
        validate_lcs(m, gen(6, 4), gen(6, 3))
    assert err.value.rank == 2 and err.value.expected == 4


def test_rank_defect_abelian():
    m = StructureModel.from_salamon("(0,0,0,0)")
    with pytest.raises(RankDefectError):
        validate_lcs(m, gen(4, 4), gen(4, 3))


def test_not_volume(kt4):
    # rank d(eta) = 2 is fine, but omega ^ eta ^ d(eta) = e1^e3^e1^e2 = 0
    with pytest.raises(NotVolumeError):
        validate_lcs(kt4, gen(4, 1), gen(4, 3))


def test_dimension_parity(kt4):
    m3 = StructureModel.from_salamon("(0,0,12)")
    with pytest.raises(ValidationError):
        validate_lcs(m3, gen(3, 1), gen(3, 3))
    with pytest.raises(ValidationError):
        validate_contact(kt4, gen(4, 3))


def test_degree_checks(kt4):
    with pytest.raises(DegreeError):
        validate_lcs(kt4, Form.monomial(4, (1, 2)), gen(4, 3))


def test_validate_contact_h3():
    m = StructureModel.from_salamon("(0,0,12)")
    c = validate_contact(m, gen(3, 3))
    assert c.n == 1 and c.xi == Vector.basis(3, 3)


def test_validate_contact_h5():
    m = StructureModel.from_salamon("(0,0,0,0,12+34)")
    c = validate_contact(m, gen(5, 5))
    assert c.n == 2 and c.xi == Vector.basis(5, 5)
    vol = c.eta.wedge(wedge_power(m.d(c.eta), 2))
    assert top_coefficient(vol) == 2


def test_contact_not_volume():
    m = StructureModel.from_salamon("(0,0,12)")
    with pytest.raises(NotVolumeError):
        validate_contact(m, gen(3, 1))


def test_product_with_circle_h3():
    m = StructureModel.from_salamon("(0,0,12)", name="h3")
    c = validate_contact(m, gen(3, 3))
    s = product_with_circle(c)
    assert s.model.structure_string() == "(0,0,12,0)"
    assert s.omega == gen(4, 4) and s.eta == gen(4, 3)
    assert s.U == Vector.basis(4, 4)
    assert s.V == Vector.basis(4, 3)


def test_product_then_quotient_roundtrip():
    for struct in ["(0,0,12)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)"]:
        m = StructureModel.from_salamon(struct)
        c = validate_contact(m, gen(m.n_gen, m.n_gen))
        s = product_with_circle(c)
        back = quotient_contact(s)
        assert back.model == c.model
        assert back.eta == c.eta and back.xi == c.xi


def test_quotient_kt4(kt4_struct):
    c = quotient_contact(kt4_struct)
    assert c.model.structure_string() == "(0,0,12)"
    assert c.xi == Vector.basis(3, 3)


def test_quotient_not_projectable_structure_equations():
    # d(e2) involves e4, the Lee direction
    m = StructureModel(
        [Form.zero(4, 2), Form.monomial(4, (1, 4)), Form.monomial(4, (1, 2)),
         Form.zero(4, 2)])
    s = validate_lcs(m, gen(4, 4), gen(4, 3))
    assert s.U == Vector.basis(4, 4)
    with pytest.raises(NotProjectableError):
        quotient_contact(s)


def test_quotient_not_projectable_lee_direction(kt4):
    s = validate_lcs(kt4, gen(4, 4), gen(4, 3) + gen(4, 4))
    assert s.U == Vector([0, 0, -1, 1])
    with pytest.raises(NotProjectableError):
        quotient_contact(s)


def test_minimal_dimension_two_structure():
    m = StructureModel.from_salamon("(0,0)")
    s = validate_lcs(m, gen(2, 2), gen(2, 1))
    assert s.n == 0
    assert s.U == Vector.basis(2, 2) and s.V == Vector.basis(2, 1)
    from hardlef import lefschetz as lef
    v = lef.is_graph_of_isomorphism(lef.de_rham_lefschetz_relation(s, 0))
    assert v.is_graph_of_isomorphism


def test_vaisman_report_positive(kt4_struct):
    rep = vaisman_candidate_report(kt4_struct)
    assert rep.verdict == "no obstruction found"
    assert all(ok for _, ok in rep.lie_conditions)
    assert rep.caveats


def test_vaisman_report_obstruction_lefschetz():
    m = StructureModel.from_salamon("(0,0,12,13,14+23,0)")
    s = validate_lcs(m, gen(6, 6), gen(6, 5))
    rep = vaisman_candidate_report(s)
    assert rep.verdict == "obstruction found"
    assert any("Lefschetz" in o for o in rep.obstructions)
    assert rep.parity.parity_ok


def test_vaisman_report_obstruction_parity():
    m = StructureModel.from_salamon("(0,0,0,12,13+24,0)")
    s = validate_lcs(m, gen(6, 6), gen(6, 5))
    rep = vaisman_candidate_report(s)
    assert rep.verdict == "obstruction found"
    assert any("parity" in o for o in rep.obstructions)


def test_product_validates_for_all_catalog_contacts():
    from hardlef.catalog import builtin_entries
    for entry in builtin_entries():
        if entry.kind != "contact":
            continue
        try:
            c = validate_contact(entry.model, entry.eta)
        except ValidationError:
            continue
        s = product_with_circle(c)
        assert s.n == c.n
