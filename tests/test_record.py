"""Record semantics on the engine's own record classes: construction,
equality, hashing, immutability and repr."""

from fractions import Fraction

import pytest

from hardlef import Form, StructureModel, validate_lcs
from hardlef import lefschetz as lef
from hardlef.cohomology import CohomologyMap
from hardlef.lefschetz import DegreeVerdicts, LefschetzVerdict
from hardlef.record import Record


def _kt4():
    model = StructureModel.from_salamon("(0,0,12,0)", name="kt4")
    return validate_lcs(model, Form.generator(4, 4), Form.generator(4, 3))


def _verdict(rows):
    return LefschetzVerdict(
        1, True, True, None if rows is None else CohomologyMap(1, rows, 1))


def test_construction_by_position_and_keyword():
    a = DegreeVerdicts(2, True, False, None)
    b = DegreeVerdicts(2, True, contact=None, basic=False)
    assert (a.degree, a.de_rham, a.basic, a.contact) == (2, True, False, None)
    assert a == b and not a != b
    assert a != DegreeVerdicts(2, True, True, None)


def test_equality_needs_the_same_class():
    a = DegreeVerdicts(2, True, False, None)
    assert a != (2, True, False, None)
    assert (2, True, False, None) != a
    s = _kt4()
    assert s != (s.model, s.omega, s.eta, s.n, s.U, s.V, s.Omega)


def test_hash_is_the_hash_of_the_field_tuple():
    a = DegreeVerdicts(2, True, False, None)
    assert hash(a) == hash((2, True, False, None))
    s = _kt4()
    assert hash(s) == hash((s.model, s.omega, s.eta, s.n, s.U, s.V, s.Omega))
    assert hash(_verdict(None)) == hash((1, True, True, None))


def test_dict_rows_are_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_verdict(({0: Fraction(1)},)))


@pytest.mark.parametrize("make, name", [
    (lambda: DegreeVerdicts(2, True, False, None), "degree"),
    (_kt4, "omega"),
], ids=["DegreeVerdicts", "LcsStructure"])
def test_fields_cannot_be_set_or_deleted(make, name):
    record = make()
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert getattr(record, name) is value


def test_repr_names_every_field():
    assert repr(DegreeVerdicts(2, True, False, None)) == (
        "DegreeVerdicts(degree=2, de_rham=True, basic=False, contact=None)")
    assert repr(_verdict(({0: Fraction(2)},))) == (
        "LefschetzVerdict(degree=1, is_total=True, is_functional=True, "
        "map=CohomologyMap(degree=1, rows=({0: Fraction(2, 1)},), "
        "target_dim=1))")
    assert repr(_kt4()) == (
        "LcsStructure(model=<StructureModel kt4>, omega=<Form e4>, "
        "eta=<Form e3>, n=1, U=<Vector E4>, V=<Vector E3>, "
        "Omega=<Form e1^e2 + e3^e4>)")


@pytest.mark.parametrize("args, kwargs", [
    ((2, True, False), {}),
    ((2, True, False, None, 5), {}),
    ((2, True, False), {"degree": 2}),
    ((2, True, False), {"kind": None}),
    ((), {"degree": 2, "de_rham": True, "basic": False}),
], ids=["too-few", "too-many", "repeated", "unknown-keyword",
        "missing-keyword"])
def test_wrong_arguments_are_type_errors(args, kwargs):
    with pytest.raises(TypeError, match="DegreeVerdicts"):
        DegreeVerdicts(*args, **kwargs)


def test_an_equal_structure_hits_the_memo():
    # the memo belongs to the model: an equal structure on the same model
    # reads it, one on an equal but distinct model has a memo of its own
    first, other = _kt4(), _kt4()
    again = validate_lcs(first.model, first.omega, first.eta)
    assert again is not first and again == first == other
    assert first.model is not other.model
    relation = lef.de_rham_lefschetz_relation(first, 1)
    assert lef.de_rham_lefschetz_relation(again, 1) is relation
    twin = lef.de_rham_lefschetz_relation(other, 1)
    assert twin is not relation and twin.span == relation.span



class One(Record):
    x: int


class Two(One):
    y: int


def test_one_field_and_extended_records():
    assert hash(One(3)) == hash((3,)) and repr(One(3)) == "One(x=3)"
    assert Two(3, y=4) == Two(3, 4) != One(3)
    assert hash(Two(3, 4)) == hash((3, 4))
    assert repr(Two(3, 4)) == "Two(x=3, y=4)"
