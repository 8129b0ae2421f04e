from fractions import Fraction

import pytest

from hardlef import Form
from hardlef.errors import ParseError, ValidationError
from hardlef import modelfile

KT4 = """\
# Heisenberg-3 times a circle
name kt4
dim 4
d e3 = e1^e2
omega = e4
eta = e3
"""


def test_parse_kt4():
    doc = modelfile.parse(KT4)
    assert doc.model.name == "kt4"
    assert doc.model.structure_string() == "(0,0,12,0)"
    assert doc.omega == Form.generator(4, 4)
    assert doc.eta == Form.generator(4, 3)
    assert doc.kind == "lcs"


def test_roundtrip():
    doc = modelfile.parse(KT4)
    text = modelfile.serialize(doc)
    again = modelfile.parse(text)
    assert again.model == doc.model
    assert again.omega == doc.omega and again.eta == doc.eta
    assert modelfile.serialize(again) == text


def test_custom_generator_names():
    text = ("dim 3\n"
            "generators a b c\n"
            "d c = a^b\n"
            "eta = c\n")
    doc = modelfile.parse(text)
    assert doc.generator_names == ("a", "b", "c")
    assert doc.model.structure_string() == "(0,0,12)"
    assert "d c = a^b" in modelfile.serialize(doc)
    assert modelfile.parse(modelfile.serialize(doc)).model == doc.model


def test_rational_coefficients():
    text = ("dim 4\n"
            "d e3 = 1/2 e1^e2 - 2*e1^e4\n")
    doc = modelfile.parse(text)
    expected = Form.monomial(4, (1, 2), Fraction(1, 2)) + \
        Form.monomial(4, (1, 4), -2)
    assert doc.model.d1[2] == expected
    assert modelfile.parse(modelfile.serialize(doc)).model == doc.model


def test_json_mirror_roundtrip():
    doc = modelfile.parse(KT4)
    data = modelfile.to_json_dict(doc)
    again = modelfile.from_json_dict(data)
    assert again.model == doc.model
    assert again.omega == doc.omega and again.eta == doc.eta


def test_json_detection():
    import json
    doc = modelfile.parse(KT4)
    text = json.dumps(modelfile.to_json_dict(doc))
    again = modelfile.load_text(text)
    assert again.model == doc.model


@pytest.mark.parametrize("text,line,fragment", [
    ("dim 4\nd e3 = e1 ^^ e2\n", 2, "generator name"),
    ("dim 4\nd e9 = e1^e2\n", 2, "unknown generator"),
    ("dim 4\nomega = e1 @ e2\n", 2, "unexpected character"),
    ("d e3 = e1^e2\n", 1, "dim must be declared"),
    ("dim 4\nomega = e1^e2\n", 2, "1-form"),
    ("dim 4\nd e3 = e1\n", 2, "2-form"),
    ("dim 4\nd e3 = e1^e2\nd e3 = e1^e4\n", 3, "duplicate"),
    ("dim 44\n", 1, "dim must be in"),
    ("dim 4\nomega = e1 + e1^e2\n", 2, "mixed degrees"),
    ("bogus e1\n", 1, "unknown keyword"),
    ("dim 3\ndim 3\n", 2, "duplicate dim"),
    ("dim 3\nd e3 = e1^e2\ngenerators a b c\n", 3, "before any form"),
    ("dim 3\nd e3 =\n", 2, "empty form"),
    # the names are counted once every statement is read, with or without
    # a form statement, and the error points at the generators line
    ("dim 4\ngenerators a b c\n", 2, "3 generator names for dim 4"),
    ("generators a b c d\ndim 3\nd c = a^d\n", 1,
     "4 generator names for dim 3"),
])
def test_positioned_parse_errors(text, line, fragment):
    with pytest.raises(ParseError) as err:
        modelfile.parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_parse_error_column():
    with pytest.raises(ParseError) as err:
        modelfile.parse("dim 4\nd e3 = e1 ^^ e2\n")
    assert err.value.column == 12


def test_jacobi_failure_is_validation_not_parse():
    text = "dim 4\nd e3 = e1^e2\nd e4 = e3^e4\n"
    with pytest.raises(ValidationError):
        modelfile.parse(text)


def test_missing_d_lines_default_to_closed():
    doc = modelfile.parse("dim 3\n")
    assert all(f.is_zero() for f in doc.model.d1)
    assert doc.kind == "model"
