import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_circle_product_and_its_lee_quotient_round_trip():
    from hardlef import product_with_circle, quotient_contact
    from hardlef import validate_contact
    from hardlef.exterior import default_names
    h3 = modelfile.parse("name h3\ndim 3\nd e3 = e1^e2\neta = e3\n")
    lcs = product_with_circle(validate_contact(h3.model, h3.eta))
    quotient = quotient_contact(lcs)
    assert (lcs.model.name, quotient.model.name) == ("h3_x_S1",
                                                     "h3_x_S1_Lee")
    for doc in (modelfile.ModelDocument(lcs.model, lcs.omega, lcs.eta,
                                        default_names(4)),
                modelfile.ModelDocument(quotient.model, None, quotient.eta,
                                        default_names(3))):
        for again in (modelfile.parse(modelfile.serialize(doc)),
                      modelfile.from_json_dict(modelfile.to_json_dict(doc))):
            assert again == doc
            assert again.model.name == doc.model.name


@pytest.mark.parametrize("name", ["h3 x S1", "h5s1 / Lee", "3h", "h-3",
                                  "h\u00e9"])
def test_serialize_refuses_a_name_parse_cannot_read(name):
    from hardlef import StructureModel
    with pytest.raises(ParseError):
        modelfile.parse(f"name {name}\ndim 1\n")
    kt4 = modelfile.parse(KT4)
    doc = modelfile.ModelDocument(StructureModel(kt4.model.d1, name=name),
                                  kt4.omega, kt4.eta, kt4.generator_names)
    for write in (modelfile.serialize, modelfile.to_json_dict):
        with pytest.raises(ValueError, match="is not a word"):
            write(doc)


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
    ("dim 2\nd e1 = 1/0*e2\n", 2, "zero denominator in 1/0"),
    ("dim 4\neta = e1\neta = e2\n", 3, "duplicate eta"),
    ("dim 4\nomega = e1\neta = e2\nomega = e3\n", 4, "duplicate omega"),
    # a zero sum keeps the degree of its terms; only the bare 0 has none
    ("dim 2\nd e1 = e2^e2^e2\n", 2, "must be a 2-form, got degree 3"),
    ("dim 4\nd e3 = e1 - e1\n", 2, "must be a 2-form, got degree 1"),
    ("dim 4\nomega = e1^e1\n", 2, "must be a 1-form, got degree 2"),
    # a second name or generators statement would replace the first
    ("name a\nname b\ndim 2\n", 2, "duplicate name"),
    ("dim 3\ngenerators x y z\ngenerators p q r\n", 3,
     "duplicate generators"),
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
    # a zero denominator points at its number
    with pytest.raises(ParseError) as err:
        modelfile.parse("dim 2\nd e1 = 1/0*e2\n")
    assert err.value.column == 8


def test_json_zero_denominator_is_a_parse_error():
    import json
    text = json.dumps({"dim": 2, "differentials": {"e1": "e1^e2 - 3/0*e1^e2"}})
    with pytest.raises(ParseError) as err:
        modelfile.load_text(text)
    assert "zero denominator in 3/0" in str(err.value)
    assert err.value.key == "differentials.e1"
    assert err.value.column == len("e1^e2 - ") + 1


@pytest.mark.parametrize("data, message", [
    ({"dim": 2, "differentials": {"e1": "e1^e3"}},
     "differentials.e1, column 4: unknown generator 'e3'"),
    ({"dim": 2, "differentials": {"e7": "e1^e2"}},
     "differentials.e7: unknown generator 'e7'"),
    ({"dim": 2, "eta": "e1 ^^ e2"},
     "eta, column 5: expected a generator name, got '^'"),
    ({"dim": 2, "differentials": {"e1": ""}},
     "differentials.e1: empty form expression"),
    ({"dim": 44}, "dim: dim must be in [1, 16], got 44"),
    ({"dim": 2, "differentials": {"e1": "e1^e2\nd e2 = e1"}},
     "differentials.e1: line break in a JSON string"),
    ({"dim": 2, "differentials": []},
     "malformed JSON model: 'list' object has no attribute 'items'"),
    ({"dim": 2, "generators": "ab"},
     'generators: expected a list of names, got "ab"'),
    ({"dim": 2, "omega": None},
     "omega: expected a form as a string, got null"),
    ({"dim": 2, "generators": ["a b", "c"]},
     'generators: generator name "a b" is not a word'),
    ({"dim": 2, "generators": ["a", ""]},
     'generators: generator name "" is not a word'),
    ({"dim": "2"}, 'dim: expected an integer, got "2"'),
    ({"dim": True}, "dim: expected an integer, got true"),
    ({"dim": 3, "eta": "e3 # e1"}, "eta: '#' in a JSON string"),
    ({"name": "kt#4", "dim": 2}, "name: '#' in a JSON string"),
    ({"dim": 3, "differentials": {"e3 = e1^e2 #": "0"}},
     'differentials: generator name "e3 = e1^e2 #" is not a word'),
    ({"dim": 3, "Omega": "e3"}, "Omega: unknown key; a model has name, dim, "
     "generators, differentials, omega, eta"),
], ids=["unknown_generator", "unknown_key", "syntax", "empty", "dim",
        "line_break", "differentials_list", "generators_string",
        "form_null", "generator_with_space", "generator_empty", "dim_string",
        "dim_bool", "comment_in_form", "comment_in_name",
        "differentials_key_not_a_word", "unknown_top_level_key"])
def test_json_errors_name_the_key(data, message):
    """Positions in a JSON model are the key and the column in its string,
    not a place in the statement text built from it."""
    import json
    with pytest.raises(ParseError) as err:
        modelfile.load_text(json.dumps(data))
    assert str(err.value) == message
    assert err.value.line is None


@pytest.mark.parametrize("text, key", [
    ('{"dim": 2, "dim": 3}', "dim"),
    ('{"dim": 3, "differentials": {"e3": "e1^e2", "e3": "0"}, "eta": "e3"}',
     "e3"),
], ids=["top_level", "differentials"])
def test_json_repeated_key_is_refused(text, key):
    """json.loads keeps the last value of a repeated key; a model refuses
    the key, which json.dumps cannot write twice."""
    with pytest.raises(ParseError) as err:
        modelfile.load_text(text)
    assert str(err.value) == f'duplicate key "{key}"'


def test_json_dim_is_checked_before_names_are_made(monkeypatch):
    # names for a dim of 10**12 would not fit in memory
    default_names = modelfile.default_names

    def bounded(n):
        assert n <= 16, "default names made for an unchecked dim"
        return default_names(n)

    monkeypatch.setattr(modelfile, "default_names", bounded)
    for data in ({"dim": 10 ** 12}, {"dim": 10 ** 12, "generators": []}):
        with pytest.raises(ParseError) as err:
            modelfile.load_text(json.dumps(data))
        assert str(err.value) == f"dim: dim must be in [1, 16], got {10**12}"
    assert modelfile.load_text('{"dim": 2}').generator_names == ("e1", "e2")


def test_jacobi_failure_is_validation_not_parse():
    text = "dim 4\nd e3 = e1^e2\nd e4 = e3^e4\n"
    with pytest.raises(ValidationError):
        modelfile.parse(text)


def test_missing_d_lines_default_to_closed():
    doc = modelfile.parse("dim 3\n")
    assert all(f.is_zero() for f in doc.model.d1)
    assert doc.kind == "model"


# ----- fuzzing: every input parses or is refused with a ParseError ---------

# one digit more than int() converts; JSON cannot carry it as a value, so
# the string LONG_MARK stands for it until the text is written
LONG = "1" * (sys.get_int_max_str_digits() + 1)
LONG_MARK = "<long>"
NUMBERS = st.sampled_from(["0", "1", "3", "16", "17", "1/0", "2/3", "1/3/4",
                          "\uff11"]) | st.sampled_from([LONG, "1/" + LONG])
ATOMS = NUMBERS | st.sampled_from(
    ["e1", "e2", "e3", "x", "=", "^", "+", "-", "*", "#", "{", '"', "\r",
     "\u00e9"]) | st.text(max_size=2)
HEADS = st.sampled_from(["name", "dim", "generators", "d e1 =", "d e3 =",
                         "d", "omega =", "eta =", ""])
LINES = st.builds(lambda head, atoms: " ".join([head, *atoms]), HEADS,
                  st.lists(ATOMS, max_size=6))
TEXTS = st.lists(LINES, max_size=6).map("\n".join)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.just(LONG_MARK) | LINES)
KEYS = st.sampled_from(["name", "dim", "generators", "differentials",
                        "omega", "eta", "e1", "e2"]) | st.text(max_size=3)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(KEYS, inner, max_size=4),
                      max_leaves=12)
MODELS = st.fixed_dictionaries(
    {"dim": st.sampled_from([0, 2, 3, 17, "3", LONG_MARK]) | SCALARS},
    optional={"name": SCALARS, "generators": VALUES,
              "differentials": st.dictionaries(KEYS, SCALARS, max_size=3),
              "omega": SCALARS, "eta": SCALARS})


def _parses_or_refuses(text, assume_json=None):
    try:
        modelfile.load_text(text, assume_json)
    except ParseError:
        pass
    except ValidationError as exc:
        # parsed, but the structure equations fail d.d = 0
        assert "Jacobi" in str(exc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TEXTS | LINES.map("dim 3\n".__add__) | TEXTS.map("dim 3\n".__add__))
def test_any_model_text_parses_or_is_a_parse_error(text):
    _parses_or_refuses(text)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(VALUES | MODELS)
def test_any_json_value_parses_or_is_a_parse_error(value):
    text = json.dumps(value).replace(json.dumps(LONG_MARK), LONG)
    _parses_or_refuses(text, assume_json=True)
