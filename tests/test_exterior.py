from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, Vector, contract, top_coefficient,
                     wedge, wedge_power)
from hardlef.errors import DegreeError, ModelMismatchError
from hardlef.exterior import default_names, form_text

from conftest import random_form, random_vector


def e(i, n=4):
    return Form.generator(n, i)


def test_wedge_basis_product():
    assert wedge(e(1), e(2)) == Form.monomial(4, (1, 2))


def test_wedge_graded_commutativity_on_generators():
    assert wedge(e(2), e(1)) == -Form.monomial(4, (1, 2))


def test_wedge_bilinear_expansion():
    a = e(1) + e(2)
    b = e(1) - e(2)
    assert wedge(a, b) == Form.monomial(4, (1, 2), -2)


def test_wedge_above_top_degree_is_zero():
    top = Form.monomial(3, (1, 2, 3))
    assert wedge(top, e(1, 3)).is_zero()
    assert wedge(top, e(1, 3)).degree == 4


def test_contract_dual_pairing():
    assert contract(Vector.basis(4, 1), Form.monomial(4, (1, 2))) == e(2)
    assert contract(Vector.basis(4, 3), Form.monomial(4, (1, 2))).is_zero()


def test_contract_antiderivation_signs():
    vol = Form.monomial(4, (1, 2, 3))
    assert contract(Vector.basis(4, 1), vol) == Form.monomial(4, (2, 3))
    assert contract(Vector.basis(4, 2), vol) == -Form.monomial(4, (1, 3))


def test_contract_zero_form():
    assert contract(Vector.basis(4, 1), Form.constant(4, 5)).is_zero()


def test_top_coefficient():
    assert top_coefficient(Form.monomial(4, (1, 2, 3, 4), 5)) == 5
    assert top_coefficient(Form.monomial(4, (2, 1, 3, 4))) == -1
    with pytest.raises(DegreeError):
        top_coefficient(Form.monomial(4, (1, 2)))


def test_mismatched_frames_rejected():
    with pytest.raises(ModelMismatchError):
        wedge(e(1, 3), e(1, 4))
    with pytest.raises(ModelMismatchError):
        contract(Vector.basis(3, 1), e(1, 4))


def test_add_requires_equal_degree():
    with pytest.raises(DegreeError):
        e(1) + Form.monomial(4, (1, 2))


def test_no_zero_coefficients_stored():
    diff = e(1) - e(1)
    assert diff.terms == {}
    prod = wedge(e(1) + e(2), e(1) + e(2))
    assert all(prod.terms.values())


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Form.monomial(4, (1,), 0.5)


def test_division_makes_a_fraction_only_off_the_integers():
    half = (3 * e(1)) / 2
    assert half.terms == {1: Fraction(3, 2)}
    assert type(half.terms[1]) is Fraction
    whole = (2 * e(1)) / 2
    assert whole.terms == {1: 1} and type(whole.terms[1]) is int
    assert type((half * 2).terms[1]) is int
    assert type(e(1).terms[1]) is int


def _stored(value):
    """The scalar the rule stores for value: its int when integral."""
    return value.numerator if value.denominator == 1 else value


@settings(max_examples=60, derandomize=True)
@given(num=st.integers(-6, 6), den=st.integers(1, 4),
       times=st.integers(1, 3))
def test_constructors_store_integral_fractions_as_ints(num, den, times):
    # Fraction(4, 2) reduces to Fraction(2), an integral Fraction
    c = Fraction(num * times, den * times)
    want = {m: _stored(c) for m in (0b0011,) if c}
    for f in (Form(4, 2, {0b0011: c}), Form.monomial(4, (1, 2), c),
              Form.monomial(4, (2, 1), -c) if c else Form.zero(4, 2)):
        assert f.terms == want
        assert [type(x) for x in f.terms.values()] == \
            [type(x) for x in want.values()]
    assert type(Form.constant(4, c).terms.get(0, 0)) is type(_stored(c))
    v = Vector([c, Fraction(2 * times, times), 0, 1])
    assert [type(x) for x in v.coeffs] == [type(_stored(c)), int, int, int]
    assert type(v.pair(e(2))) is int and v.pair(e(2)) == 2
    m = StructureModel.from_brackets(3, {(1, 2): {3: c}})
    assert [type(x) for f in m.d1 for x in f.terms.values()] == \
        ([type(_stored(c))] if c else [])


def test_vector_pairing():
    v = Vector([1, 0, 2, 0])
    assert v.pair(e(3) * Fraction(1, 2)) == 1
    with pytest.raises(DegreeError):
        v.pair(Form.monomial(4, (1, 2)))


def test_equality_ignores_degree_of_zero_forms():
    assert Form.zero(4, 2) == Form.zero(4, 3)
    assert Form.zero(4, 2) != Form.zero(3, 2)


def test_wedge_power():
    f = Form.monomial(5, (1, 2)) + Form.monomial(5, (3, 4))
    assert wedge_power(f, 0) == Form.constant(5, 1)
    assert wedge_power(f, 2) == Form.monomial(5, (1, 2, 3, 4), 2)


# ----- text ------------------------------------------------------------------

# (form, str and form_text with default names, form_text with x y z w)
FORM_TEXT = [
    (Form.zero(4, 2), "0", "0"),
    (Form.zero(4, 0), "0", "0"),
    (Form.constant(4, Fraction(-3, 2)), "-3/2", "-3/2"),
    (Form.constant(4, 1), "1", "1"),
    (Form(4, 2, {0b0011: -1, 0b0101: Fraction(1, 2)}),
     "-e1^e2 + 1/2*e1^e3", "-x^y + 1/2*x^z"),
    (Form(4, 2, {0b0011: 1, 0b0101: -1, 0b0110: Fraction(2, 3),
                 0b1001: Fraction(-5, 2)}),
     "e1^e2 - e1^e3 + 2/3*e2^e3 - 5/2*e1^e4",
     "x^y - x^z + 2/3*y^z - 5/2*x^w"),
    (Form(4, 1, {0b1000: -2}), "-2*e4", "-2*w"),
    (Form(4, 3, {0b1110: Fraction(7, 3)}), "7/3*e2^e3^e4", "7/3*y^z^w"),
]


@pytest.mark.parametrize("form, text, named", FORM_TEXT)
def test_form_text_table(form, text, named):
    assert str(form) == text
    assert form_text(form) == text
    assert form_text(form, ("x", "y", "z", "w")) == named


def test_default_names():
    assert default_names(3) == ("e1", "e2", "e3")


@pytest.mark.parametrize("coeffs, text", [
    ([0, 0, 0], "0"),
    ([-1, 0, 3], "-E1 + 3*E3"),
    ([0, 1, -1, Fraction(2, 3), Fraction(-5, 2)],
     "E2 - E3 + 2/3*E4 - 5/2*E5"),
    ([Fraction(-1, 2)], "-1/2*E1"),
])
def test_vector_text_table(coeffs, text):
    assert str(Vector(coeffs)) == text


@pytest.mark.parametrize("structure", [
    "(0,0,12,0)", "(23,-13,12,0)", "(0,0,-1/2*12,13)", "(0,0,0,0,-12+34)",
    "(0,0,0,0,12-2*34)", "(0,0,0,0,1/3*12+34)"])
def test_structure_string_table(structure):
    assert StructureModel.from_salamon(structure).structure_string() == \
        structure


def test_structure_string_is_empty_above_nine_generators():
    model = StructureModel([Form.zero(10, 2)] * 10)
    assert model.structure_string() == ""
    assert str(Form.generator(10, 10)) == "e10"


# ----- property tests --------------------------------------------------------

def _forms(n_gen, degree, max_terms=3):
    masks = list(combinations(range(1, n_gen + 1), degree))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if not masks:
        return st.just(Form.zero(n_gen, degree))
    term = st.tuples(st.sampled_from(masks), coeff)
    def build(terms):
        out = Form.zero(n_gen, degree)
        for idx, c in terms:
            out = out + Form.monomial(n_gen, idx, c)
        return out
    return st.lists(term, max_size=max_terms).map(build)


def _vectors(n_gen):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(coeff, min_size=n_gen, max_size=n_gen).map(Vector)


@settings(max_examples=120, derandomize=True)
@given(a=_forms(5, 1), b=_forms(5, 2), c=_forms(5, 1))
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=120, derandomize=True)
@given(a=_forms(5, 2), b=_forms(5, 3))
def test_wedge_graded_commutative(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert wedge(a, b) == sign * wedge(b, a)


@settings(max_examples=120, derandomize=True)
@given(v=_vectors(5), a=_forms(5, 2), b=_forms(5, 2))
def test_contract_antiderivation(v, a, b):
    lhs = contract(v, wedge(a, b))
    rhs = wedge(contract(v, a), b) + (-1) ** a.degree * wedge(a, contract(v, b))
    assert lhs == rhs
    assert contract(v, contract(v, wedge(a, b))).is_zero()


@settings(max_examples=120, derandomize=True)
@given(a=_forms(4, 2), b=_forms(4, 2), s=st.fractions(min_value=-5,
                                                      max_value=5,
                                                      max_denominator=3))
def test_top_coefficient_bilinear(a, b, s):
    c = Form.monomial(4, (3, 4))
    lhs = top_coefficient(wedge(a + s * b, c))
    assert lhs == top_coefficient(wedge(a, c)) + s * top_coefficient(wedge(b, c))


H5 = StructureModel.from_salamon("(0,0,0,0,12+34)")


@settings(max_examples=120, derandomize=True)
@given(v=_vectors(5), a=_forms(5, 2), b=_forms(5, 2), s=st.integers(-2, 2))
def test_algebra_results_are_canonical(v, a, b, s):
    # the algebra skips the public constructor's coercion and checks, so
    # its results must already be what that constructor would keep
    closed = Form.monomial(5, (1, 2, 5)) - Form.monomial(5, (3, 4, 5))
    for f in (a + b, a - b, -a, s * a, a * Fraction(s, 3), wedge(a, b),
              contract(v, a), H5.d(a), H5.lie_derivative(v, a), H5.d(closed)):
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   and c for c in f.terms.values())
        assert all(m.bit_count() == f.degree for m in f.terms)
        assert Form(f.n_gen, f.degree, f.terms).terms == f.terms
        assert f.terms is not a.terms and f.terms is not b.terms


def test_random_form_helper_canonical(rng):
    for _ in range(50):
        f = random_form(rng, 5, 2)
        assert all(mask.bit_count() == 2 for mask in f.terms)
        assert all(f.terms.values())
        v = random_vector(rng, 5)
        assert contract(v, contract(v, f)).is_zero()


@pytest.mark.parametrize("indices", [(0,), (-1,), (5,), (1, 0), (2, 5, 2)],
                         ids=str)
def test_monomial_rejects_indices_outside_the_frame(indices):
    bad = next(i for i in indices if not 1 <= i <= 4)
    message = rf"generator index {bad} outside \[1, 4\]"
    with pytest.raises(ValueError, match=message):
        Form.monomial(4, indices)
    with pytest.raises(ValueError, match=message):
        Form.generator(4, bad)
