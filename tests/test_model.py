from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, Vector, contract, modelfile,
                     validate_lcs, wedge)
from hardlef.catalog import builtin_entries
from hardlef.errors import ValidationError
from hardlef.exterior import _accumulate, merge_sign

from conftest import (LCS_CORPUS, MODELS_DIR, forms, random_form,
                      random_model, random_vector, rational_models, vectors)


@pytest.fixture
def kt4():
    return StructureModel.from_salamon("(0,0,12,0)", name="kt4")


def test_defining_data(kt4):
    assert kt4.d(Form.generator(4, 3)) == Form.monomial(4, (1, 2))
    for i in (1, 2, 4):
        assert kt4.d(Form.generator(4, i)).is_zero()


def test_antiderivation_rule(kt4):
    e3e4 = wedge(Form.generator(4, 3), Form.generator(4, 4))
    assert kt4.d(e3e4) == Form.monomial(4, (1, 2, 4))
    e4e3 = wedge(Form.generator(4, 4), Form.generator(4, 3))
    assert kt4.d(e4e3) == -Form.monomial(4, (1, 2, 4))


def test_d_of_functions_vanishes(kt4):
    assert kt4.d(Form.constant(4, 7)).is_zero()


def test_d_squared_zero_on_random_forms(rng):
    for _ in range(40):
        m = random_model(rng)
        k = rng.randint(0, m.n_gen - 1)
        f = random_form(rng, m.n_gen, k)
        assert m.d(m.d(f)).is_zero()


def _d_monomial_by_generators(model, mask):
    """The reference d(e_I): the sum over every generator i of I of
    (-1)^pos e_(I<i) ^ d(e_i) ^ e_(I>i), pos the number of generators of I
    below i, two merge signs per term."""
    out = {}
    rem = mask
    while rem:
        low = rem & -rem
        prefix = mask & (low - 1)
        suffix = mask ^ prefix ^ low
        odd = prefix.bit_count() & 1
        for m, c in model.d1[low.bit_length() - 1].terms.items():
            if m & (prefix | suffix):
                continue
            sign = merge_sign(prefix, m) * merge_sign(prefix | m, suffix)
            _accumulate(out, prefix | m | suffix,
                        -c if (sign < 0) != odd else c)
        rem ^= low
    return out


def _typed_terms(terms):
    return {m: (type(c), c) for m, c in terms.items()}


def _check_d_monomials(model):
    """Every mask of a fresh copy of the model, in descending order so
    that d(e_J) is first read from d(e_I) and not the other way round."""
    fresh = StructureModel(model.d1)
    for mask in reversed(range(1 << model.n_gen)):
        assert _typed_terms(fresh._d_monomial(mask)) == \
            _typed_terms(_d_monomial_by_generators(model, mask))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(model=rational_models())
def test_d_monomial_is_the_sum_over_every_generator(model):
    _check_d_monomials(model)


@pytest.mark.parametrize("name", sorted({e.name for e in builtin_entries()})
                         + sorted(p.name for p in MODELS_DIR.glob("*.model")))
def test_d_monomial_is_the_sum_over_every_generator_on_the_catalog(name):
    model = (modelfile.load_path(MODELS_DIR / name).model
             if name.endswith(".model") else builtin_entries({name})[0].model)
    _check_d_monomials(model)


def test_constructor_accepts_any_iterable():
    diffs = (f for f in [Form.zero(3, 2), Form.zero(3, 2),
                         Form.monomial(3, (1, 2))])
    m = StructureModel(diffs)
    assert m.n_gen == 3
    assert m.structure_string() == "(0,0,12)"


def test_jacobi_violation_rejected():
    with pytest.raises(ValidationError):
        StructureModel.from_salamon("(0,0,12,34)")


def test_salamon_coefficients():
    m = StructureModel.from_salamon(["0", "0", "12-1/2*13", "2*12"])
    assert m.d1[2] == Form.monomial(4, (1, 2)) + \
        Form.monomial(4, (1, 3), Fraction(-1, 2))
    assert m.d1[3] == Form.monomial(4, (1, 2), 2)
    assert m.structure_string() == "(0,0,12-1/2*13,2*12)"


def test_salamon_rejects_bad_terms():
    with pytest.raises(ValueError):
        StructureModel.from_salamon("(0,0,123)")
    with pytest.raises(ValueError):
        StructureModel.from_salamon("(0,0,11)")
    with pytest.raises(ValueError, match="zero denominator"):
        StructureModel.from_salamon("(0,1/0*12)")
    # coefficients and pairs in ASCII digits only, as in model files
    for entry in ("0.5*12", "1e1*12", "1_0*12", "\u0661\u0662",
                  "\uff11\uff12"):
        with pytest.raises(ValueError):
            StructureModel.from_salamon(f"(0,0,{entry})")


def test_from_brackets_matches_structure_equations(kt4):
    m = StructureModel.from_brackets(4, {(1, 2): {3: -1}})
    assert m == kt4
    half = StructureModel.from_brackets(3, {(1, 2): {3: Fraction(1, 2)}})
    assert half.d1[2] == Form.monomial(3, (1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("comps, error, match", [
    ({0: 1}, ValueError, "component index 0 "),
    ({-1: 1}, ValueError, "component index -1 "),
    ({4: 1}, ValueError, "component index 4 "),
    ({3: 0.1}, TypeError, "float")])
def test_from_brackets_refuses_bad_components(comps, error, match):
    with pytest.raises(error, match=match):
        StructureModel.from_brackets(3, {(1, 2): comps})


def test_bracket_readoff(kt4):
    b = kt4.bracket(Vector.basis(4, 1), Vector.basis(4, 2))
    assert b == Vector([0, 0, -1, 0])
    assert kt4.bracket(Vector.basis(4, 1), Vector.basis(4, 4)).is_zero()


def test_lie_derivative_examples(kt4):
    e3 = Form.generator(4, 3)
    assert kt4.lie_derivative(Vector.basis(4, 4), e3).is_zero()
    assert kt4.lie_derivative(Vector.basis(4, 1), e3) == Form.generator(4, 2)


def test_lie_derivative_closed_and_killed(rng):
    # closed forms annihilated by i_v have vanishing Lie derivative
    m = StructureModel.from_salamon("(0,0,12,0)")
    v = Vector.basis(4, 4)
    f = Form.monomial(4, (1, 2))
    assert m.lie_derivative(v, f).is_zero()


def test_lie_derivative_is_derivation(rng):
    for _ in range(30):
        m = random_model(rng)
        v = random_vector(rng, m.n_gen)
        a = random_form(rng, m.n_gen, rng.randint(0, 2))
        b = random_form(rng, m.n_gen, rng.randint(0, 2))
        lhs = m.lie_derivative(v, wedge(a, b))
        rhs = wedge(m.lie_derivative(v, a), b) + wedge(a, m.lie_derivative(v, b))
        assert lhs == rhs


def test_lie_derivative_commutes_with_d(rng):
    for _ in range(30):
        m = random_model(rng)
        v = random_vector(rng, m.n_gen)
        a = random_form(rng, m.n_gen, rng.randint(0, m.n_gen - 1))
        assert m.d(m.lie_derivative(v, a)) == m.lie_derivative(v, m.d(a))


def _cartan(m, v, a):
    """L_v a = i_v d a + d i_v a, taken on forms."""
    return contract(v, m.d(a)) + m.d(contract(v, a))


@settings(max_examples=150, derandomize=True)
@given(data=st.data())
def test_lie_derivative_is_the_cartan_formula(data):
    # random fields of nilpotent, solvable and simple algebras under a
    # change of basis: mostly not central, so the derivation has terms
    m = data.draw(rational_models())
    v = data.draw(vectors(m.n_gen))
    a = data.draw(forms(m.n_gen))
    lv = m.lie_derivative(v, a)
    assert lv == _cartan(m, v, a) and lv.degree == a.degree
    assert m.lie_derivative(v, a) == lv


@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_lie_derivative_along_u_and_v_is_the_cartan_formula(data):
    # the Lee and anti-Lee fields of every corpus structure; the anti-Lee
    # field of su(2) x S1 is not central
    model, omega, eta = LCS_CORPUS[data.draw(st.sampled_from(
        sorted(LCS_CORPUS)))]
    struct = validate_lcs(StructureModel(model.d1), omega, eta)
    v = data.draw(st.sampled_from([struct.U, struct.V]))
    a = data.draw(forms(model.n_gen))
    lv = struct.model.lie_derivative(v, a)
    assert lv == _cartan(struct.model, v, a) and lv.degree == a.degree


def test_nilpotent_and_unimodular_flags(kt4):
    assert kt4.is_nilpotent and kt4.is_unimodular
    solvable = StructureModel.from_salamon("(0,12)")
    assert not solvable.is_nilpotent
    assert not solvable.is_unimodular
    h5 = StructureModel.from_salamon("(0,0,0,0,12+34)")
    assert h5.is_nilpotent and h5.is_unimodular
    for structure, nilpotent, unimodular in [
            ("(0,12,0)", False, False), ("(12,0)", False, False),
            ("(23,-13,12)", False, True), ("(0,0,1/2*12,13)", True, True)]:
        m = StructureModel.from_salamon(structure)
        assert (m.is_nilpotent, m.is_unimodular) == (nilpotent, unimodular)


@settings(max_examples=60, derandomize=True)
@given(m=rational_models())
def test_flags_survive_a_change_of_basis(m):
    base = StructureModel.from_salamon(m.name)
    assert (m.is_nilpotent, m.is_unimodular) == \
        (base.is_nilpotent, base.is_unimodular)


@settings(max_examples=80, derandomize=True)
@given(data=st.data())
def test_bracket_is_minus_the_double_contraction(data):
    m = data.draw(rational_models())
    v = data.draw(vectors(m.n_gen))
    w = data.draw(vectors(m.n_gen))
    # e_k([v, w]) = -de_k(v, w), evaluated through the contraction Forms
    want = [-contract(w, contract(v, m.d1[k])).terms.get(0, Fraction(0))
            for k in range(m.n_gen)]
    assert m.bracket(v, w) == Vector(want)
