from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, Vector, basic_complex,
                     betti_numbers, full_complex, modelfile, splitting_check,
                     splitting_map, validate_lcs)
from hardlef import linalg
from hardlef.cohomology import Subcomplex, _condition_rows, cohomology
from hardlef.errors import (DegreeError, NotClosedError, PreconditionError)
from hardlef.exterior import Contraction, degree_masks
from hardlef.model import LieDerivative

import oracle
from conftest import (COEFFS, MODELS_DIR, combine, rational_models, rebase,
                      vectors)


@pytest.fixture
def kt4():
    return StructureModel.from_salamon("(0,0,12,0)", name="kt4")


def test_full_complex_slices(kt4):
    cplx = full_complex(kt4)
    assert cplx.dims() == tuple(comb(4, k) for k in range(5))
    d1 = [linalg.sparse(row) for row in cplx.diff_matrix(1)]
    assert linalg.rank(d1) == 1


def test_d_squared_zero_matrices(kt4):
    cplx = full_complex(kt4)
    for k in range(4):
        prod = linalg.matmul(
            [linalg.sparse(row) for row in cplx.diff_matrix(k)],
            [linalg.sparse(row) for row in cplx.diff_matrix(k + 1)])
        assert len(prod) == cplx.dim(k) and not any(prod)


def test_basic_complex_single_field(kt4):
    cplx = basic_complex(kt4, [Vector.basis(4, 4)])
    assert [str(f) for f in cplx.basis(1)] == ["e1", "e2", "e3"]
    assert cplx.dims() == (1, 3, 3, 1, 0)


def test_basic_complex_two_fields(kt4):
    cplx = basic_complex(kt4, [Vector.basis(4, 4), Vector.basis(4, 3)])
    assert [str(f) for f in cplx.basis(1)] == ["e1", "e2"]
    assert cplx.dims() == (1, 2, 1, 0, 0)


def test_basic_complex_no_fields_is_full(kt4):
    assert basic_complex(kt4, []).dims() == full_complex(kt4).dims()


def _reference_basic_bases(model, fields):
    """The definition basic_complex had before it built on the annihilator:
    the joint kernel of i_v and L_v over all monomials, per degree, as
    basis rows {mask: coefficient}."""
    n = model.n_gen
    ops = []
    for v in fields:
        ops += [Contraction(v), LieDerivative(model, v)]
    bases = []
    for k in range(n + 1):
        monomials = [{m: Fraction(1)} for m in degree_masks(n, k)]
        kernel = linalg.left_kernel(_condition_rows(monomials, ops, n))
        bases.append(tuple(linalg.matmul(kernel, monomials)))
    return tuple(bases)


@pytest.mark.parametrize("names", [("U",), ("V", "U"), ("U", "V", "E1"),
                                   ("E1", "E1")], ids=",".join)
def test_basic_complex_is_the_joint_kernel_of_i_and_l(lcs_struct, names):
    n = lcs_struct.model.n_gen
    fields = [Vector.basis(n, 1) if name == "E1" else getattr(lcs_struct, name)
              for name in names]
    assert basic_complex(lcs_struct.model, fields)._rows == \
        _reference_basic_bases(lcs_struct.model, fields)


@pytest.mark.parametrize("names, theta", [(("U",), 7), (("V", "U"), 6)],
                         ids=["U", "V,U"])
def test_basic_complex_builds_no_form_past_theta(monkeypatch, names, theta):
    """Each theta_j is a Wedge applied to the terms of the products: the
    only Forms basic_complex makes on h7 x S1 are the 1-forms theta_j."""
    doc = modelfile.load_path(MODELS_DIR / "h7s1.model")
    struct = validate_lcs(doc.model, doc.omega, doc.eta)
    fields = [getattr(struct, name) for name in names]
    made = []
    make, init = Form._make, Form.__init__

    def counting_make(cls, n_gen, degree, terms):
        made.append(degree)
        return make(n_gen, degree, terms)

    def counting_init(self, n_gen, degree, *args):
        made.append(degree)
        init(self, n_gen, degree, *args)

    monkeypatch.setattr(Form, "_make", classmethod(counting_make))
    monkeypatch.setattr(Form, "__init__", counting_init)
    cplx = basic_complex(struct.model, fields)
    monkeypatch.undo()
    assert made == [1] * theta
    assert cplx._rows == _reference_basic_bases(struct.model, fields)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_basic_complex_on_random_fields(data):
    model = data.draw(rational_models())
    n = model.n_gen
    fields = data.draw(st.lists(vectors(n), min_size=1, max_size=3))
    cplx = basic_complex(model, fields)
    assert cplx._rows == _reference_basic_bases(model, fields)
    # the dense oracle spans the same spaces, in its own monomial order
    d1 = oracle.model_of(model)
    vecs = [list(v.coeffs) for v in fields]
    for k in range(n + 1):
        monos = oracle.monomials(n, k)
        rows = [oracle.coords(oracle.form_of(f), monos)
                for f in cplx.basis(k)]
        assert oracle.rref(rows, len(monos))[0] == \
            oracle.basic_space(d1, n, vecs, k)


def test_cohomology_dimensions(kt4):
    assert betti_numbers(full_complex(kt4)) == (1, 3, 4, 3, 1)
    basic = basic_complex(kt4, [Vector.basis(4, 4)])
    assert betti_numbers(basic) == (1, 2, 2, 1, 0)


def test_degree_zero_space(kt4):
    space = cohomology(full_complex(kt4), 0)
    assert space.dimension == 1
    assert space.representatives[0] == Form.constant(4, 1)


def test_degree_out_of_range(kt4):
    with pytest.raises(DegreeError):
        cohomology(full_complex(kt4), 5)


def test_euler_characteristic_vanishes(kt4):
    for struct in ["(0,0,12)", "(0,0,12,0)", "(0,0,0,0,12+34)"]:
        m = StructureModel.from_salamon(struct)
        betti = betti_numbers(full_complex(m))
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


def test_poincare_duality_for_unimodular():
    for struct in ["(0,0,12,0)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)"]:
        m = StructureModel.from_salamon(struct)
        assert m.is_unimodular
        betti = betti_numbers(full_complex(m))
        assert betti == tuple(reversed(betti))


def test_class_of_left_inverse(kt4):
    cplx = full_complex(kt4)
    for k in range(5):
        space = cplx.space(k)
        for j, rep in enumerate(space.representatives):
            coords = space.class_of(rep)
            assert list(coords) == [int(i == j) for i in range(space.dimension)]


def test_class_of_kills_exact(kt4):
    cplx = full_complex(kt4)
    space = cplx.space(2)
    exact = kt4.d(Form.generator(4, 3))
    assert list(space.class_of(exact)) == [0] * space.dimension


def test_class_of_requires_closed(kt4):
    space = full_complex(kt4).space(1)
    with pytest.raises(PreconditionError):
        space.class_of(Form.generator(4, 3))


def test_dense_oracle_agrees_on_dimensions(rng):
    structures = ["(0,0,12)", "(0,0,12,0)", "(0,0,12,13)",
                  "(0,0,0,0,12+34)", "(0,0,0,12,13+24)"]
    for struct in structures:
        m = StructureModel.from_salamon(struct)
        d1 = oracle.model_of(m)
        assert list(betti_numbers(full_complex(m))) == oracle.betti(d1, m.n_gen)


def test_splitting_check_kt4(kt4):
    inner = full_complex(kt4)
    outer = basic_complex(kt4, [Vector.basis(4, 4)])
    report = splitting_check(kt4, Form.generator(4, 4), inner, outer)
    assert report.ok
    b = betti_numbers(inner)
    c = betti_numbers(outer)
    for k in range(5):
        assert b[k] == c[k] + (c[k - 1] if k else 0)


def test_splitting_map_degree_one(kt4):
    inner = full_complex(kt4)
    outer = basic_complex(kt4, [Vector.basis(4, 4)])
    sm = splitting_map(kt4, Form.generator(4, 4), inner, outer, 1)
    mat = [list(r) for r in sm.matrix]
    assert len(mat) == 3 and sm.target_dim == 3
    assert [linalg.sparse(r) for r in mat] == list(sm.rows)
    assert linalg.rank(sm.rows) == 3


def test_splitting_map_top_degree(kt4):
    inner = full_complex(kt4)
    outer = basic_complex(kt4, [Vector.basis(4, 4)])
    sm = splitting_map(kt4, Form.generator(4, 4), inner, outer, 4)
    # only the H^3(outer) summand contributes, through e4 ^ e1^e2^e3
    assert sm.outer_dims == (0, 1)
    assert [list(r) for r in sm.matrix] == [[-1]]


def test_splitting_requires_closed_w(kt4):
    inner = full_complex(kt4)
    outer = basic_complex(kt4, [Vector.basis(4, 3)])
    with pytest.raises(NotClosedError):
        splitting_map(kt4, Form.generator(4, 3), inner, outer, 1)


def test_splitting_requires_field_extension(kt4):
    inner = full_complex(kt4)
    with pytest.raises(PreconditionError):
        splitting_map(kt4, Form.generator(4, 4), inner, inner, 1)


def test_splitting_check_checks_its_setup_once(monkeypatch, kt4):
    from hardlef import cohomology as coh
    calls = []
    check = coh._check_splitting_setup
    monkeypatch.setattr(coh, "_check_splitting_setup",
                        lambda *args: calls.append(1) or check(*args))
    inner = full_complex(kt4)
    outer = basic_complex(kt4, [Vector.basis(4, 4)])
    assert splitting_check(kt4, Form.generator(4, 4), inner, outer).ok
    assert len(calls) == 1
    # a bad setup is refused before any space is built
    outer = basic_complex(kt4, [Vector.basis(4, 3)])
    with pytest.raises(NotClosedError):
        splitting_check(kt4, Form.generator(4, 3), inner, outer)
    assert not outer._spaces


def test_splitting_check_h5s1():
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)")
    inner = full_complex(m)
    outer = basic_complex(m, [Vector.basis(6, 6)])
    assert splitting_check(m, Form.generator(6, 6), inner, outer).ok


def test_cohomology_module_is_not_shadowed():
    import types

    import hardlef.cohomology as m
    assert isinstance(m, types.ModuleType)
    assert m.cohomology is cohomology


def test_class_of_and_coords_factor_nothing_after_build(monkeypatch):
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    cplxs = [full_complex(m), basic_complex(m, [Vector.basis(6, 6)])]
    spaces = [c.space(k) for c in cplxs for k in range(7)]
    calls = _count_eliminations(monkeypatch)
    for sp in spaces:
        for i, rep in enumerate(sp.representatives):
            assert sp.class_of(rep) == tuple(int(i == j)
                                             for j in range(sp.dimension))
    for c in cplxs:
        for k in range(7):
            for i, f in enumerate(c.basis(k)):
                assert c.coords(f) == [int(i == j) for j in range(c.dim(k))]
    assert calls == []


def test_each_differential_is_factored_once(monkeypatch):
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    cplx = full_complex(m)
    calls = []
    forward = linalg._forward

    def recording(rows):
        calls.append([dict(row) for row in rows])
        return forward(rows)

    # one forward pass per nonzero differential, the one its rank runs
    monkeypatch.setattr(linalg, "_forward", recording)
    assert betti_numbers(cplx) == (1, 5, 9, 10, 9, 5, 1)
    factored = {}
    for k in range(7):
        d = cplx.diff_matrix(k)
        if not any(map(any, d)):
            continue
        rows = [{j: x for j, x in enumerate(row) if x} for row in d]
        factored[k] = sum(1 for mat in calls if mat == rows)
    assert factored and set(factored.values()) == {1}


# h5 x S1 rebased by a rational triangular matrix: its complex basic for
# E6 has rational differentials in degrees 2 and 3
REBASED = rebase(StructureModel.from_salamon("(0,0,0,0,12+34,0)"),
                 [[1, Fraction(1, 2), 0, 0, 0, -1],
                  [0, 1, 0, Fraction(2, 3), 0, 0], [0, 0, 1, 0, 1, 0],
                  [0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 1, Fraction(1, 2)],
                  [0, 0, 0, 0, 0, 1]])


@pytest.mark.parametrize("make", [
    lambda: full_complex(StructureModel.from_salamon("(0,0,0,0,12+34,0)")),
    lambda: basic_complex(REBASED, [Vector.basis(6, 6)])],
    ids=["h5s1-full", "rebased-basic"])
def test_class_of_refuses_a_form_that_is_zero_at_the_cycle_pivots(make):
    """A slice vector that is 0 at every cycle pivot and not 0 is not
    closed: read only at the pivots it would have the zero class."""
    cplx = make()
    seen = 0
    for k in range(cplx.model.n_gen + 1):
        sp = cplx.space(k)
        at, _ = sp._cycle_index
        off = [j for j in range(cplx.dim(k)) if j not in at]
        if not off:
            continue
        coords = {j: Fraction(j + 2, 3) for j in off}
        form = combine(cplx.basis(k), coords, cplx.model.n_gen, k)
        assert not cplx.model.d(form).is_zero()
        message = f"class_of needs a closed form in degree {k}"
        with pytest.raises(PreconditionError, match=message):
            sp._class_of_coords(coords)
        with pytest.raises(PreconditionError, match=message):
            sp.class_of(form)
        seen += 1
    assert seen >= 2


def test_each_space_takes_one_elimination(monkeypatch):
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    for cplx, degrees in [(full_complex(m), 7),
                          (basic_complex(m, [Vector.basis(6, 6)]), 6)]:
        for k in range(7):
            cplx._cycles(k)
        calls = _count_eliminations(monkeypatch)
        for k in range(7):
            cplx.space(k)
        monkeypatch.undo()
        assert sum(1 for k in range(7) if cplx.dim(k)) == degrees
        assert len(calls) == degrees


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_class_of_matches_the_oracle(data):
    """y = sum c_i rep_i + d z has class c, in the package and in the
    dense oracle; d z has coordinates on kernel rows that are not
    representatives."""
    model = data.draw(rational_models())
    n = model.n_gen
    fields = data.draw(st.lists(vectors(n), max_size=2))
    cplx = basic_complex(model, fields)
    d1 = oracle.model_of(model)
    vecs = [list(v.coeffs) for v in fields]
    for k in range(n + 1):
        if not cplx.dim(k):
            continue
        space = cplx.space(k)
        c = data.draw(st.lists(COEFFS, min_size=space.dimension,
                               max_size=space.dimension))
        y = Form.zero(n, k)
        for ci, rep in zip(c, space.representatives):
            y = y + ci * rep
        for b in cplx.basis(k - 1):
            y = y + data.draw(COEFFS) * model.d(b)
        assert space.class_of(y) == tuple(c)
        reps = [oracle.form_of(rep) for rep in space.representatives]
        exact = oracle.exact_rows_basic(d1, n, vecs, k)
        assert oracle.class_coords(oracle.form_of(y), reps, exact,
                                   oracle.monomials(n, k)) == list(c)


def _count_eliminations(monkeypatch):
    """The row counts of the eliminations run while monkeypatch is active:
    the forward passes, which rref and rank both run."""
    calls = []
    forward = linalg._forward

    def counting(rows):
        calls.append(len(rows))
        return forward(rows)

    monkeypatch.setattr(linalg, "_forward", counting)
    return calls


def test_full_complex_factors_no_slice(monkeypatch):
    from hardlef.exterior import _column_index

    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    calls = _count_eliminations(monkeypatch)
    cplx = full_complex(m)
    assert calls == []
    assert betti_numbers(cplx) == (1, 5, 9, 10, 9, 5, 1)
    for k in range(7):
        masks = degree_masks(6, k)
        # the monomial basis is its own RREF: the pivot map is the
        # cached mask index and no row has a part off its pivot
        at, off = cplx._pivots[k]
        assert at is _column_index(6, k) and off == {}
        f = Form(6, k, {mk: Fraction(i + 1, 2) for i, mk in
                        enumerate(masks)})
        assert cplx.coords(f) == [Fraction(i + 1, 2)
                                  for i in range(len(masks))]
        assert cplx.coords(Form.zero(6, k)) == [0] * len(masks)
    assert cplx.coords(Form.generator(6, 1), 2) is None


@pytest.mark.parametrize("field", [(0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1)],
                         ids=["e6", "mixed"])
def test_rebuilt_basic_complex_runs_no_elimination(monkeypatch, field):
    """The bases of a basic complex are RREFs: a Subcomplex built on them
    reads coordinates at the pivots and factors nothing."""
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    basic = basic_complex(m, [Vector(field)])
    calls = _count_eliminations(monkeypatch)
    again = Subcomplex(m, basic.fields, basic._rows)
    assert calls == []
    assert again._pivots == basic._pivots
    for k in range(7):
        assert again.diff_matrix(k) == basic.diff_matrix(k)
        for i, f in enumerate(basic.basis(k)):
            assert again.coords(f) == [int(i == j)
                                       for j in range(basic.dim(k))]
    assert again.coords(Form.generator(6, 6)) is None


def test_basis_not_in_rref_is_rejected(kt4):
    bases = list(full_complex(kt4)._rows)
    bases[1] = ({0b1: 1, 0b10: 1}, {0b10: 1})  # e1 + e2, e2
    with pytest.raises(ValueError, match="degree 1 basis not in RREF: "
                                         "a row has an entry at"):
        Subcomplex(kt4, (), bases)


@pytest.mark.parametrize("rows", [
    ({0b11: 1},), ({0b10000: 1},), ({-1: 1},),
    ({0b1: 1, 0b100: 0}, {0b10: 1}), ({0b1: 1, 0b100: 0.5},),
    ({0b1: 1, 0b100: "1/2"},),
    ({0b1: 1.0}, {0b10: 1}, {0b100: 1}, {0b1000: 1}),
], ids=["degree_2", "outside_frame", "negative", "zero", "float", "str",
        "float_monomial"])
def test_a_row_term_off_the_masks_or_not_a_nonzero_rational_is_refused(
        kt4, rows):
    """A Form drops a zero and refuses a float; rows are taken as they
    are, so a zero, which would leave a residual at a form of the span,
    and any coefficient other than an int or a Fraction are refused."""
    bases = list(full_complex(kt4)._rows)
    bases[1] = rows
    with pytest.raises(ValueError, match="degree 1 basis has a term other "
                                         "than a degree-1 mask to a nonzero "
                                         "rational"):
        Subcomplex(kt4, (), bases)


def test_monomial_rows_are_found_from_the_input(monkeypatch):
    """Rows {m: 1} in mask order are monomial slices, whatever builds them:
    D is d(e_I) by column index, as in full_complex, which builds no Form.
    The constructor takes no differential, so the rows of the U-basic
    complex of kt4 give its own Betti numbers."""
    import inspect
    from pathlib import Path
    from hardlef import modelfile
    model = modelfile.load_path(Path(__file__).resolve().parent.parent
                                / "models" / "h7s1.model").model
    n = model.n_gen
    made = []
    make, init = Form._make.__func__, Form.__init__
    monkeypatch.setattr(Form, "_make", classmethod(
        lambda cls, *args: made.append(args) or make(cls, *args)))
    monkeypatch.setattr(Form, "__init__", lambda self, *args: (
        made.append(args), init(self, *args))[1])
    full = full_complex(model)
    assert made == []
    again = Subcomplex(model, (), [[{m: 1} for m in degree_masks(n, k)]
                                   for k in range(n + 1)])
    assert all(again._d(k) == full._d(k) for k in range(n + 1))
    for k in range(n + 1):
        upper = degree_masks(n, k + 1)
        assert [{upper[j]: x for j, x in row.items()} for row in again._d(k)
                ] == [model._d_monomial(m) for m in degree_masks(n, k)]
    assert list(inspect.signature(Subcomplex).parameters) == [
        "model", "fields", "bases"]
    kt4 = StructureModel.from_salamon("(0,0,12,0)", name="kt4")
    basic = basic_complex(kt4, [Vector.basis(4, 4)])
    again = Subcomplex(kt4, basic.fields, basic._rows)
    assert betti_numbers(again) == (1, 2, 2, 1, 0)
    # a degree that is not monomial beside monomial ones: its D is d of
    # each whole row, not d(e_I) at the row's pivot (d e1 = 0, d e3 = e12)
    bases = list(full_complex(kt4)._rows)
    bases[1] = ({0b1: 1, 0b100: 1}, {0b10: 1}, {0b1000: 1})
    upper, d1 = degree_masks(4, 2), Subcomplex(kt4, (), bases)._d(1)
    assert d1[0] and d1 == [
        {upper.index(m): x for m, x in kt4.d(Form(4, 1, row)).terms.items()}
        for row in bases[1]]
