from math import comb

import pytest

from hardlef import (Form, StructureModel, Vector, basic_complex,
                     betti_numbers, full_complex, splitting_check,
                     splitting_map)
from hardlef import linalg
from hardlef.cohomology import Subcomplex, cohomology
from hardlef.errors import (DegreeError, NotClosedError, PreconditionError)

import oracle


@pytest.fixture
def kt4():
    return StructureModel.from_salamon("(0,0,12,0)", name="kt4")


def test_full_complex_slices(kt4):
    cplx = full_complex(kt4)
    assert cplx.dims() == tuple(comb(4, k) for k in range(5))
    d1 = [linalg.sparse(row) for row in cplx.diff_matrix(1)]
    assert linalg.rank(d1, cplx.dim(2)) == 1


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
    assert len(mat) == 3 and sm.inner_dim == 3
    assert [linalg.sparse(r) for r in mat] == list(sm.rows)
    assert linalg.rank(sm.rows, 3) == 3


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
    calls = []
    eliminate = linalg._eliminate

    def counting(rows, ncols):
        calls.append((len(rows), ncols))
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counting)
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
    eliminate = linalg._eliminate

    def recording(rows, ncols):
        # the elimination works in place, so record the rows it is given
        calls.append([dict(row) for row in rows])
        return eliminate(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    assert betti_numbers(cplx) == (1, 5, 9, 10, 9, 5, 1)
    factored = {}
    for k in range(7):
        d, width = cplx.diff_matrix(k), cplx.dim(k + 1)
        if not any(map(any, d)):
            continue
        rows = [{j: x for j, x in enumerate(row) if x} for row in d]
        factored[k] = sum(1 for mat in calls if len(mat) == len(d)
                          and [{j: x for j, x in row.items() if j < width}
                               for row in mat] == rows)
    assert factored and set(factored.values()) == {1}


def test_full_complex_factors_no_slice(monkeypatch):
    from fractions import Fraction

    from hardlef.exterior import degree_masks

    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    factored = []
    factor = Subcomplex._factor

    def recording(cplx, k):
        factored.append(k)
        return factor(cplx, k)

    monkeypatch.setattr(Subcomplex, "_factor", recording)
    cplx = full_complex(m)
    assert betti_numbers(cplx) == (1, 5, 9, 10, 9, 5, 1)
    assert factored == []
    for k in range(7):
        masks = degree_masks(6, k)
        ech = cplx.slice(k)
        assert ech.pivots == list(range(len(masks)))
        assert ech.sparse_combos == [{i: 1} for i in range(len(masks))]
        assert cplx.slice(k) is ech and factored.count(k) == 1
        f = Form(6, k, {mk: Fraction(i + 1, 2) for i, mk in
                        enumerate(masks)})
        assert cplx.coords(f) == [Fraction(i + 1, 2)
                                  for i in range(len(masks))]
        assert cplx.coords(Form.zero(6, k)) == [0] * len(masks)
    assert cplx.coords(Form.generator(6, 1), 2) is None
