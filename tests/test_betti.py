"""Betti numbers from ranks: b_k = dim C^k - rank d_k - rank d_(k-1).

betti_numbers builds no CohomologySpace; these tests pin that, the
d d = 0 guard it shares with space(k), and its agreement with the built
spaces and with the identities the paper's Betti facts rest on."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, Vector, basic_complex,
                     betti_numbers, full_complex, linalg, validate_contact)
from hardlef import cohomology as coh
from hardlef.catalog import builtin_entries
from hardlef.errors import InternalConsistencyError
from hardlef.structures import product_with_circle

from conftest import rational_models, rebase, vectors

H5S1 = "(0,0,0,0,12+34,0)"


def _complexes(model, fields):
    return [full_complex(model), basic_complex(model, fields)]


def _space_dims(cplx):
    return tuple(cplx.space(k).dimension
                 for k in range(cplx.model.n_gen + 1))


def _rank_path(cplx):
    """betti_numbers on a complex with no space built, which it leaves so."""
    assert not cplx._spaces
    betti = betti_numbers(cplx)
    assert not cplx._spaces
    return betti


# ----- the gain --------------------------------------------------------------


def test_betti_numbers_build_no_space_and_no_factorization(monkeypatch):
    model = StructureModel.from_salamon(H5S1, name="h5s1")
    cplxs = _complexes(model, [Vector.basis(6, 6)])

    def refuse(*args):
        raise AssertionError("betti_numbers built a space, a cycle basis "
                             "or an inverse")

    monkeypatch.setattr(coh.CohomologySpace, "__init__", refuse)
    monkeypatch.setattr(coh.Subcomplex, "_cycles", refuse)
    monkeypatch.setattr(linalg, "kernel_and_rank", refuse)
    monkeypatch.setattr(linalg, "sparse_inverse", refuse)
    betti = [betti_numbers(c) for c in cplxs]
    monkeypatch.undo()
    assert betti == [(1, 5, 9, 10, 9, 5, 1), (1, 4, 5, 5, 4, 1, 0)]
    assert betti == [_space_dims(c) for c in _complexes(
        model, [Vector.basis(6, 6)])]


def test_betti_numbers_eliminate_nothing_once_the_spaces_are_built(
        monkeypatch):
    model = StructureModel.from_salamon(H5S1, name="h5s1")
    cplxs = _complexes(model, [Vector.basis(6, 6)])
    dims = [_space_dims(c) for c in cplxs]
    calls = []
    forward = linalg._forward

    def counting(rows):
        calls.append(len(rows))
        return forward(rows)

    # rref and rank both run the forward pass
    monkeypatch.setattr(linalg, "_forward", counting)
    assert [betti_numbers(c) for c in cplxs] == dims
    assert calls == []


def test_rank_reuses_the_factorization_of_a_differential(monkeypatch):
    cplx = full_complex(StructureModel.from_salamon(H5S1))
    ranks = [cplx.dim(k) - len(cplx._cycles(k)) for k in range(7)]
    monkeypatch.setattr(linalg, "rank", None)
    monkeypatch.setattr(linalg, "rref", None)
    assert [cplx._rank(k) for k in range(7)] == ranks


# ----- the guard -------------------------------------------------------------


def _corrupted(cplx, k, value=Fraction(1, 3)):
    """Add value e_j to a row i of D_(k-1), with D_k[j] nonzero, so that
    row i of D_(k-1) D_k becomes value D_k[j].  Row i is one that no row
    of D_(k-2) reaches, so D_(k-2) D_(k-1) stays zero."""
    reached = {i for row in cplx._d(k - 2) for i in row}
    rows = cplx._diff[k - 1]
    i, j = next((i, j) for i in range(len(rows)) if i not in reached
                for j, row in enumerate(cplx._d(k))
                if row and j not in rows[i])
    rows[i] = {**rows[i], j: value}
    return cplx


def _message(call):
    with pytest.raises(InternalConsistencyError) as info:
        call()
    return str(info.value)


# (0,0,1/2*12,13) rebased by a rational triangular matrix: the
# differentials hold non-integer entries in every degree
RATIONAL = rebase(StructureModel.from_salamon("(0,0,1/2*12,13,0)"),
                  [[1, Fraction(1, 2), 0, Fraction(-2, 3), 0],
                   [0, 2, Fraction(1, 3), 0, 1],
                   [0, 0, Fraction(-3, 2), Fraction(1, 2), 0],
                   [0, 0, 0, 1, Fraction(5, 7)],
                   [0, 0, 0, 0, Fraction(1, 2)]])


@pytest.mark.parametrize("structure, fields, k, value", [
    (H5S1, (), 1, Fraction(1, 3)), (H5S1, (), 2, Fraction(1, 3)),
    (H5S1, (), 4, Fraction(1, 3)),
    (H5S1, [(0, 0, 0, 0, 0, 1)], 3, Fraction(1, 3)),
    ("rational", (), 1, Fraction(1, 3)), ("rational", (), 2, Fraction(1, 3)),
    ("rational", [(0, 1, 0, Fraction(5, 7), Fraction(1, 2))], 2,
     Fraction(1, 3)),
    (H5S1, (), 1, 1), (H5S1, (), 2, -2), (H5S1, (), 4, 1),
    (H5S1, [(0, 0, 0, 0, 0, 1)], 3, 1)],
    ids=["h5s1-1", "h5s1-2", "h5s1-4", "h5s1-basic-3", "rational-1",
         "rational-2", "rational-basic-2", "h5s1-1-int", "h5s1-2-int",
         "h5s1-4-int", "h5s1-basic-3-int"])
def test_betti_numbers_and_space_share_the_d_squared_guard(structure, fields,
                                                           k, value):
    """A Fraction in D_(k-1) takes the guard's scaled rows; an int in an
    integral D takes the rows as they are."""
    def corrupted():
        model = (RATIONAL if structure == "rational"
                 else StructureModel.from_salamon(structure))
        return _corrupted(basic_complex(model, map(Vector, fields)), k,
                          value)

    if structure == "rational":
        assert any(x.denominator > 1 for row in corrupted()._d(k)
                   for x in row.values())
    if type(value) is int:
        cplx = corrupted()
        assert all(type(x) is int for j in (k - 1, k)
                   for row in cplx._d(j) for x in row.values())
    expected = f"image is not contained in the kernel in degree {k}"
    assert _message(lambda: betti_numbers(corrupted())) == expected
    assert _message(lambda: corrupted().space(k)) == expected
    below = corrupted()
    for j in range(k):
        below.space(j)  # the degrees under k still build


def test_a_span_not_closed_under_d_is_refused():
    # d e5 = e12 + e34 leaves the span of e1, e2, e5 in degree 1; degree 0
    # is a monomial slice, whose D is read off d(e_I), but degree 1 is not,
    # so its D is reduced against degree 2 and checked
    model = StructureModel.from_salamon(H5S1)
    bases = [[{0: 1}], [{0b1: 1}, {0b10: 1}, {0b10000: 1}], [{0b11: 1}],
             [], [], [], []]
    assert _message(lambda: coh.Subcomplex(model, (), bases)) == (
        "span is not closed under d in degree 1; the fields do not cut out "
        "a subcomplex")
    bases[2].append({0b1100: 1})  # e3 ^ e4
    assert coh.Subcomplex(model, (), bases).dims() == (1, 3, 2, 0, 0, 0, 0)
    # the other way round: degree 1 is a monomial slice and degree 2 is
    # not, so D_1 is still reduced against degree 2 and checked
    bases[1] = [{1 << i: 1} for i in range(6)]
    bases[2] = [{0b11: 1}]
    assert _message(lambda: coh.Subcomplex(model, (), bases)) == (
        "span is not closed under d in degree 1; the fields do not cut out "
        "a subcomplex")
    bases[2] = [{0b11: 1, 0b1100: 1}]  # d e5 itself
    assert coh.Subcomplex(model, (), bases).dims() == (1, 6, 1, 0, 0, 0, 0)


# ----- the net ---------------------------------------------------------------


def test_rank_path_matches_the_spaces_on_the_lcs_corpus(lcs_struct):
    for cplx in _complexes(lcs_struct.model, [lcs_struct.U]):
        assert _rank_path(cplx) == _space_dims(cplx)


def test_cycles_and_ranks_on_the_lcs_corpus(lcs_struct):
    """In every complex and degree, the cycles are an RREF basis of ker D_k
    and the rank kept from their elimination is the rank of D_k."""
    model, u, v = lcs_struct.model, lcs_struct.U, lcs_struct.V
    for fields in [(), (u,), (v,), (u, v)]:
        cplx = basic_complex(model, fields)
        for k in range(model.n_gen + 1):
            cycles, d = cplx._cycles(k), cplx._d(k)
            assert not any(linalg.matmul(cycles, d))
            linalg.pivot_index(cycles)
            rank = cplx._rank(k)
            assert len(cycles) + rank == cplx.dim(k)
            assert rank == linalg.rank(d)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_rank_path_matches_the_spaces_on_random_models(data):
    model = data.draw(rational_models())
    fields = data.draw(st.lists(vectors(model.n_gen), max_size=2))
    cplx = basic_complex(model, fields)
    assert _rank_path(cplx) == _space_dims(cplx)
    # rational_models names each model by the pool entry it rebases
    assert betti_numbers(full_complex(model)) == betti_numbers(
        full_complex(StructureModel.from_salamon(model.name)))
    if model.is_unimodular:
        betti = betti_numbers(full_complex(model))
        assert betti == betti[::-1]


@pytest.mark.parametrize("name", [
    e.name for e in builtin_entries()
    if e.expected.get("validates", {}).get("value") == "contact"])
def test_kunneth_for_the_product_with_a_circle(name):
    entry = next(e for e in builtin_entries() if e.name == name)
    lcs = product_with_circle(validate_contact(entry.model, entry.eta))
    b = betti_numbers(full_complex(entry.model))
    assert betti_numbers(full_complex(lcs.model)) == tuple(
        (b[k] if k < len(b) else 0) + (b[k - 1] if k else 0)
        for k in range(len(b) + 1))


def test_betti_numbers_of_the_dense_rebased_h9_times_a_circle():
    # h9 by its differentials (pair notation stops at nine generators, and
    # the product has ten); p is unipotent with a superdiagonal of +-1/2,
    # as the rebased bench models are, so d is dense in the new coframe
    n = 9
    heisenberg = StructureModel(
        [Form.zero(n, 2)] * (n - 1)
        + [Form(n, 2, {3 << 2 * i: 1 for i in range(4)})])
    p = [[Fraction(int(i == j)) + (j == i + 1) * Fraction((-1) ** i, 2)
          for j in range(n)] for i in range(n)]
    model = rebase(heisenberg, p)
    # e9 in the coframe f = p e
    q = linalg.inverse(p)
    eta = Form(n, 1, {1 << k: q[n - 1][k] for k in range(n)})
    lcs = product_with_circle(validate_contact(model, eta))
    assert any(x.denominator > 1 for row in full_complex(lcs.model)._d(2)
               for x in row.values())
    assert betti_numbers(full_complex(lcs.model)) == \
        (1, 9, 35, 75, 90, 84, 90, 75, 35, 9, 1)
    assert betti_numbers(basic_complex(lcs.model, [lcs.U])) == \
        (1, 8, 27, 48, 42, 42, 48, 27, 8, 1, 0)
