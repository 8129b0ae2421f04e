import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, modelfile, validate_contact,
                     validate_lcs)
from hardlef import errors
from hardlef import lefschetz as lef
from hardlef import linalg
from hardlef.cohomology import (CohomologyMap, CohomologySpace,
                                _condition_rows)
from hardlef.errors import (DegreeError, InternalConsistencyError,
                            NotLefschetzError, PreconditionError)
from hardlef.exterior import (Contraction, Inclusion, Operator, Wedge,
                              contract, wedge_power)
from hardlef.model import Differential, LieDerivative

import oracle
from conftest import COEFFS, LCS_CORPUS, combine, random_fraction, rebase


def gen(n, i):
    return Form.generator(n, i)


@pytest.fixture
def kt4_struct():
    m = StructureModel.from_salamon("(0,0,12,0)", name="kt4")
    return validate_lcs(m, gen(4, 4), gen(4, 3))


@pytest.fixture
def h5s1_struct():
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    return validate_lcs(m, gen(6, 6), gen(6, 5))


@pytest.fixture
def nil5b_s1_struct():
    m = StructureModel.from_salamon("(0,0,12,13,14+23,0)")
    return validate_lcs(m, gen(6, 6), gen(6, 5))


def test_de_rham_relation_kt4_degree_one(kt4_struct):
    verdict = lef.is_graph_of_isomorphism(
        lef.de_rham_lefschetz_relation(kt4_struct, 1))
    assert verdict.is_graph_of_isomorphism
    # images of [e1], [e2], [e4] against reps [e123], [e134], [e234]
    assert verdict.map.matrix == (
        (0, -1, 0),
        (0, 0, -1),
        (1, 0, 0))


def test_de_rham_relation_kt4_degree_zero(kt4_struct):
    verdict = lef.is_graph_of_isomorphism(
        lef.de_rham_lefschetz_relation(kt4_struct, 0))
    assert verdict.map.matrix == ((-1,),)


def test_basic_relation_kt4(kt4_struct):
    verdict = lef.is_graph_of_isomorphism(
        lef.basic_lefschetz_relation(kt4_struct, 1))
    assert verdict.map.matrix == ((-1, 0), (0, -1))
    verdict0 = lef.is_graph_of_isomorphism(
        lef.basic_lefschetz_relation(kt4_struct, 0))
    assert verdict0.map.matrix == ((1,),)


def test_contact_relation_h3():
    m = StructureModel.from_salamon("(0,0,12)")
    c = validate_contact(m, gen(3, 3))
    v0 = lef.is_graph_of_isomorphism(lef.contact_lefschetz_relation(c, 0))
    v1 = lef.is_graph_of_isomorphism(lef.contact_lefschetz_relation(c, 1))
    assert v0.is_graph_of_isomorphism and v1.is_graph_of_isomorphism
    assert v1.map.matrix == ((-1, 0), (0, -1))


def test_degree_out_of_range(kt4_struct):
    with pytest.raises(DegreeError):
        lef.de_rham_lefschetz_relation(kt4_struct, 2)
    with pytest.raises(DegreeError):
        lef.basic_lefschetz_relation(kt4_struct, -1)


def test_graph_decision_total_functional(kt4_struct):
    cplx = lef._full(kt4_struct.model)
    h1 = cplx.space(1)
    one = Fraction(1)
    identity_pairs = [({i: one}, {i: one}) for i in range(3)]
    rel = lef.CohomologyRelation.from_pairs(h1, h1, identity_pairs)
    v = lef.is_graph_of_isomorphism(rel)
    assert v.is_graph_of_isomorphism
    assert v.map.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    with_kernel_pair = identity_pairs + [({}, {0: one, 1: one})]
    rel = lef.CohomologyRelation.from_pairs(h1, h1, with_kernel_pair)
    v = lef.is_graph_of_isomorphism(rel)
    assert v.is_total and not v.is_functional

    half = lef.CohomologyRelation.from_pairs(h1, h1, identity_pairs[:2])
    v = lef.is_graph_of_isomorphism(half)
    assert not v.is_total and v.is_functional


@st.composite
def _class_pairs(draw):
    """Dense class pairs (x, y) in H^a x H^b, a and b in 0..4, with
    repeated and dependent pairs mixed in."""
    da, db = draw(st.integers(0, 4)), draw(st.integers(0, 4))

    def vector(n):
        return [Fraction(draw(COEFFS)) for _ in range(n)]

    pairs = [(vector(da), vector(db))
             for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        if pairs:
            (x1, y1), (x2, y2) = (draw(st.sampled_from(pairs))
                                  for _ in range(2))
            c = draw(COEFFS)
            pairs.append(([a + c * b for a, b in zip(x1, x2)],
                          [a + c * b for a, b in zip(y1, y2)]))
    return da, db, pairs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=_class_pairs())
def test_graph_matches_the_oracle(data):
    da, db, pairs = data
    rel = lef.CohomologyRelation.from_pairs(
        SimpleNamespace(dimension=da, degree=0),
        SimpleNamespace(dimension=db, degree=1),
        [(linalg.sparse(x), linalg.sparse(y)) for x, y in pairs])
    stacked = [x + y for x, y in pairs]
    assert [list(r) for r in rel.span] == oracle.rref(stacked, da + db)[0]
    total, functional, graph = rel.graph
    x_rank = oracle.rank([x for x, _ in pairs])
    assert total == (x_rank == da)
    assert functional == (oracle.rank(stacked) == x_rank)
    assert (graph is not None) == (total and functional)
    if graph is not None:
        matrix = graph.rows
        for x, y in pairs:
            assert [sum((c * matrix[i].get(j, 0) for i, c in enumerate(x)),
                        Fraction(0)) for j in range(db)] == y


def test_relation_spans_are_representative_independent(kt4_struct):
    rel = lef.de_rham_lefschetz_relation(kt4_struct, 1)
    model = kt4_struct.model
    cplx = lef._full(model)
    deta = model.d(kt4_struct.eta)
    src = cplx.space(1)
    dst = cplx.space(3)
    ops = (Differential(model), LieDerivative(model, kt4_struct.U),
           Contraction(kt4_struct.V), Wedge(wedge_power(deta, 2)),
           Wedge(wedge_power(deta, 1), Wedge(kt4_struct.omega)))
    kernel = linalg.left_kernel(
        _condition_rows(cplx._basis_rows(1), ops, model.n_gen))
    basis = [combine(cplx.basis(1), c, model.n_gen, 1) for c in kernel]
    # a different (still admissible) spanning set of the same subspace
    shuffled = [basis[0] + basis[1], basis[1], basis[2] + 2 * basis[0]]
    pairs = []
    for gamma in shuffled:
        liu = deta.wedge(contract(kt4_struct.U, gamma))
        target = kt4_struct.eta.wedge(
            wedge_power(deta, 0).wedge(liu - kt4_struct.omega.wedge(gamma)))
        pairs.append((linalg.sparse(src.class_of(gamma)),
                      linalg.sparse(dst.class_of(target))))
    rebuilt = lef.CohomologyRelation.from_pairs(src, dst, pairs)
    assert rebuilt.rows == rel.rows and rebuilt.span == rel.span


def test_target_closed_before_projecting(kt4_struct, rng):
    # every emitted pair has a closed, admissible target by construction;
    # spot-check the generated relations at all degrees
    for k in range(kt4_struct.n + 1):
        lef.de_rham_lefschetz_relation(kt4_struct, k)
        lef.basic_lefschetz_relation(kt4_struct, k)


def test_lefschetz_map_raises_with_verdict(nil5b_s1_struct):
    with pytest.raises(NotLefschetzError) as err:
        lef.lefschetz_map_de_rham(nil5b_s1_struct, 1)
    assert err.value.degree == 1
    assert not err.value.verdict.is_graph_of_isomorphism


def test_uv_basic_lefschetz_kt4(kt4_struct):
    r0 = lef.uv_basic_lefschetz(kt4_struct, 0)
    assert r0.invertible and r0.matrix == ((1,),)
    r1 = lef.uv_basic_lefschetz(kt4_struct, 1)
    assert r1.invertible
    assert r1.matrix == ((1, 0), (0, 1))


def test_uv_basic_lefschetz_failure():
    m = StructureModel.from_salamon("(0,0,12,13,14+23,0)")
    s = validate_lcs(m, gen(6, 6), gen(6, 5))
    flags = [lef.uv_basic_lefschetz(s, k).invertible for k in range(3)]
    assert flags == [True, False, True]


def test_transversal_map_ranks_on_first_read_only(monkeypatch):
    m = StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1")
    s = validate_lcs(m, gen(6, 6), gen(6, 5))
    calls = []
    rank = linalg.rank

    def counting(rows):
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(linalg, "rank", counting)
    maps = [lef.uv_basic_lefschetz(s, k) for k in range(s.n + 1)]
    assert calls == []
    for lmap in maps:
        assert lmap.invertible and lmap.invertible
    assert len(calls) == len(maps)


def test_t_map_inverse_property(kt4_struct, h5s1_struct):
    for struct in (kt4_struct, h5s1_struct):
        for k in range(struct.n + 1):
            t = lef.t_map(struct, k)
            basic = lef.lefschetz_map_basic(struct, k)
            prod = linalg.matmul([linalg.sparse(r) for r in basic],
                                 [linalg.sparse(r) for r in t])
            assert prod == [{i: 1} for i in range(len(basic))]


def test_t_map_degree_zero_value(kt4_struct):
    assert lef.t_map(kt4_struct, 0) == ((1,),)


def test_t_map_propagates_noninvertible(nil5b_s1_struct):
    with pytest.raises(PreconditionError):
        lef.t_map(nil5b_s1_struct, 1)


def test_gysin_kt4(kt4_struct):
    rep = lef.gysin_sequence_check(kt4_struct)
    assert rep.ok
    assert rep.top.compositions_vanish and rep.bottom.compositions_vanish
    assert rep.top.exact and rep.bottom.exact
    assert rep.splitting_v.ok and rep.splitting_full.ok
    assert rep.squares_commute


def test_gysin_h5s1(h5s1_struct):
    assert lef.gysin_sequence_check(h5s1_struct).ok


def test_gysin_reports_rather_than_raises(nil5b_s1_struct):
    rep = lef.gysin_sequence_check(nil5b_s1_struct)
    assert isinstance(rep.ok, bool)


def test_pairing_psi_kt4(kt4_struct):
    res = lef.pairing_psi(kt4_struct, 1)
    assert res.matrix == ((0, -1), (1, 0))
    assert res.skew and not res.symmetric
    assert res.nondegenerate and res.parity_ok


def test_pairing_psi_h5s1(h5s1_struct):
    res1 = lef.pairing_psi(h5s1_struct, 1)
    assert res1.skew and res1.nondegenerate and res1.parity_ok
    res2 = lef.pairing_psi(h5s1_struct, 2)
    assert res2.symmetric and res2.nondegenerate and res2.parity_ok


def test_pairing_psi_degree_bounds(kt4_struct):
    with pytest.raises(DegreeError):
        lef.pairing_psi(kt4_struct, 0)


def test_betti_parity_kt4(kt4_struct):
    rep = lef.betti_parity_check(kt4_struct)
    assert rep.betti == (1, 3, 4, 3, 1)
    assert rep.basic_betti == (1, 2, 2, 1, 0)
    assert rep.parity_ok and rep.sum_identity_ok


def test_betti_parity_failure():
    m = StructureModel.from_salamon("(0,0,0,12,13+24,0)")
    s = validate_lcs(m, gen(6, 6), gen(6, 5))
    rep = lef.betti_parity_check(s)
    assert not rep.parity_ok and rep.odd_failures == (1,)
    assert rep.sum_identity_ok


def test_equivalence_report_kt4(kt4_struct):
    rep = lef.lefschetz_equivalence_report(kt4_struct)
    assert rep.agree and rep.contact_available
    assert rep.de_rham_all and rep.basic_all and rep.contact_all


def test_equivalence_report_negative(nil5b_s1_struct):
    rep = lef.lefschetz_equivalence_report(nil5b_s1_struct)
    assert rep.agree
    assert not rep.de_rham_all and not rep.basic_all
    assert rep.contact_all is False
    per = [(v.de_rham, v.basic, v.contact) for v in rep.per_degree]
    assert per == [(True, True, True), (False, False, False),
                   (False, False, False)]


def test_admissible_subspace_covers_every_class_on_vaisman_models(
        kt4_struct, h5s1_struct):
    # every class of H^k (k <= n) is hit by an admissible representative
    for struct in (kt4_struct, h5s1_struct):
        for k in range(struct.n + 1):
            v = lef.is_graph_of_isomorphism(
                lef.de_rham_lefschetz_relation(struct, k))
            assert v.is_total
            vb = lef.is_graph_of_isomorphism(
                lef.basic_lefschetz_relation(struct, k))
            assert vb.is_total


def test_search_harness_finds_no_mismatch_on_catalog():
    from hardlef.catalog import builtin_entries
    structs = []
    for entry in builtin_entries():
        if entry.kind != "lcs":
            continue
        try:
            structs.append(validate_lcs(entry.model, entry.omega, entry.eta))
        except Exception:
            continue
    assert lef.search_lefschetz_mismatches(structs) == []


def _lefschetz_all_h5s1(capsys):
    from pathlib import Path

    from hardlef import cli
    model = Path(__file__).resolve().parent.parent / "models" / "h5s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()


def test_lefschetz_all_builds_each_relation_once(monkeypatch, capsys):
    builds, verdicts = [], []
    relation, verdict = lef._relation, lef.LefschetzVerdict

    def building(src, dst, conditions, op, label):
        builds.append((src, dst))
        return relation(src, dst, conditions, op, label)

    def deciding(degree, *args):
        verdicts.append(degree)
        return verdict(degree, *args)

    monkeypatch.setattr(lef, "_relation", building)
    monkeypatch.setattr(lef, "LefschetzVerdict", deciding)
    _lefschetz_all_h5s1(capsys)
    # de Rham, Lee-basic and contact pictures in degrees 0, 1 and 2
    assert len(builds) == 9
    assert len(set(builds)) == 9
    assert sorted(verdicts) == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_relation_builds_take_no_d_and_reduce_no_form(monkeypatch, capsys):
    # a relation reads the cycles of its source slice and the images of
    # the slice basis in slice coordinates: no d of a form is taken and no
    # form is reduced to its class while one is built
    builds, inside, calls = [], [], []
    relation = lef._relation

    def building(*args):
        builds.append(args)
        inside.append(True)
        try:
            return relation(*args)
        finally:
            inside.pop()

    def counting(name, fn):
        def wrapper(*args):
            if inside:
                calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lef, "_relation", building)
    for cls, name in ((StructureModel, "d"), (CohomologySpace, "class_of")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    _lefschetz_all_h5s1(capsys)
    assert len(builds) == 9
    assert calls == []


def test_relation_target_that_is_not_closed_raises(kt4_struct):
    # e3 ^ e4 is not closed (d e3 = e12), so f -> e3 ^ f sends the cycle e4
    # to a form that is not
    full = lef._full(kt4_struct.model)
    with pytest.raises(InternalConsistencyError,
                       match="^e3 cup in degree 1 is not closed$"):
        lef._relation(full.space(1), full.space(2),
                      _condition_rows(full._basis_rows(1), (), 4),
                      lef._images(full, full, Wedge(gen(4, 3)), 1, 2),
                      "e3 cup")


def test_relation_target_off_the_slice_raises(kt4_struct):
    # omega ^ f is not U-basic for a U-basic f, as i_U omega = 1
    u_cplx = lef._basic(kt4_struct.model, (kt4_struct.U,))
    with pytest.raises(InternalConsistencyError,
                       match="^omega cup in degree 1 leaves the degree-2 "
                             "slice$"):
        lef._relation(u_cplx.space(1), u_cplx.space(2),
                      _condition_rows(u_cplx._basis_rows(1), (), 4),
                      lef._images(u_cplx, u_cplx, Wedge(kt4_struct.omega),
                                  1, 2),
                      "omega cup")


def test_a_second_call_to_a_relation_builder_computes_no_power(
        monkeypatch, h5s1_struct):
    contact = lef.quotient_contact(h5s1_struct)
    calls = [(lef.de_rham_lefschetz_relation, h5s1_struct),
             (lef.basic_lefschetz_relation, h5s1_struct),
             (lef.contact_lefschetz_relation, contact)]
    first = [builder(struct, 1) for builder, struct in calls]
    wedges = []
    wedge = Form.wedge

    def counting(a, b):
        wedges.append((a, b))
        return wedge(a, b)

    monkeypatch.setattr(Form, "wedge", counting)
    for (builder, struct), relation in zip(calls, first):
        assert builder(struct, 1) is relation
    assert wedges == []


def test_each_structure_builds_its_powers_of_d_eta_once(monkeypatch,
                                                         h5s1_struct):
    # the relations of every degree and the transversal maps share one
    # list of powers, each the wedge of the one before with d eta
    powers = []
    deta_powers = lef._deta_powers

    def counting(struct):
        out = deta_powers(struct)
        powers.append(out)
        return out

    monkeypatch.setattr(lef, "_deta_powers", counting)
    n = h5s1_struct.n
    for k in range(n + 1):
        lef.de_rham_lefschetz_relation(h5s1_struct, k)
        lef.basic_lefschetz_relation(h5s1_struct, k)
        lef.uv_basic_lefschetz(h5s1_struct, k)
    assert len(powers) == 3 * (n + 1)
    assert all(p is powers[0] for p in powers)
    deta = h5s1_struct.model.d(h5s1_struct.eta)
    assert list(powers[0]) == [wedge_power(deta, m) for m in range(n + 3)]


def test_lefschetz_all_builds_each_report_once(monkeypatch, capsys):
    from pathlib import Path

    from hardlef import cli
    builds = []
    for name in ("BettiParityReport", "LefschetzEquivalenceReport"):
        def counting(*args, _cls=getattr(lef, name), _name=name):
            builds.append(_name)
            return _cls(*args)
        monkeypatch.setattr(lef, name, counting)
    model = Path(__file__).resolve().parent.parent / "models" / "h5s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()
    # the Vaisman report reads the two reports the command already built
    assert builds.count("BettiParityReport") == 1
    assert builds.count("LefschetzEquivalenceReport") == 1


def test_gysin_computes_each_induced_map_once(monkeypatch, h5s1_struct):
    asked, built = [], []
    induced_map, class_maps = lef._induced_map, lef._class_maps

    def asking(src, dst, op, label):
        asked.append((src, dst, op))
        return induced_map(src, dst, op, label)

    def building(src, dst, op, shift):
        built.append((src, dst, op, shift))
        return class_maps(src, dst, op, shift)

    monkeypatch.setattr(lef, "_induced_map", asking)
    monkeypatch.setattr(lef, "_class_maps", building)
    assert lef.gysin_sequence_check(h5s1_struct).ok
    # the squares ask again for maps of the two rows; each operator of
    # each row builds its family of maps once, and every map asked for is
    # in its family
    assert len(asked) > len(set(asked)) == 56
    assert len(built) == len(set(built)) == 6
    memo = h5s1_struct.model._memo
    assert all(src.degree in memo["class maps", src.complex, dst.complex, op,
                                  dst.degree - src.degree]
               for src, dst, op in asked)


def test_t_map_reuses_the_gysin_maps(monkeypatch, h5s1_struct):
    built = []
    class_maps = lef._class_maps

    def building(*args):
        built.append(args)
        return class_maps(*args)

    lef.gysin_sequence_check(h5s1_struct)
    monkeypatch.setattr(lef, "_class_maps", building)
    for k in range(h5s1_struct.n + 1):
        lef.t_map(h5s1_struct, k)
    assert built == []


def test_suite_builds_each_transversal_map_once(monkeypatch):
    from hardlef.catalog import run_suite
    built = []
    image_classes = lef._image_classes

    def counting(src, *args):
        built.append(src.degree)
        return image_classes(src, *args)

    # each transversal map is built from the classes of one family of images
    monkeypatch.setattr(lef, "_image_classes", counting)
    assert run_suite()["ok"]
    # uv_invertible asks for every degree 0..n of kt4 (n = 1), h5s1,
    # nil5a_s1 and nil5b_s1 (n = 2); t_map asks kt4 and h5s1 again
    assert len(built) == 11


def test_graph_factors_the_first_projection_once(monkeypatch, kt4_struct):
    # the canonical RREF of the relation already shows its first
    # projection, so reading the graph eliminates and multiplies nothing
    relations = [lef.de_rham_lefschetz_relation(kt4_struct, k)
                 for k in range(kt4_struct.n + 1)]
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("rref", "matmul"):
        monkeypatch.setattr(linalg, name,
                            counting(name, getattr(linalg, name)))
    for rel in relations:
        total, functional, matrix = rel.graph
        assert total and functional and matrix is not None
    assert calls == []


def _certificate(src, dst, op, k, j):
    """The slice certificate of op on the degree-k slice of src, from the
    images of the degree-k and degree-(k+1) slices."""
    return lef._chain_slice(src, dst, k, j, lef._images(src, dst, op, k, j),
                            lef._images(src, dst, op, k + 1, j + 1))


def _certified(src_space, dst_space, op):
    """Whether op is certified a chain map on the source slices of degrees
    a-1 and a, as a family of class maps decides it for degree a."""
    src, dst = src_space.complex, dst_space.complex
    a, shift = src_space.degree, dst_space.degree - src_space.degree
    return all(_certificate(src, dst, op, k, k + shift) for k in (a - 1, a))


def test_induced_maps_agree_with_relation_path(monkeypatch, lcs_struct):
    """Every map of the Gysin check and of T_k, certified or not, equals the
    map read off its relation of class pairs."""
    certified = []
    induced_map = lef._induced_map

    def both(src, dst, op, label):
        chain = _certified(src, dst, op)
        images = lef._images(src.complex, dst.complex, op, src.degree,
                             dst.degree)
        try:
            by_relation = lef._relation_map(src, dst, images, label)
        except InternalConsistencyError:
            assert not chain
            by_relation = None
        # raises, as the relation path does, when the map is ill defined
        matrix = induced_map(src, dst, op, label)
        assert matrix == by_relation
        certified.append(chain)
        return matrix

    monkeypatch.setattr(lef, "_induced_map", both)
    lef.gysin_sequence_check(lcs_struct)
    for k in range(lcs_struct.n + 1):
        try:
            lef.t_map(lcs_struct, k)
        except PreconditionError:
            pass
    assert any(certified)


def _on_form(op, f, degree):
    """The form op f, of the given degree (a zero 0-form below degree 0)."""
    return Form(f.n_gen, max(degree, 0), op(f.terms))


def _form_chain_slice(src, dst, op, k, j):
    """The certificate of one slice taken on forms: op f lies in the
    degree-j slice of dst and d(op f) = s op(d f) on every basis form f of
    the degree-k slice of src, for one sign s."""
    d = src.model.d
    pairs = []
    for f in src.basis(k):
        g = _on_form(op, f, j)
        if dst.coords(g, j) is None:
            return False
        pairs.append((d(g), _on_form(op, d(f), j + 1)))
    return (all(x == y for x, y in pairs)
            or all(x == -y for x, y in pairs))


def test_slice_certificates_agree_with_forms(monkeypatch, lcs_struct):
    """Every slice certificate of the Gysin check and of T_k, read in slice
    coordinates, equals the one taken on forms."""
    verdicts, ops = [], []
    chain_slice, class_maps = lef._chain_slice, lef._class_maps

    def building(src, dst, op, shift):
        ops.append(op)
        try:
            return class_maps(src, dst, op, shift)
        finally:
            ops.pop()

    def both(src, dst, k, j, images, upper):
        verdict = chain_slice(src, dst, k, j, images, upper)
        assert verdict == _form_chain_slice(src, dst, ops[-1], k, j)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(lef, "_class_maps", building)
    monkeypatch.setattr(lef, "_chain_slice", both)
    lef.gysin_sequence_check(lcs_struct)
    for k in range(lcs_struct.n + 1):
        try:
            lef.t_map(lcs_struct, k)
        except PreconditionError:
            pass
    assert any(verdicts)


class _Scale(Operator):
    """f -> 2^deg f, which induces 2^a times the identity on H^a."""

    __slots__ = ()

    def __call__(self, terms):
        return {m: c * 2 ** m.bit_count() for m, c in terms.items()}


class _Drop(Operator):
    """Drops one monomial from every form."""

    __slots__ = ()

    def __call__(self, terms):
        return {m: c for m, c in terms.items() if m != self.key[0]}


def test_certificates_of_non_chain_operators_agree_with_forms(h5s1_struct):
    model = h5s1_struct.model
    full = lef._full(model)
    lee_basic = lef._basic(model, (h5s1_struct.U,))
    e5, e34 = gen(6, 5), 0b1100

    wedge_e5, scale, drop_e34, ident = (Wedge(e5), _Scale(), _Drop(e34),
                                        Inclusion())
    verdicts = []
    for op, shift, dst in ((wedge_e5, 1, full), (scale, 0, full),
                           (drop_e34, 0, full), (ident, 0, lee_basic)):
        for k in range(-1, model.n_gen + 1):
            verdict = _certificate(full, dst, op, k, k + shift)
            assert verdict == _form_chain_slice(full, dst, op, k, k + shift)
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_non_chain_operator_takes_the_relation_path(monkeypatch,
                                                    h5s1_struct):
    model = h5s1_struct.model
    cplx = lef._full(model)
    e5 = gen(6, 5)
    relations = []
    relation_map = lef._relation_map

    def counting(src, dst, images, label):
        relations.append((src.degree, label))
        return relation_map(src, dst, images, label)

    monkeypatch.setattr(lef, "_relation_map", counting)

    def uncertified(op, shift):
        return [a for a in range(-2, model.n_gen + 3)
                if not _certified(cplx.space(a), cplx.space(a + shift), op)]

    # d e5 = e12 + e34, so wedging with e5 is no chain map, and the class
    # map it would induce is ill defined in degrees 0 to 5; the relation
    # path says why
    wedge_e5 = Wedge(e5)
    messages = {0: "is not defined on every class",
                1: "is not defined on every class",
                4: "is not single valued on classes"}
    for a, message in messages.items():
        src, dst = cplx.space(a), cplx.space(a + 1)
        assert not _certified(src, dst, wedge_e5)
        with pytest.raises(InternalConsistencyError,
                           match=f"^\\[e5\\] {message} in the invariant"):
            lef._induced_map(src, dst, wedge_e5, "[e5]")
    # the family takes the relation path once on each degree it cannot
    # certify; each ask for an ill-defined map takes it again, with the
    # caller's label
    assert [a for a, label in relations if label != "[e5]"] == \
        uncertified(wedge_e5, 1)
    assert [a for a, label in relations if label == "[e5]"] == list(messages)

    # scaling by 2^degree has d op = op d / 2, refused wherever d is not
    # zero on slice a-1 or a; it still induces 2^a times the identity,
    # which the relation path returns
    scale = _Scale()
    relations.clear()
    degrees = range(1, model.n_gen)
    for a in degrees:
        src = cplx.space(a)
        assert not _certified(src, src, scale)
        matrix = lef._induced_map(src, src, scale, "[2^deg]")
        assert matrix == [{i: 2 ** a} for i in range(src.dimension)]
    assert set(degrees) <= {a for a, _ in relations}
    assert [a for a, label in relations if label != "[2^deg]"] == \
        uncertified(scale, 0)


def test_an_ill_defined_map_is_not_kept(monkeypatch, h5s1_struct):
    # the error is raised, not stored: asking again runs the relation path
    # again and raises again
    cplx = lef._full(h5s1_struct.model)
    e5 = gen(6, 5)
    runs = []
    relation_map = lef._relation_map

    def counting(src, dst, images, label):
        runs.append(label)
        return relation_map(src, dst, images, label)

    wedge_e5 = Wedge(e5)
    monkeypatch.setattr(lef, "_relation_map", counting)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError,
                           match="not defined on every class"):
            lef._induced_map(cplx.space(1), cplx.space(2), wedge_e5, "[e5]")
    # the first ask also builds the family; the second runs the relation
    # path of degree 1 alone
    assert runs.count("[e5]") == 2 and runs[-2:] == ["[e5]", "[e5]"]
    assert 1 not in h5s1_struct.model._memo["class maps", cplx, cplx,
                                            wedge_e5, 1]


def test_a_family_answers_its_well_defined_degrees(h5s1_struct):
    # wedging with e5 is ill defined in degrees 0 to 5 of h5 x S1: each ask
    # raises with its caller's label, every time, while degree 6 of the
    # same family still gives its map, one row, as e5 ^ H^6 is in degree 7
    cplx = lef._full(h5s1_struct.model)
    wedge_e5 = Wedge(gen(6, 5))
    defined, single = "is not defined on every class", \
        "is not single valued on classes"
    messages = [defined] * 3 + [single] * 3
    for label in ("[e5] first", "[e5] again"):
        for a, message in enumerate(messages):
            with pytest.raises(InternalConsistencyError,
                               match=f"^{re.escape(label)} {message} in the "
                                     f"invariant model$"):
                lef._induced_map(cplx.space(a), cplx.space(a + 1), wedge_e5,
                                 label)
        assert lef._induced_map(cplx.space(6), cplx.space(7), wedge_e5,
                                label) == [{}]


def test_certificate_checks_the_slice_below(h5s1_struct):
    # dropping e34 from 2-forms commutes with d on 2-forms, but sends the
    # exact e12 + e34 = d e5 to the closed, not exact e12: the slice below
    # refuses it, and the relation path finds the map ill defined
    cplx = lef._full(h5s1_struct.model)
    drop_e34 = _Drop(0b1100)
    assert _certificate(cplx, cplx, drop_e34, 2, 2)
    assert not _certificate(cplx, cplx, drop_e34, 1, 1)
    h2 = cplx.space(2)
    assert not _certified(h2, h2, drop_e34)
    with pytest.raises(InternalConsistencyError, match="not single valued"):
        lef._induced_map(h2, h2, drop_e34, "[drop e34]")


def test_certificate_checks_the_target_slice(h5s1_struct):
    # the identity is a chain map of the full complex into itself, not into
    # the Lee-basic complex, whose slices miss e6
    model = h5s1_struct.model
    full = lef._full(model)
    lee_basic = lef._basic(model, (h5s1_struct.U,))
    ident = Inclusion()
    h1, h1_basic = full.space(1), lee_basic.space(1)
    assert _certified(h1, h1, ident)
    assert not _certified(h1, h1_basic, ident)
    with pytest.raises(InternalConsistencyError,
                       match="not defined on every class"):
        lef._induced_map(h1, h1_basic, ident, "[id]")


def test_gysin_h7s1_builds_every_map_from_representatives(monkeypatch):
    from pathlib import Path
    doc = modelfile.load_path(
        Path(__file__).resolve().parent.parent / "models" / "h7s1.model")
    struct = validate_lcs(doc.model, doc.omega, doc.eta)
    relations, slices, families = [], [], []
    calls = {"class_of": 0, "class_of_coords": 0, "d": 0}
    depth = []
    memo = struct.model._memo

    class_maps = lef._class_maps
    chain_slice = lef._chain_slice

    def counting_family(src, dst, op, shift):
        families.append((src, dst, op, shift))
        depth.append(1)
        try:
            return class_maps(src, dst, op, shift)
        finally:
            depth.pop()

    def counting_slice(src, dst, k, j, images, upper):
        slices.append((src, dst, families[-1][2], k, j))
        return chain_slice(src, dst, k, j, images, upper)

    def counting(name, fn):
        def wrapper(*args):
            if depth:
                calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lef, "_class_maps", counting_family)
    monkeypatch.setattr(lef, "_chain_slice", counting_slice)
    imaged = _count_images(monkeypatch)
    monkeypatch.setattr(lef, "_relation_map",
                        lambda *args: relations.append(args))
    for cls, name in ((CohomologySpace, "class_of"),
                      (CohomologySpace, "_class_of_coords"),
                      (StructureModel, "d")):
        monkeypatch.setattr(cls, name, counting(name.lstrip("_"),
                                                getattr(cls, name)))
    assert lef.gysin_sequence_check(struct).ok
    assert relations == []
    # three operators per row, each map of a family from representatives
    assert len(families) == 6
    maps = [memo[("class maps",) + family] for family in families]
    assert all(list(m) == list(range(-2, struct.model.n_gen + 3))
               for m in maps)
    # one class solve per representative, on the coordinates of its image
    # that the certificates read; no form is reduced again and no d of a
    # form is taken while a map is built
    assert calls == {"class_of": 0, "d": 0, "class_of_coords": sum(
        len(matrix) for m in maps for matrix in m.values())}
    # each slice is certified once, and each nonempty slice imaged once per
    # family, though two consecutive maps of a family read it
    assert slices and len(slices) == len(set(slices))
    assert imaged and len(imaged) == len(set(imaged))
    # the memo keeps the families, and no image or certificate of a slice
    assert {key[0] for key in memo} == {"complex", "powers", "class maps"}


def _count_images(monkeypatch) -> list:
    """Patch lefschetz._images to record (source complex, target complex,
    operator, degree) of each image it computes on a nonempty slice."""
    imaged = []
    images = lef._images

    def counting(src, dst, op, k, j):
        if src.dim(k):
            imaged.append((src, dst, op, k))
        return images(src, dst, op, k, j)

    monkeypatch.setattr(lef, "_images", counting)
    return imaged


def test_gysin_relation_path_images_each_slice_once(monkeypatch):
    # on su(2) x S1 some flow maps fail a certificate and are read off
    # their relations, from the images their family holds
    from pathlib import Path
    doc = modelfile.load_path(
        Path(__file__).resolve().parent.parent / "models" / "su2s1.model")
    struct = validate_lcs(doc.model, doc.omega, doc.eta)
    relations = []
    relation_map = lef._relation_map

    def counting(*args):
        relations.append(args)
        return relation_map(*args)

    monkeypatch.setattr(lef, "_relation_map", counting)
    imaged = _count_images(monkeypatch)
    lef.gysin_sequence_check(struct)
    assert relations
    assert imaged and len(imaged) == len(set(imaged))


@pytest.mark.parametrize("target, fail_at", [("_squares_commute", 1),
                                             ("_chain_slice", 10)])
def test_gysin_error_keeps_no_partial_family(h5s1_struct, monkeypatch,
                                             target, fail_at):
    # _squares_commute raises after both chains; the tenth certificate in
    # the middle of the first family of the top chain
    calls, built = [], []
    original, class_maps = getattr(lef, target), lef._class_maps

    def broken(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise TypeError(f"bug in {target}")
        return original(*args)

    def building(*args):
        maps = class_maps(*args)
        built.append(args)
        return maps

    memo = h5s1_struct.model._memo
    monkeypatch.setattr(lef, target, broken)
    monkeypatch.setattr(lef, "_class_maps", building)
    with pytest.raises(TypeError, match=f"bug in {target}"):
        lef.gysin_sequence_check(h5s1_struct)
    assert len(built) == (6 if target == "_squares_commute" else 0)
    # the memo keeps each family that was built, and none that raised
    assert [key[1:] for key in memo if key[0] == "class maps"] == built
    monkeypatch.undo()
    assert lef.gysin_sequence_check(h5s1_struct).ok


def test_run_entry_propagates_programming_errors(monkeypatch):
    from hardlef.catalog import builtin_entries, run_entry
    entry = next(e for e in builtin_entries() if "t_inverse_ok" in e.expected)

    def broken(struct, k):
        raise TypeError("bug in t_map")

    monkeypatch.setattr(lef, "t_map", broken)
    with pytest.raises(TypeError, match="bug in t_map"):
        run_entry(entry)


@pytest.mark.parametrize("error, name", [
    (errors.NotClosedError("x"), "NotClosed"),
    (errors.RankDefectError(2, 4), "RankDefect"),
    (errors.NotVolumeError("x"), "NotVolume"),
    (errors.NonUniqueLeeFieldError("x"), "NonUniqueLeeField"),
    (errors.NonUniqueReebError("x"), "NonUniqueReeb"),
    (errors.NotProjectableError("x"), "NotProjectable"),
    (errors.ValidationError("x"), "Validation")])
def test_run_entry_names_a_validation_error(monkeypatch, error, name):
    from hardlef import catalog
    entry = next(e for e in catalog.builtin_entries() if e.kind == "lcs")

    def refusing(*args):
        raise error

    monkeypatch.setattr(catalog, "validate_lcs", refusing)
    assert catalog.run_entry(entry) == {"validates": name}


def test_lefschetz_all_computes_each_verdict_once(monkeypatch, capsys):
    from pathlib import Path

    from hardlef import cli
    asked, computed = [], []
    is_graph, verdict = lef.is_graph_of_isomorphism, lef.LefschetzVerdict

    def asking(relation):
        asked.append(id(relation))
        return is_graph(relation)

    def computing(*args):
        computed.append(args)
        return verdict(*args)

    monkeypatch.setattr(lef, "is_graph_of_isomorphism", asking)
    monkeypatch.setattr(lef, "LefschetzVerdict", computing)
    model = Path(__file__).resolve().parent.parent / "models" / "h7s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()
    # the command, the equivalence report and T_k ask again for a verdict
    assert len(asked) > len(set(asked))
    assert len(computed) == len(set(asked))


def test_lefschetz_all_never_hashes_a_relation(monkeypatch, capsys):
    from pathlib import Path

    from hardlef import cli

    def unhashable(relation):
        raise TypeError("a relation was hashed")

    monkeypatch.setattr(lef.CohomologyRelation, "__hash__", unhashable)
    model = Path(__file__).resolve().parent.parent / "models" / "h7s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()


def test_a_dropped_structure_frees_its_models():
    import gc

    def live():
        gc.collect()
        return sorted(m.name for m in gc.get_objects()
                      if isinstance(m, StructureModel)
                      and m.name.startswith("dropped"))

    # built here, since pytest holds a fixture's value until the test ends
    struct = validate_lcs(StructureModel.from_salamon(
        "(0,0,0,0,12+34,0)", name="dropped"), gen(6, 6), gen(6, 5))
    lef.lefschetz_equivalence_report(struct)
    lef.betti_parity_check(struct)
    assert lef.gysin_sequence_check(struct).ok
    assert live() == ["dropped", "dropped_Lee"]
    del struct
    # no cache outside the model keeps it, or its Lee quotient, alive
    assert live() == []


def _hand_built_relations(struct, count):
    """count relations H^1_B(U) -> H^4_B(U) built from class pairs, each
    new: the graph of a diagonal map scaled by i + 1 on the first class."""
    u_cplx = lef._basic(struct.model, (struct.U,))
    src, dst = u_cplx.space(1), u_cplx.space(4)
    assert src.dimension == dst.dimension == 4
    for i in range(count):
        yield lef.CohomologyRelation.from_pairs(src, dst, [
            ({j: Fraction(1)}, {j: Fraction(i + 1 if j == 0 else 1)})
            for j in range(4)])


def test_judging_relations_leaves_the_model_memo_unchanged(h5s1_struct):
    relations = list(_hand_built_relations(h5s1_struct, 1000))
    memo = h5s1_struct.model._memo
    size = len(memo)
    for rel in relations:
        assert lef.is_graph_of_isomorphism(rel).is_graph_of_isomorphism
    assert len(memo) == size


def test_a_dropped_relation_can_be_collected(h5s1_struct):
    import gc
    import weakref

    rel = next(_hand_built_relations(h5s1_struct, 1))
    verdict = lef.is_graph_of_isomorphism(rel)
    assert verdict.is_graph_of_isomorphism
    assert lef.is_graph_of_isomorphism(rel) is verdict
    ref = weakref.ref(rel)
    del rel
    gc.collect()
    assert ref() is None


def test_only_the_exterior_tables_are_module_caches():
    """The memo of a model lives on the model; a module may cache only
    pure functions of (n, k)."""
    import importlib
    import inspect
    import pkgutil

    import hardlef
    caches = set()
    for info in pkgutil.iter_modules(hardlef.__path__):
        mod = importlib.import_module(f"hardlef.{info.name}")
        values = list(vars(mod).values())
        values += [v for cls in values if inspect.isclass(cls)
                   for v in vars(cls).values()]
        caches |= {(v.__module__, v.__qualname__) for v in values
                   if hasattr(v, "cache_info")}
    assert caches == {("hardlef.exterior", "degree_masks"),
                      ("hardlef.exterior", "_column_index")}


def _scaled(matrix, c, rows=None):
    """Sparse matrix with the listed rows (all by default) times c."""
    out = list(matrix)
    for i in range(len(out)) if rows is None else rows:
        out[i] = {j: c * x for j, x in out[i].items()}
    return out


def _gysin_parts(struct):
    model = struct.model
    ops = (Wedge(model.d(struct.eta)), Inclusion(), Contraction(struct.V))
    return (ops, lef._basic(model, (struct.V,)),
            lef._full(model), lef._basic(model, (struct.U, struct.V)),
            lef._basic(model, (struct.U,)))


def _altering(monkeypatch, alter):
    """Patch _induced_map so that each map it answers passes through
    alter(matrix, src, label) first."""
    induced_map = lef._induced_map

    def altered(src, dst, op, label):
        return alter(induced_map(src, dst, op, label), src, label)

    monkeypatch.setattr(lef, "_induced_map", altered)


def test_flow_chain_reports_a_perturbed_map(monkeypatch, h5s1_struct):
    # scaling a whole map keeps every kernel and image, so one row of the
    # inclusion H_B(V)^2 -> H^2 is doubled: eps then [id] stops vanishing
    ops, v_cplx, full_c, _, _ = _gysin_parts(h5s1_struct)
    chain = (v_cplx, full_c, "H_B(V)", "H")
    report = lef._flow_chain("anti-Lee", *chain, ops)
    assert report.compositions_vanish and report.exact
    _altering(monkeypatch, lambda matrix, src, label: (
        _scaled(matrix, 2, [0]) if label == "[id] H_B(V)(2)->H(2)"
        else matrix))
    report = lef._flow_chain("anti-Lee", *chain, ops)
    assert report.well_defined
    assert not report.compositions_vanish and not report.exact
    assert "composition through H_B(V)(2) does not vanish" in report.failures


def test_squares_commute_detects_a_negated_map(monkeypatch, h5s1_struct):
    ops, v_cplx, full_c, uv, u_cplx = _gysin_parts(h5s1_struct)
    model, omega = h5s1_struct.model, h5s1_struct.omega
    splittings = (lef.splitting_check(model, omega, v_cplx, uv),
                  lef.splitting_check(model, omega, full_c, u_cplx))
    args = (ops, v_cplx, full_c, uv, u_cplx) + splittings
    assert lef._squares_commute(*args)
    # the [i_V] map of the top row, H^k -> H_B(V)^(k-1)
    _altering(monkeypatch, lambda matrix, src, label: (
        _scaled(matrix, -1) if label == "[i_V]" and src.complex is full_c
        else matrix))
    assert not lef._squares_commute(*args)


def test_t_map_refuses_a_wrong_basic_map(monkeypatch, kt4_struct):
    verdict = lef.is_graph_of_isomorphism

    def doubled(relation):
        v = verdict(relation)
        m = v.map
        return lef.LefschetzVerdict(
            v.degree, v.is_total, v.is_functional, lef.CohomologyMap(
                m.degree, tuple(_scaled(m.rows, 2)), m.target_dim))

    monkeypatch.setattr(lef, "is_graph_of_isomorphism", doubled)
    with pytest.raises(InternalConsistencyError,
                       match="T_1 is not inverse to the basic Lefschetz"):
        lef.t_map(kt4_struct, 1)


def test_gysin_ranks_each_flow_chain_map_once(monkeypatch):
    from pathlib import Path
    doc = modelfile.load_path(
        Path(__file__).resolve().parent.parent / "models" / "h7s1.model")
    struct = validate_lcs(doc.model, doc.omega, doc.eta)
    calls = []
    rank = linalg.rank

    def counting(mat):
        calls.append(len(mat))
        return rank(mat)

    monkeypatch.setattr(linalg, "rank", counting)
    report = lef.gysin_sequence_check(struct)
    assert report.ok
    chain_maps = len(report.top.dims) - 1 + len(report.bottom.dims) - 1
    assert chain_maps == 66
    # one rank per chain map, plus one per degree of each splitting check
    splitting = len(report.splitting_v.maps) + \
        len(report.splitting_full.maps)
    assert len(calls) == chain_maps + splitting == 84


def test_pairing_psi_equals_the_wedge_formula(lcs_struct):
    from hardlef.exterior import top_coefficient

    model, n = lcs_struct.model, lcs_struct.n
    u_cplx = lef._basic(model, (lcs_struct.U,))
    for k in range(1, n + 1):
        try:
            lef_rows = lef.lefschetz_map_basic(lcs_struct, k)
        except NotLefschetzError:
            continue
        dst = u_cplx.space(2 * n + 1 - k)
        reps = u_cplx.space(k).representatives
        gram = [[top_coefficient(lcs_struct.omega.wedge(
                    combine(dst.representatives, linalg.sparse(row),
                             model.n_gen, 2 * n + 1 - k)).wedge(rep))
                 for rep in reps] for row in lef_rows]
        assert [list(r) for r in lef.pairing_psi(lcs_struct, k).matrix] == \
            gram


def test_pairing_psi_renders_from_its_sparse_rows(lcs_struct):
    """The report matrix is the dense one as strings, its zeros one shared
    string: to_dict writes only the nonzeros of the rows."""
    for k in range(1, lcs_struct.n + 1):
        try:
            res = lef.pairing_psi(lcs_struct, k)
        except NotLefschetzError:
            continue
        matrix = res.to_dict()["matrix"]
        assert matrix == [[str(x) for x in row] for row in res.matrix]
        nonzeros = sum(map(len, res.rows))
        assert len({id(x) for row in matrix for x in row}) <= nonzeros + 1


def test_transversal_and_splitting_maps_equal_the_form_formula(lcs_struct):
    """The maps read in slice coordinates against the classes, through the
    public class_of, of the representative forms wedged as Forms: the
    transversal map is [rep] -> [(d eta)^(n-k) ^ rep], a splitting map
    ([b], [b']) -> [b + omega ^ b']."""
    model, n, omega = lcs_struct.model, lcs_struct.n, lcs_struct.omega
    U, V = lcs_struct.U, lcs_struct.V
    uv = lef._basic(model, (U, V))
    for k in range(n + 1):
        power = wedge_power(model.d(lcs_struct.eta), n - k)
        dst = uv.space(2 * n - k)
        assert list(lef.uv_basic_lefschetz(lcs_struct, k).rows) == [
            linalg.sparse(dst.class_of(power.wedge(rep)))
            for rep in uv.space(k).representatives]
    report = lef.gysin_sequence_check(lcs_struct)
    for splitting, inner, outer in (
            (report.splitting_v, lef._basic(model, (V,)), uv),
            (report.splitting_full, lef._full(model),
             lef._basic(model, (U,)))):
        assert len(splitting.maps) == model.n_gen + 1
        for m in splitting.maps:
            dst = inner.space(m.degree)
            assert list(m.rows) == [
                linalg.sparse(dst.class_of(rep))
                for rep in outer.space(m.degree).representatives] + [
                linalg.sparse(dst.class_of(omega.wedge(rep)))
                for rep in outer.space(m.degree - 1).representatives]


@pytest.mark.parametrize("bump", [None, 0, 1],
                         ids=["psi", "bump-diagonal", "bump-off-diagonal"])
def test_pairing_psi_flags_match_brute_force_scans(lcs_struct, monkeypatch,
                                                   bump):
    # adding 1 to psi[0][0] makes a skew matrix fail only on its diagonal;
    # adding 1 to psi[0][1] makes a symmetric or skew one neither.  The
    # bump is made in the Gram product, before any flag is read: once the
    # memo holds the relations and spaces psi reads, it is the one matmul
    # whose right factor is a mapping, the mask index
    for k in range(1, lcs_struct.n + 1):
        try:
            lef.pairing_psi(lcs_struct, k)
        except NotLefschetzError:
            pass
    matmul = linalg.matmul
    grams = []

    def gram(a, b):
        out = matmul(a, b)
        if isinstance(b, dict):
            grams.append(len(out))
            if bump is not None and bump < len(out):
                value = out[0].pop(bump, 0) + 1
                if value:
                    out[0][bump] = value
        return out

    monkeypatch.setattr(linalg, "matmul", gram)
    for k in range(1, lcs_struct.n + 1):
        grams.clear()
        try:
            res = lef.pairing_psi(lcs_struct, k)
        except NotLefschetzError:
            continue
        m, d = res.matrix, len(res.matrix)
        assert grams == [d]
        pairs = [(m[i][j], m[j][i]) for i in range(d) for j in range(d)]
        assert res.symmetric == all(a == b for a, b in pairs)
        assert res.skew == all(a == -b for a, b in pairs)
        assert res.parity_ok == all(b == (-1) ** k * a for a, b in pairs)
        assert res.nondegenerate == (linalg.rank(
            [linalg.sparse(row) for row in m]) == d)


def _counting_ranks(monkeypatch) -> list:
    """The row counts of every linalg.rank call from now on."""
    ranks, rank = [], linalg.rank

    def counting(mat):
        ranks.append(len(mat))
        return rank(mat)

    monkeypatch.setattr(linalg, "rank", counting)
    return ranks


@pytest.mark.parametrize("first", ["is_injective", "is_surjective",
                                   "is_graph_of_isomorphism"])
def test_a_verdict_ranks_its_graph_once_on_first_read(lcs_struct,
                                                       monkeypatch, first):
    """A verdict holds the map of its relation's graph and takes no rank
    when it is built; the first read of injectivity, surjectivity or
    invertibility takes that map's one rank, and no later read another."""
    relations = [build(lcs_struct, k) for build in (
        lef.de_rham_lefschetz_relation, lef.basic_lefschetz_relation)
        for k in range(lcs_struct.n + 1)]
    ranks = _counting_ranks(monkeypatch)
    for rel in relations:
        verdict = rel.verdict
        assert ranks == []
        assert verdict.map is rel.graph[2]
        getattr(verdict, first)
        assert len(ranks) == (verdict.map is not None)
        ranks.clear()
        verdict.to_dict()
        assert ranks == []


def test_pairing_psi_is_a_map_ranked_once(monkeypatch):
    """psi takes no rank when it is built; nondegenerate and the report
    read its one rank as a CohomologyMap.  Every structure of the corpus
    is read, on a fresh model; some have no psi at all."""
    structs = [validate_lcs(StructureModel(model.d1, model.name), omega, eta)
               for model, omega, eta in LCS_CORPUS.values()]
    for struct in structs:
        for k in range(1, struct.n + 1):
            lef.basic_lefschetz_relation(struct, k).verdict.to_dict()
    ranks = _counting_ranks(monkeypatch)
    read = 0
    for struct in structs:
        for k in range(1, struct.n + 1):
            try:
                res = lef.pairing_psi(struct, k)
            except NotLefschetzError:
                continue
            assert isinstance(res, CohomologyMap)
            assert ranks == []
            assert res.nondegenerate == res.to_dict()["nondegenerate"]
            assert ranks == [len(res.rows)]
            ranks.clear()
            read += 1
    assert read


def test_exact_chains_are_well_defined_with_vanishing_compositions(
        lcs_struct):
    """GysinReport.ok reads exactness alone: a chain is exact only when it
    is well defined and its compositions vanish."""
    report = lef.gysin_sequence_check(lcs_struct)
    for chain in (report.top, report.bottom):
        if chain.exact:
            assert chain.well_defined and chain.compositions_vanish
    assert report.ok == all(
        (chain.well_defined, chain.compositions_vanish, chain.exact,
         report.splitting_v.ok, report.splitting_full.ok,
         bool(report.squares_commute))
        for chain in (report.top, report.bottom))


def _contact_variants():
    """The contact structure of each contact catalog base and of two
    seeded rebasings f = P e, P rational unipotent: lower triangular, so
    that eta = e_n = sum_k P^-1[n][k] f_k is no longer a generator, and
    upper triangular, so that every d(f_i) is dense.  eta is the same
    1-form written in the new coframe."""
    from hardlef.catalog import builtin_entries
    out = []
    for entry in builtin_entries():
        if entry.name not in ("h3", "h5", "nil5a", "nil5b"):
            continue
        out.append(pytest.param(validate_contact(entry.model, entry.eta),
                                id=entry.name))
        n = entry.model.n_gen
        for seed in (1, 2):
            rng = random.Random(seed)
            p = [[1 if i == j else random_fraction(rng, 3)
                  if (j < i if seed == 1 else j > i) else 0
                  for j in range(n)] for i in range(n)]
            q = linalg.inverse(p)
            eta = Form(n, 1, {})
            for mask, c in entry.eta.terms.items():
                j = mask.bit_length() - 1
                eta = eta + c * Form(n, 1, {1 << k: q[j][k]
                                            for k in range(n)})
            model = rebase(entry.model, p, f"{entry.name}_rebased{seed}")
            out.append(pytest.param(validate_contact(model, eta),
                                    id=model.name))
    return out


@pytest.mark.parametrize("contact", _contact_variants())
def test_contact_verdicts_match_the_product_with_a_circle(contact):
    """The contact verdicts of N equal the de Rham, Lee-basic and quotient
    contact verdicts of N x S1 in every degree, in each coframe."""
    from hardlef.structures import product_with_circle
    verdicts = [lef.is_graph_of_isomorphism(
        lef.contact_lefschetz_relation(contact, k)).is_graph_of_isomorphism
        for k in range(contact.n + 1)]
    report = lef.lefschetz_equivalence_report(product_with_circle(contact))
    assert report.contact_available and report.agree
    assert [(v.degree, v.de_rham, v.basic, v.contact)
            for v in report.per_degree] == [
        (k, x, x, x) for k, x in enumerate(verdicts)]


def _kept_scalars(model):
    """Every scalar the memo of a model keeps in a slice differential, a
    cycle basis, a class table, a representative or an induced class
    map."""
    from hardlef.cohomology import Subcomplex
    for key, val in model._memo.items():
        if isinstance(val, Subcomplex):
            rows = [row for mat in val._diff for row in mat]
            rows += [row for mat in val._cycle_bases.values() for row in mat]
            for sp in val._spaces.values():
                rows += sp._classes + sp._rep_coords
                rows += [f.terms for f in sp.representatives]
        elif key[0] == "class maps":
            rows = [row for matrix in val.values() for row in matrix]
        else:
            continue
        for row in rows:
            yield from row.values()


def _lefschetz_all_scalars(monkeypatch, capsys, name):
    """The kept scalars of the model of models/NAME and of its Lee quotient
    after `lefschetz --mode all` on it."""
    from pathlib import Path

    from hardlef import cli
    seen = []
    validate = cli.validate_lcs
    monkeypatch.setattr(cli, "validate_lcs",
                        lambda *args: seen.append(validate(*args)) or seen[0])
    model = Path(__file__).resolve().parent.parent / "models" / name
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()
    struct, = seen
    models = [struct.model]
    quotient = struct.model._memo.get(("quotient", struct))
    if quotient is not None:
        models.append(quotient.model)
    return [x for m in models for x in _kept_scalars(m)]


def test_an_integral_model_keeps_only_ints(monkeypatch, capsys):
    scalars = _lefschetz_all_scalars(monkeypatch, capsys, "h7s1.model")
    assert scalars and all(type(x) is int for x in scalars)


def test_a_rebased_model_keeps_no_integral_fraction(monkeypatch, capsys):
    scalars = _lefschetz_all_scalars(monkeypatch, capsys,
                                     "nil5a_rebased0_s1.model")
    assert any(type(x) is Fraction for x in scalars)
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for x in scalars)
