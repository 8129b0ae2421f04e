import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hardlef import (Form, StructureModel, modelfile, validate_contact,
                     validate_lcs)
from hardlef import errors
from hardlef import lefschetz as lef
from hardlef import linalg
from hardlef.cohomology import CohomologySpace
from hardlef.errors import (DegreeError, InternalConsistencyError,
                            NotLefschetzError, PreconditionError)
from hardlef.exterior import top_pairing

import oracle
from conftest import COEFFS, random_fraction, rebase


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
    assert verdict.matrix == (
        (0, -1, 0),
        (0, 0, -1),
        (1, 0, 0))


def test_de_rham_relation_kt4_degree_zero(kt4_struct):
    verdict = lef.is_graph_of_isomorphism(
        lef.de_rham_lefschetz_relation(kt4_struct, 0))
    assert verdict.matrix == ((-1,),)


def test_basic_relation_kt4(kt4_struct):
    verdict = lef.is_graph_of_isomorphism(
        lef.basic_lefschetz_relation(kt4_struct, 1))
    assert verdict.matrix == ((-1, 0), (0, -1))
    verdict0 = lef.is_graph_of_isomorphism(
        lef.basic_lefschetz_relation(kt4_struct, 0))
    assert verdict0.matrix == ((1,),)


def test_contact_relation_h3():
    m = StructureModel.from_salamon("(0,0,12)")
    c = validate_contact(m, gen(3, 3))
    v0 = lef.is_graph_of_isomorphism(lef.contact_lefschetz_relation(c, 0))
    v1 = lef.is_graph_of_isomorphism(lef.contact_lefschetz_relation(c, 1))
    assert v0.is_graph_of_isomorphism and v1.is_graph_of_isomorphism
    assert v1.matrix == ((-1, 0), (0, -1))


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
    assert v.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

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
        SimpleNamespace(dimension=da), SimpleNamespace(dimension=db),
        [(linalg.sparse(x), linalg.sparse(y)) for x, y in pairs])
    stacked = [x + y for x, y in pairs]
    assert [list(r) for r in rel.span] == oracle.rref(stacked, da + db)[0]
    total, functional, matrix = rel.graph
    x_rank = oracle.rank([x for x, _ in pairs])
    assert total == (x_rank == da)
    assert functional == (oracle.rank(stacked) == x_rank)
    assert (matrix is not None) == (total and functional)
    if matrix is not None:
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
    ops = (model.d,
           lambda f: model.lie_derivative(kt4_struct.U, f),
           lambda f: lef.contract(kt4_struct.V, f),
           lambda f: lef.wedge_power(deta, 2).wedge(f),
           lambda f: lef.wedge_power(deta, 1).wedge(kt4_struct.omega.wedge(f)))
    basis = lef._joint_kernel(cplx.basis(1), ops, model.n_gen, 1)
    # a different (still admissible) spanning set of the same subspace
    shuffled = [basis[0] + basis[1], basis[1], basis[2] + 2 * basis[0]]
    pairs = []
    for gamma in shuffled:
        liu = deta.wedge(lef.contract(kt4_struct.U, gamma))
        target = kt4_struct.eta.wedge(
            lef.wedge_power(deta, 0).wedge(liu - kt4_struct.omega.wedge(gamma)))
        pairs.append((src._class_of(gamma), dst._class_of(target)))
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

    def counting(rows, ncols):
        calls.append(ncols)
        return rank(rows, ncols)

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


def test_lefschetz_all_builds_each_relation_once(monkeypatch, capsys):
    from pathlib import Path

    from hardlef import cli
    builds, verdicts = [], []
    relation, verdict = lef._relation, lef._verdict

    def building(src, dst, conditions, op, label):
        builds.append((src, dst))
        return relation(src, dst, conditions, op, label)

    def deciding(rel):
        verdicts.append(id(rel))
        return verdict(rel)

    monkeypatch.setattr(lef, "_relation", building)
    monkeypatch.setattr(lef, "_verdict", deciding)
    model = Path(__file__).resolve().parent.parent / "models" / "h5s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()
    # de Rham, Lee-basic and contact pictures in degrees 0, 1 and 2
    assert len(builds) == 9
    assert len(set(builds)) == 9
    assert len(verdicts) == len(set(verdicts)) == 9


def test_a_second_call_to_a_relation_builder_computes_no_power(
        monkeypatch, h5s1_struct):
    contact = lef.quotient_contact(h5s1_struct)
    calls = [(lef.de_rham_lefschetz_relation, h5s1_struct),
             (lef.basic_lefschetz_relation, h5s1_struct),
             (lef.contact_lefschetz_relation, contact)]
    first = [builder(struct, 1) for builder, struct in calls]
    powers = []
    wedge_power = lef.wedge_power

    def counting(a, m):
        powers.append(m)
        return wedge_power(a, m)

    monkeypatch.setattr(lef, "wedge_power", counting)
    for (builder, struct), relation in zip(calls, first):
        assert builder(struct, 1) is relation
    assert powers == []


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
    induced_map, class_map = lef._induced_map, lef._class_map

    def asking(src, dst, op, label):
        asked.append((src, dst, op))
        return induced_map(src, dst, op, label)

    def building(src, dst, op, label):
        built.append((src, dst, op))
        return class_map(src, dst, op, label)

    monkeypatch.setattr(lef, "_induced_map", asking)
    monkeypatch.setattr(lef, "_class_map", building)
    assert lef.gysin_sequence_check(h5s1_struct).ok
    # the squares ask again for maps of the two rows
    assert len(asked) > len(set(asked)) == 56
    assert len(built) == len(set(built)) == 56


def test_t_map_reuses_the_gysin_maps(monkeypatch, h5s1_struct):
    built = []
    class_map = lef._class_map

    def building(src, dst, op, label):
        built.append(label)
        return class_map(src, dst, op, label)

    lef.gysin_sequence_check(h5s1_struct)
    monkeypatch.setattr(lef, "_class_map", building)
    for k in range(h5s1_struct.n + 1):
        lef.t_map(h5s1_struct, k)
    assert built == []


def test_suite_builds_each_transversal_map_once(monkeypatch):
    from hardlef.catalog import run_suite
    built = []
    transversal = lef.CohomologyMap

    def counting(*args):
        built.append(args[0])
        return transversal(*args)

    monkeypatch.setattr(lef, "CohomologyMap", counting)
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


def test_induced_maps_agree_with_relation_path(monkeypatch, lcs_struct):
    """Every map of the Gysin check and of T_k, certified or not, equals the
    map read off its relation of class pairs."""
    certified = []
    induced_map = lef._induced_map

    def both(src, dst, op, label):
        chain = lef._is_chain_map(src, dst, op)
        try:
            by_relation = lef._relation_map(src, dst, op, label)
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


def test_non_chain_operator_takes_the_relation_path(monkeypatch,
                                                    h5s1_struct):
    model = h5s1_struct.model
    cplx = lef._full(model)
    e5 = gen(6, 5)
    relations = []
    relation_map = lef._relation_map

    def counting(src, dst, op, label):
        relations.append(src.degree)
        return relation_map(src, dst, op, label)

    monkeypatch.setattr(lef, "_relation_map", counting)

    # d e5 = e12 + e34, so wedging with e5 is no chain map, and the class
    # map it would induce is ill defined in degrees 0 to 5; the relation
    # path says why
    def wedge_e5(f):
        return e5.wedge(f)

    messages = {0: "is not defined on every class",
                1: "is not defined on every class",
                4: "is not single valued on classes"}
    for a, message in messages.items():
        src, dst = cplx.space(a), cplx.space(a + 1)
        assert not lef._is_chain_map(src, dst, wedge_e5)
        with pytest.raises(InternalConsistencyError,
                           match=f"^\\[e5\\] {message} in the invariant"):
            lef._induced_map(src, dst, wedge_e5, "[e5]")
    assert relations == list(messages)

    # scaling by 2^degree has d op = op d / 2, refused wherever d is not
    # zero on slice a-1 or a; it still induces 2^a times the identity,
    # which the relation path returns
    def scale(f):
        return f * 2 ** f.degree

    degrees = range(1, model.n_gen)
    for a in degrees:
        src = cplx.space(a)
        assert not lef._is_chain_map(src, src, scale)
        matrix = lef._induced_map(src, src, scale, "[2^deg]")
        assert matrix == [{i: 2 ** a} for i in range(src.dimension)]
    assert relations == list(messages) + list(degrees)


def test_an_ill_defined_map_is_not_kept(monkeypatch, h5s1_struct):
    # the error is raised, not stored: asking again runs the relation path
    # again and raises again
    cplx = lef._full(h5s1_struct.model)
    e5 = gen(6, 5)
    runs = []
    relation_map = lef._relation_map

    def counting(src, dst, op, label):
        runs.append(label)
        return relation_map(src, dst, op, label)

    def wedge_e5(f):
        return e5.wedge(f)

    monkeypatch.setattr(lef, "_relation_map", counting)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError,
                           match="not defined on every class"):
            lef._induced_map(cplx.space(1), cplx.space(2), wedge_e5, "[e5]")
    assert runs == ["[e5]", "[e5]"]


def test_certificate_checks_the_slice_below(h5s1_struct):
    # dropping e34 from 2-forms commutes with d on 2-forms, but sends the
    # exact e12 + e34 = d e5 to the closed, not exact e12: the slice below
    # refuses it, and the relation path finds the map ill defined
    cplx = lef._full(h5s1_struct.model)
    e34 = 0b1100

    def drop_e34(f):
        if f.degree != 2:
            return f
        return Form(f.n_gen, 2, {m: c for m, c in f.terms.items()
                                 if m != e34})

    assert lef._chain_slice(cplx, cplx, drop_e34, 2, 2)
    assert not lef._chain_slice(cplx, cplx, drop_e34, 1, 1)
    h2 = cplx.space(2)
    assert not lef._is_chain_map(h2, h2, drop_e34)
    with pytest.raises(InternalConsistencyError, match="not single valued"):
        lef._induced_map(h2, h2, drop_e34, "[drop e34]")


def test_certificate_checks_the_target_slice(h5s1_struct):
    # the identity is a chain map of the full complex into itself, not into
    # the Lee-basic complex, whose slices miss e6
    model = h5s1_struct.model
    full = lef._full(model)
    lee_basic = lef._basic(model, (h5s1_struct.U,))

    def ident(f):
        return f

    h1, h1_basic = full.space(1), lee_basic.space(1)
    assert lef._is_chain_map(h1, h1, ident)
    assert not lef._is_chain_map(h1, h1_basic, ident)
    with pytest.raises(InternalConsistencyError,
                       match="not defined on every class"):
        lef._induced_map(h1, h1_basic, ident, "[id]")


def test_gysin_h7s1_builds_every_map_from_representatives(monkeypatch):
    from pathlib import Path
    doc = modelfile.load_path(
        Path(__file__).resolve().parent.parent / "models" / "h7s1.model")
    struct = validate_lcs(doc.model, doc.omega, doc.eta)
    relations, slices, source_dims = [], [], []
    class_calls = {"in_map": 0}
    depth = []

    class_map = lef._class_map
    chain_slice = lef._chain_slice
    class_of = CohomologySpace._class_of

    def counting_map(src, dst, op, label):
        source_dims.append(src.dimension)
        depth.append(1)
        try:
            return class_map(src, dst, op, label)
        finally:
            depth.pop()

    def counting_slice(src, dst, op, k, j):
        slices.append((src, dst, op, k, j))
        return chain_slice(src, dst, op, k, j)

    def counting_class_of(space, form):
        if depth:
            class_calls["in_map"] += 1
        return class_of(space, form)

    monkeypatch.setattr(lef, "_class_map", counting_map)
    monkeypatch.setattr(lef, "_chain_slice", counting_slice)
    monkeypatch.setattr(lef, "_relation_map",
                        lambda *args: relations.append(args))
    monkeypatch.setattr(CohomologySpace, "_class_of", counting_class_of)
    assert lef.gysin_sequence_check(struct).ok
    assert relations == []
    assert len(source_dims) == 68
    assert class_calls["in_map"] == sum(source_dims)
    assert slices and len(slices) == len(set(slices))
    # the model's memo keeps every slice verdict
    assert sum(key[0] == "chain slice"
               for key in struct.model._memo) == len(slices)


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
    is_graph, verdict = lef.is_graph_of_isomorphism, lef._verdict

    def asking(relation):
        asked.append(id(relation))
        return is_graph(relation)

    def computing(relation):
        computed.append(id(relation))
        return verdict(relation)

    monkeypatch.setattr(lef, "is_graph_of_isomorphism", asking)
    monkeypatch.setattr(lef, "_verdict", computing)
    model = Path(__file__).resolve().parent.parent / "models" / "h7s1.model"
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    capsys.readouterr()
    # the command, the equivalence report and T_k ask again for a verdict
    assert len(asked) > len(set(asked))
    assert len(computed) == len(set(computed)) == len(set(asked))


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
    assert live() == ["dropped", "dropped / Lee"]
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
    return (lef._flow_ops(struct), lef._basic(model, (struct.V,)),
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
    n = h5s1_struct.model.n_gen
    chain = (v_cplx, full_c, "H_B(V)", "H")
    report = lef._flow_chain("anti-Lee", *chain, ops, n)
    assert report.compositions_vanish and report.exact
    _altering(monkeypatch, lambda matrix, src, label: (
        _scaled(matrix, 2, [0]) if label == "[id] H_B(V)(2)->H(2)"
        else matrix))
    report = lef._flow_chain("anti-Lee", *chain, ops, n)
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
        return lef.LefschetzVerdict(
            v.degree, v.is_total, v.is_functional, v.is_injective,
            v.is_surjective, tuple(_scaled(v.rows, 2)), v.target_dim)

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

    def counting(mat, ncols):
        calls.append(ncols)
        return rank(mat, ncols)

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
    from hardlef.cohomology import _combine
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
                    _combine(dst.representatives, linalg.sparse(row),
                             model.n_gen, 2 * n + 1 - k)).wedge(rep))
                 for rep in reps] for row in lef_rows]
        assert [list(r) for r in lef.pairing_psi(lcs_struct, k).matrix] == \
            gram


@pytest.mark.parametrize("bump", [None, 0, 1],
                         ids=["psi", "bump-diagonal", "bump-off-diagonal"])
def test_pairing_psi_flags_match_brute_force_scans(lcs_struct, monkeypatch,
                                                   bump):
    # adding 1 to psi[0][0] makes a skew matrix fail only on its diagonal;
    # adding 1 to psi[0][1] makes a symmetric or skew one neither
    calls = []

    def pairing(a, b):
        calls.append(None)
        value = top_pairing(a, b)
        return value + 1 if len(calls) - 1 == bump else value

    monkeypatch.setattr(lef, "top_pairing", pairing)
    for k in range(1, lcs_struct.n + 1):
        calls.clear()
        try:
            res = lef.pairing_psi(lcs_struct, k)
        except NotLefschetzError:
            continue
        m, d = res.matrix, len(res.matrix)
        pairs = [(m[i][j], m[j][i]) for i in range(d) for j in range(d)]
        assert res.symmetric == all(a == b for a, b in pairs)
        assert res.skew == all(a == -b for a, b in pairs)
        assert res.parity_ok == all(b == (-1) ** k * a for a, b in pairs)


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
