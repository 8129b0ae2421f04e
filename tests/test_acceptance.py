"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything is exact rational arithmetic, so every tolerance is exact
equality; the two timed criteria assert their stated wall-clock budgets.
"""

import json
import random
import time

from hardlef import (Form, StructureModel, Vector, cli, contract,
                     top_coefficient, validate_contact, validate_lcs,
                     vaisman_candidate_report, wedge, wedge_power)
from hardlef import lefschetz as lef
from hardlef import linalg
from hardlef.catalog import builtin_entries, run_suite
from hardlef.errors import ValidationError

import oracle
from conftest import MODEL_POOL, random_form, random_vector

KT4_TEXT = "name kt4\ndim 4\nd e3 = e1^e2\nomega = e4\neta = e3\n"


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_c1_kernel_identities():
    rng = random.Random(616)
    models = {n: [StructureModel.from_salamon(s) for s in pool]
              for n, pool in MODEL_POOL.items()}
    start = time.monotonic()
    cases = 0
    for _ in range(1000):
        n = rng.choice(sorted(models))
        m = rng.choice(models[n])
        deg_a = rng.randint(0, 2)
        deg_b = rng.randint(0, 2)
        a = random_form(rng, n, deg_a)
        b = random_form(rng, n, deg_b)
        c = random_form(rng, n, rng.randint(0, 2))
        v = random_vector(rng, n)
        # associativity and graded commutativity
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a, b) == (-1) ** (deg_a * deg_b) * wedge(b, a)
        # contraction is an antiderivation squaring to zero
        lhs = contract(v, wedge(a, b))
        rhs = wedge(contract(v, a), b) + \
            (-1) ** deg_a * wedge(a, contract(v, b))
        assert lhs == rhs
        assert contract(v, contract(v, a)).is_zero()
        # Cartan formula consequences: derivation property, commutes with d
        lv = m.lie_derivative(v, wedge(a, b))
        assert lv == wedge(m.lie_derivative(v, a), b) + \
            wedge(a, m.lie_derivative(v, b))
        assert m.d(m.lie_derivative(v, a)) == m.lie_derivative(v, m.d(a))
        # d.d = 0
        assert m.d(m.d(a)).is_zero()
        cases += 1
    elapsed = time.monotonic() - start
    assert cases == 1000
    assert elapsed < 10.0, f"property cases took {elapsed:.1f}s"
    _report(1, f"1000 seeded kernel property cases, zero failures, "
               f"{elapsed:.2f}s")


def test_c2_kt4_validation_and_dimensions():
    m = StructureModel.from_salamon("(0,0,12,0)", name="kt4")
    s = validate_lcs(m, Form.generator(4, 4), Form.generator(4, 3))
    assert s.U == Vector.basis(4, 4)
    assert s.V == Vector.basis(4, 3)
    assert s.Omega == Form.monomial(4, (1, 2)) + Form.monomial(4, (3, 4))
    assert m.d(s.Omega) == s.omega.wedge(s.Omega)
    assert contract(s.U, s.Omega) == -s.eta
    betti = list(lef.betti_numbers(lef._full(m)))
    basic = list(lef.betti_numbers(lef._basic(m, (s.U,))))
    assert betti == [1, 3, 4, 3, 1]
    assert basic == [1, 2, 2, 1, 0]
    assert all(betti[k] == basic[k] + (basic[k - 1] if k else 0)
               for k in range(5))
    d1 = oracle.model_of(m)
    assert oracle.betti(d1, 4) == betti
    assert oracle.basic_betti(d1, 4, [[0, 0, 0, 1]]) == basic
    _report(2, "kt4 validates with U=E4, V=E3, Omega=e12+e34; Betti "
               "(1,3,4,3,1), basic (1,2,2,1), b_k = c_k + c_(k-1)")


def test_c3_kt4_lefschetz_matrix_snapshots():
    m = StructureModel.from_salamon("(0,0,12,0)", name="kt4")
    s = validate_lcs(m, Form.generator(4, 4), Form.generator(4, 3))
    full = lef._full(m)
    assert [str(f) for f in full.space(3).representatives] == \
        ["e1^e2^e3", "e1^e3^e4", "e2^e3^e4"]
    v0 = lef.is_graph_of_isomorphism(lef.de_rham_lefschetz_relation(s, 0))
    v1 = lef.is_graph_of_isomorphism(lef.de_rham_lefschetz_relation(s, 1))
    assert v0.is_graph_of_isomorphism and v1.is_graph_of_isomorphism
    assert v0.map.matrix == ((-1,),)
    # [e1] -> -[e134], [e2] -> -[e234], [e4] -> +[e123]
    assert v1.map.matrix == ((0, -1, 0), (0, 0, -1), (1, 0, 0))
    b0 = lef.is_graph_of_isomorphism(lef.basic_lefschetz_relation(s, 0))
    b1 = lef.is_graph_of_isomorphism(lef.basic_lefschetz_relation(s, 1))
    assert b0.is_graph_of_isomorphism and b1.is_graph_of_isomorphism
    assert b0.map.matrix == ((1,),)
    assert b1.map.matrix == ((-1, 0), (0, -1))
    basic = lef._basic(m, (s.U,))
    assert [str(f) for f in basic.space(2).representatives] == \
        ["e1^e3", "e2^e3"]
    # Lef_1 on [e1] is proportional to [e13]
    assert b1.map.matrix[0] == (-1, 0)
    _report(3, "kt4 de Rham and basic Lefschetz matrices match the frozen "
               "snapshots in degrees 0 and 1")


def _lcs_structures():
    out = []
    for entry in builtin_entries():
        if entry.kind != "lcs":
            continue
        try:
            out.append((entry,
                        validate_lcs(entry.model, entry.omega, entry.eta)))
        except ValidationError:
            continue
    return out


def test_c4_equivalence_agreement_across_catalog():
    checked = 0
    for entry, struct in _lcs_structures():
        report = lef.lefschetz_equivalence_report(struct)
        assert report.agree, entry.name
        assert report.contact_available, entry.name
        for verdicts in report.per_degree:
            assert verdicts.de_rham == verdicts.basic == verdicts.contact, \
                (entry.name, verdicts)
        checked += 1
    assert checked == 4
    _report(4, f"de Rham, basic and quotient-contact verdict vectors agree "
               f"degree by degree on {checked} structures")


def test_c5_pairing_and_parity():
    lefschetz_entries = 0
    for entry, struct in _lcs_structures():
        report = lef.lefschetz_equivalence_report(struct)
        parity = lef.betti_parity_check(struct)
        if not report.basic_all:
            continue
        lefschetz_entries += 1
        assert parity.parity_ok, entry.name
        for k in range(1, struct.n + 1):
            res = lef.pairing_psi(struct, k)
            psi = [list(r) for r in res.matrix]
            sign = -1 if k % 2 else 1
            transposed = [[psi[j][i] for j in range(len(psi))]
                          for i in range(len(psi))]
            assert transposed == [[sign * x for x in row] for row in psi]
            assert res.nondegenerate
    assert lefschetz_entries == 2
    _report(5, "psi is exactly (-1)^k-symmetric and nondegenerate on every "
               "Lefschetz catalog entry; Betti parity holds")


def test_c6_flow_sequences_and_t_maps():
    names = {"kt4", "h5s1"}
    seen = set()
    for entry, struct in _lcs_structures():
        if entry.name not in names:
            continue
        start = time.monotonic()
        report = lef.gysin_sequence_check(struct)
        assert report.ok, entry.name
        assert report.top.compositions_vanish
        assert report.bottom.compositions_vanish
        assert report.top.exact and report.bottom.exact
        for k in range(struct.n + 1):
            assert lef.uv_basic_lefschetz(struct, k).invertible
            t = lef.t_map(struct, k)
            basic = lef.lefschetz_map_basic(struct, k)
            prod = linalg.matmul([linalg.sparse(r) for r in basic],
                                 [linalg.sparse(r) for r in t])
            assert prod == [{i: 1} for i in range(len(basic))]
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{entry.name}: {elapsed:.1f}s"
        seen.add(entry.name)
    assert seen == names
    _report(6, "flow sequences exact, transversal Lefschetz invertible and "
               "T_k inverse to Lef_k^U on kt4 and h5s1 within budget")


def test_c7_oracle_equivalence_over_catalog():
    relations = 0
    for entry in builtin_entries():
        assert entry.model.n_gen <= 6
        d1 = oracle.model_of(entry.model)
        pkg_betti = list(lef.betti_numbers(lef._full(entry.model)))
        assert pkg_betti == oracle.betti(d1, entry.model.n_gen)
        if entry.kind == "lcs":
            try:
                struct = validate_lcs(entry.model, entry.omega, entry.eta)
            except ValidationError:
                continue
            omega = oracle.form_of(struct.omega)
            eta = oracle.form_of(struct.eta)
            u = list(struct.U.coeffs)
            v = list(struct.V.coeffs)
            full = lef._full(entry.model)
            basic = lef._basic(entry.model, (struct.U,))
            assert list(lef.betti_numbers(basic)) == \
                oracle.basic_betti(d1, entry.model.n_gen, [u])
            for k in range(struct.n + 1):
                rel = lef.de_rham_lefschetz_relation(struct, k)
                dense = oracle.de_rham_relation(
                    d1, entry.model.n_gen, struct.n, omega, eta, u, v, k,
                    [oracle.form_of(f)
                     for f in full.space(k).representatives],
                    [oracle.form_of(f) for f in
                     full.space(2 * struct.n + 2 - k).representatives])
                assert [list(r) for r in rel.span] == dense
                relb = lef.basic_lefschetz_relation(struct, k)
                denseb = oracle.basic_relation(
                    d1, entry.model.n_gen, struct.n, omega, eta, u, v, k,
                    [oracle.form_of(f)
                     for f in basic.space(k).representatives],
                    [oracle.form_of(f) for f in
                     basic.space(2 * struct.n + 1 - k).representatives])
                assert [list(r) for r in relb.span] == denseb
                relations += 2
        elif entry.kind == "contact":
            try:
                struct = validate_contact(entry.model, entry.eta)
            except ValidationError:
                continue
            eta = oracle.form_of(struct.eta)
            xi = list(struct.xi.coeffs)
            full = lef._full(entry.model)
            for k in range(struct.n + 1):
                rel = lef.contact_lefschetz_relation(struct, k)
                dense = oracle.contact_relation(
                    d1, entry.model.n_gen, struct.n, eta, xi, k,
                    [oracle.form_of(f)
                     for f in full.space(k).representatives],
                    [oracle.form_of(f) for f in
                     full.space(2 * struct.n + 1 - k).representatives])
                assert [list(r) for r in rel.span] == dense
                relations += 1
    assert relations >= 28
    _report(7, f"dense brute-force oracle reproduces every cohomology table "
               f"and all {relations} relation subspaces exactly")


def test_c8_cli_contract(tmp_path, capsys):
    model_path = tmp_path / "kt4.model"
    model_path.write_text(KT4_TEXT)
    # exit 0 on success
    assert cli.main(["validate", str(model_path)]) == 0
    # exit 1 with position on parse errors
    bad = tmp_path / "bad.model"
    bad.write_text("dim 3\nd e3 = e1 ^^ e2\n")
    assert cli.main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column 12" in err
    # exit 1 on degree errors
    assert cli.main(["lefschetz", str(model_path), "--k", "99"]) == 1
    # exit 2 on validation failures
    rank = tmp_path / "rank.model"
    rank.write_text("dim 6\nd e3 = e1^e2\nomega = e4\neta = e3\n")
    assert cli.main(["validate", str(rank)]) == 2
    capsys.readouterr()
    # byte-identical machine reports across runs, schema-valid suite output
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["lefschetz", str(model_path), "--json", str(a)]) == 0
    assert cli.main(["lefschetz", str(model_path), "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    assert cli.main(["suite", "--json", str(sa)]) == 0
    assert cli.main(["suite", "--json", str(sb)]) == 0
    assert sa.read_bytes() == sb.read_bytes()
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("hardlef").joinpath(
        "schema/report.schema.json").read_text())
    jsonschema.validate(json.loads(sa.read_text()), schema)
    capsys.readouterr()
    _report(8, "exit codes 0/1/2 exercised, parse errors carry positions, "
               "machine reports byte-identical and schema-valid")


def test_catalog_suite_reproduces_expected_verdicts():
    report = run_suite()
    assert report["ok"], [e for e in report["entries"] if not e["ok"]]
    _report("suite", f"all {len(report['entries'])} catalog entries "
                     f"reproduce their stored verdicts")


def test_run_entry_computes_only_the_expected_checks(monkeypatch):
    """nil5a_s1 and nil5b_s1 expect neither t_inverse_ok nor psi_ok, so
    their entries build no T map and no pairing."""
    from hardlef import lefschetz as lef
    from hardlef.catalog import run_entry
    calls = []
    for name in ("t_map", "pairing_psi"):
        def counting(struct, k, _fn=getattr(lef, name), _name=name):
            calls.append(_name)
            return _fn(struct, k)
        monkeypatch.setattr(lef, name, counting)
    entries = {e.name: e for e in builtin_entries()}
    for name in ("nil5a_s1", "nil5b_s1"):
        assert "psi_ok" not in entries[name].expected
        run_entry(entries[name])
    assert calls == []
    run_entry(entries["kt4"])
    assert calls.count("t_map") == 2 and calls.count("pairing_psi") == 1
