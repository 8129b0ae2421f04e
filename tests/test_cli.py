import json

import pytest

from hardlef import cli
from hardlef.catalog import CatalogEntry, builtin_entries

KT4 = """\
name kt4
dim 4
d e3 = e1^e2
omega = e4
eta = e3
"""


@pytest.fixture
def kt4_file(tmp_path):
    path = tmp_path / "kt4.model"
    path.write_text(KT4)
    return str(path)


def test_validate_ok(kt4_file, capsys):
    assert cli.main(["validate", kt4_file]) == 0
    out = capsys.readouterr().out
    assert "lee_field_U: E4" in out
    assert "anti_lee_field_V: E3" in out
    assert "Omega: e1^e2 + e3^e4" in out
    assert "invariant" in out  # the model caveat is always printed


def test_validate_contact(tmp_path, capsys):
    path = tmp_path / "h3.model"
    path.write_text("dim 3\nd e3 = e1^e2\neta = e3\n")
    assert cli.main(["validate", str(path)]) == 0
    assert "reeb_field: E3" in capsys.readouterr().out


def test_parse_error_exit_and_position(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_text("dim 3\nd e3 = e1 ^^ e2\n")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column 12" in err


def test_generator_count_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "names.model"
    path.write_text("dim 4\ngenerators a b c\n")
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert "line 2" in captured.err and "column 1" in captured.err
    assert "Traceback" not in captured.err


def test_validation_failure_exit(tmp_path, capsys):
    path = tmp_path / "rank.model"
    path.write_text("dim 6\nd e3 = e1^e2\nomega = e4\neta = e3\n")
    assert cli.main(["validate", str(path)]) == 2
    assert "RankDefect" in capsys.readouterr().err


def test_lefschetz_names_the_missing_eta(tmp_path, capsys):
    path = tmp_path / "omega.model"
    path.write_text("dim 4\nd e3 = e1^e2\nomega = e4\n")
    assert cli.main(["lefschetz", str(path)]) == 2
    assert capsys.readouterr().err == (
        "validation failure: ValidationError: the file declares omega but "
        "no eta; nothing to check\n")


def test_usage_error_exit(capsys):
    assert cli.main(["lefschetz", "--bogus"]) == 1


def test_missing_file_exit(capsys):
    assert cli.main(["validate", "/nonexistent/x.model"]) == 1


def test_degree_error_exit(kt4_file, capsys):
    assert cli.main(["lefschetz", kt4_file, "--k", "99"]) == 1


@pytest.mark.parametrize("k", ["x", "1.5"])
def test_non_integer_degree_exits_cleanly(kt4_file, capsys, k):
    assert cli.main(["lefschetz", kt4_file, "--k", k]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: degree must be an integer or 'all', got {k!r}\n"


H5 = "dim 5\nd e5 = e1^e2 + e3^e4\neta = e5\n"
PLAIN = "dim 3\nd e3 = e1^e2\n"


@pytest.mark.parametrize("text, spec, message", [
    (H5, "U", "field U needs a model file that declares omega and eta"),
    (H5, "E1,V", "field V needs a model file that declares omega and eta"),
    (PLAIN, "xi", "field xi needs a model file that declares eta"),
    (H5, "E99", "field E99: index 99 outside [1, 5]"),
    (H5, "E0", "field E0: index 0 outside [1, 5]"),
], ids=["U-on-contact", "V-on-contact", "xi-without-eta", "E99", "E0"])
def test_cohomology_bad_fields_exit_cleanly(tmp_path, capsys, text, spec,
                                            message):
    path = tmp_path / "m.model"
    path.write_text(text)
    assert cli.main(["cohomology", str(path), "--basic", spec]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


def test_cohomology_tables(kt4_file, capsys):
    assert cli.main(["cohomology", kt4_file, "--basic", "U"]) == 0
    out = capsys.readouterr().out
    assert "1, 3, 4, 3, 1" in out
    assert "1, 2, 2, 1, 0" in out
    assert "b_equals_c_sum: yes" in out


def test_lefschetz_all_modes(kt4_file, capsys):
    assert cli.main(["lefschetz", kt4_file, "--mode", "all"]) == 0
    out = capsys.readouterr().out
    assert "hard Lefschetz (de Rham)" in out
    assert "hard Lefschetz (Lee-basic)" in out
    assert "contact hard Lefschetz" in out
    assert "Betti parity" in out
    assert "psi" in out
    assert "no obstruction found" in out


def test_json_reports_are_byte_identical(kt4_file, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["lefschetz", kt4_file, "--json", str(out1)]) == 0
    assert cli.main(["lefschetz", kt4_file, "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_suite_green(capsys):
    assert cli.main(["suite", "--entry", "kt4", "--entry", "h3",
                     "--entry", "abelian4"]) == 0
    out = capsys.readouterr().out
    assert "all expected verdicts reproduced" in out


def test_suite_json_matches_schema(tmp_path, capsys):
    import jsonschema
    from importlib import resources
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    schema = json.loads(resources.files("hardlef").joinpath(
        "schema/report.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_suite_double_run_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["suite", "--json", str(a)]) == 0
    assert cli.main(["suite", "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_suite_json_is_deterministic(tmp_path, capsys):
    # The second run starts from empty caches, so no memoised complex or
    # relation can carry state from the first run into the output.
    from hardlef import lefschetz
    warm = tmp_path / "warm.json"
    cold = tmp_path / "cold.json"
    assert cli.main(["suite", "--json", str(warm)]) == 0
    lefschetz._memo.cache_clear()
    assert cli.main(["suite", "--json", str(cold)]) == 0
    capsys.readouterr()
    assert warm.read_bytes() == cold.read_bytes()


def test_suite_mismatch_exits_3(monkeypatch, capsys):
    entries = builtin_entries()
    target = entries[0]
    broken = CatalogEntry(
        target.name, target.model, target.omega, target.eta,
        target.nilpotent, target.unimodular,
        {"betti": {"value": [9, 9, 9], "source": "definition"}},
        fingerprint=target.fingerprint)
    monkeypatch.setattr("hardlef.cli._catalog.builtin_entries",
                        lambda: (broken,))
    assert cli.main(["suite"]) == 3
    out = capsys.readouterr().out
    assert "mismatch" in out and "FAIL" in out


def test_suite_unknown_entry(capsys):
    assert cli.main(["suite", "--entry", "nope"]) == 1


def test_export_roundtrip(tmp_path, capsys):
    from hardlef import modelfile
    out = tmp_path / "kt4.model"
    assert cli.main(["export", "kt4", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = modelfile.load_path(out)
    kt4 = next(e for e in builtin_entries() if e.name == "kt4")
    assert doc.model == kt4.model
    assert doc.omega == kt4.omega and doc.eta == kt4.eta


def test_export_json_format(capsys):
    assert cli.main(["export", "h3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 3
    assert data["differentials"]["e3"] == "e1^e2"


def test_export_unknown_entry(capsys):
    assert cli.main(["export", "nope"]) == 1
