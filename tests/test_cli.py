import io
import json
import sys
from pathlib import Path

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


# one digit more than int() converts
LONG = b"1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = f"number longer than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("name, data, message", [
    ("bad.model", b"dim 2\n\xff\n",
     "line 2, column 1: invalid UTF-8 byte 0xff"),
    ("bad.model", "# \u00e9\r\ndim 2\r\n d e2 = e1\u00e9".encode() + b"\xc3",
     "line 3, column 12: invalid UTF-8 byte 0xc3"),
    ("bad.json", b'{"dim":\n 2, "name": "\xfe"}',
     "line 2, column 14: invalid UTF-8 byte 0xfe"),
    ("deep.json", b'{"dim": ' + b"[" * 100000 + b"]" * 100000 + b"}",
     "line 1, column 40: JSON nested deeper than 32"),
    ("long.model", b"dim " + LONG, f"line 1, column 5: {TOO_LONG}"),
    ("long.model", b"dim 3\nd e3 = " + LONG + b" e1^e2\n",
     f"line 2, column 8: {TOO_LONG}"),
    ("long.model", b"dim 3\nd e3 = e1^e2 - 1/" + LONG + b" e1^e2\n",
     f"line 2, column 16: {TOO_LONG}"),
    ("long.json", b'{"dim":\n  ' + LONG + b"}",
     f"line 2, column 3: {TOO_LONG}"),
    ("long.json", b'{"dim": 3, "eta": "-' + LONG + b'*e3"}',
     f"eta, column 2: {TOO_LONG}"),
    ("wide.model", "dim \uff13\n".encode(),
     "line 1, column 5: unexpected character '\uff13'"),
    ("wide.model", "dim 3\nd e3 = \uff12 e1^e2\n".encode(),
     "line 2, column 8: unexpected character '\uff12'"),
], ids=["not-utf8", "truncated-utf8-crlf", "not-utf8-json", "deep-json",
        "long-dim", "long-coefficient", "long-denominator", "long-json-dim",
        "long-json-string", "fullwidth-dim", "fullwidth-coefficient"])
def test_unreadable_files_are_parse_errors(tmp_path, capsys, name, data,
                                           message):
    path = tmp_path / name
    path.write_bytes(data)
    assert cli.main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


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


@pytest.mark.parametrize("mode", ["deRham", "basic"])
def test_lefschetz_refuses_an_lcs_mode_on_a_contact_file(tmp_path, capsys,
                                                         mode):
    """deRham and basic need omega; a contact file is refused for them, not
    answered with its contact picture, which contact and all print."""
    path = tmp_path / "h3.model"
    path.write_text("dim 3\nd e3 = e1^e2\neta = e3\n")
    assert cli.main(["lefschetz", str(path), "--mode", mode]) == 1
    assert capsys.readouterr() == (
        "", f"error: --mode {mode} needs an l.c.s. file\n")
    for shown in ("contact", "all"):
        assert cli.main(["lefschetz", str(path), "--mode", shown]) == 0
        assert "contact hard Lefschetz" in capsys.readouterr().out


def test_cohomology_of_one_generator(tmp_path, capsys):
    """d e1 = 0 of a dim-1 model is the zero 2-form over one generator, the
    one element of a zero space; the model has the circle's cohomology."""
    path = tmp_path / "s1.model"
    path.write_text("dim 1\n")
    assert cli.main(["cohomology", str(path)]) == 0
    assert "\nbetti:\n  1, 1\n" in capsys.readouterr().out


def test_usage_error_exit(capsys):
    assert cli.main(["lefschetz", "--bogus"]) == 1


def _usage_error(command, message):
    return f"{cli._usage(command)}hardlef: error: {message}\n"


# argv ("@" stands for the kt4 file) -> exit code, stdout, stderr; a list
# in place of stdout is a command line whose stdout must be the same
@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], 0, cli._usage(), ""),
    (["-h"], 0, cli._usage(), ""),
    (["suite", "--entry", "kt4", "--help"], 0, cli._usage("suite"), ""),
    ([], 1, "", _usage_error(None, "a command is required")),
    (["bogus", "@"], 1, "", _usage_error(None, "unknown command 'bogus'")),
    (["lefschetz", "@", "--bogus"], 1, "",
     _usage_error("lefschetz", "unknown option --bogus")),
    (["lefschetz", "@", "--js=out.json"], 1, "",
     _usage_error("lefschetz", "unknown option --js")),
    (["cohomology", "@", "-b", "U"], 1, "",
     _usage_error("cohomology", "unknown option -b")),
    (["lefschetz", "@", "--k"], 1, "",
     _usage_error("lefschetz", "--k needs a value")),
    (["lefschetz", "@", "--mode", "Derham"], 1, "",
     _usage_error("lefschetz", "--mode must be one of deRham, basic, "
                               "contact, all; got 'Derham'")),
    (["export", "kt4", "--format=yaml"], 1, "",
     _usage_error("export", "--format must be one of text, json; "
                            "got 'yaml'")),
    (["validate"], 1, "", _usage_error("validate", "FILE is required")),
    (["export", "--format", "json"], 1, "",
     _usage_error("export", "ENTRY is required")),
    (["lefschetz", "@", "extra"], 1, "",
     _usage_error("lefschetz", "unexpected argument 'extra'")),
    (["suite", "kt4"], 1, "", _usage_error("suite", "unexpected argument "
                                                    "'kt4'")),
    (["lefschetz", "@", "--k", "-1"], 1, "",
     "error: degree -1 outside [0, 1]\n"),
    (["lefschetz", "@", "--k", "-" + "1" * 5000], 1, "",
     f"error: degree -{'1' * 5000} outside [0, 1]\n"),
    (["lefschetz", "@", "--k", "01"], 0,
     ["lefschetz", "@", "--k", "1"], ""),
    (["lefschetz", "--mode=basic", "--k=1", "@"], 0,
     ["lefschetz", "@", "--mode", "basic", "--k", "1"], ""),
    (["lefschetz", "@", "--mode", "deRham", "--mode", "basic"], 0,
     ["lefschetz", "@", "--mode", "basic"], ""),
    (["lefschetz", "@"], 0, ["lefschetz", "@", "--mode", "all", "--k", "all"],
     ""),
    (["suite", "--entry", "kt4", "--entry=h3"], 0,
     ["suite", "--entry", "h3", "--entry", "kt4"], ""),
    (["export", "kt4"], 0, ["export", "kt4", "--format", "text"], ""),
], ids=["help", "h", "help-after-options", "no-command", "unknown-command",
        "unknown-option", "no-abbreviation", "single-dash", "missing-value",
        "mode-choice", "format-choice", "missing-file", "missing-entry",
        "extra-positional", "suite-positional", "negative-k",
        "k-5000-digits", "k-leading-zero", "opt=value",
        "last-value-wins", "defaults", "entry-accumulates",
        "format-default"])
def test_command_line_table(kt4_file, capsys, argv, code, out, err):
    def run(line):
        rc = cli.main([kt4_file if a == "@" else a for a in line])
        return (rc, *capsys.readouterr())

    if isinstance(out, list):
        rc, out, _ = run(out)
        assert rc == 0 and out
    assert run(argv) == (code, out, err)


def test_readme_block_is_the_printed_usage():
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1]
    assert section.split("```\n")[1] == cli._usage()


def test_missing_file_exit(capsys):
    assert cli.main(["validate", "/nonexistent/x.model"]) == 1


def test_degree_error_exit(kt4_file, capsys):
    assert cli.main(["lefschetz", kt4_file, "--k", "99"]) == 1


# int() reads all but the first two as 1 or 10
@pytest.mark.parametrize("k", ["x", "1.5", "1_0", " 1", "1\n", "+1",
                               "\uff11", "-\uff11", "--1", "-"])
def test_non_integer_degree_exits_cleanly(kt4_file, capsys, k):
    assert cli.main(["lefschetz", kt4_file, "--k", k]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: degree must be an integer or 'all', got {k!r}\n"


def test_degree_syntax_is_checked_before_the_model(tmp_path, capsys):
    # d eta = 0, so validating the structure would report a rank defect
    path = tmp_path / "m.model"
    path.write_text("dim 4\nomega = e4\neta = e3\n")
    assert cli.main(["lefschetz", str(path), "--k", "x"]) == 1
    assert capsys.readouterr().err == \
        "error: degree must be an integer or 'all', got 'x'\n"


H5 = "dim 5\nd e5 = e1^e2 + e3^e4\neta = e5\n"
PLAIN = "dim 3\nd e3 = e1^e2\n"


@pytest.mark.parametrize("text, spec, message", [
    (H5, "U", "field U needs a model file that declares omega and eta"),
    (H5, "E1,V", "field V needs a model file that declares omega and eta"),
    (PLAIN, "xi", "field xi needs a model file that declares eta"),
    (H5, "E99", "field E99: index 99 outside [1, 5]"),
    (H5, "E0", "field E0: index 0 outside [1, 5]"),
    (H5, "E007", "field E007: index 007 outside [1, 5]"),
    (H5, "E" + "9" * 5000, f"field E{'9' * 5000}: index {'9' * 5000} "
                           "outside [1, 5]"),
    (H5, "E\uff11", "unknown field 'E\uff11'; use U, V, xi or E<i>"),
    (H5, "E1_0", "unknown field 'E1_0'; use U, V, xi or E<i>"),
    (H5, "E+1", "unknown field 'E+1'; use U, V, xi or E<i>"),
    (H5, "E 1", "unknown field 'E 1'; use U, V, xi or E<i>"),
], ids=["U-on-contact", "V-on-contact", "xi-without-eta", "E99", "E0",
        "E007", "E-5000-digits", "E-fullwidth", "E-underscore", "E-plus",
        "E-blank"])
def test_cohomology_bad_fields_exit_cleanly(tmp_path, capsys, text, spec,
                                            message):
    path = tmp_path / "m.model"
    path.write_text(text)
    assert cli.main(["cohomology", str(path), "--basic", spec]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


def test_cohomology_checks_fields_before_computing(tmp_path, monkeypatch,
                                                  capsys):
    from hardlef import lefschetz

    def refuse(model):
        raise AssertionError("the full complex was computed")

    path = tmp_path / "m.model"
    path.write_text(H5)
    monkeypatch.setattr(lefschetz, "full_complex", refuse)
    assert cli.main(["cohomology", str(path), "--basic", "E99"]) == 1
    assert capsys.readouterr().err == \
        "error: field E99: index 99 outside [1, 5]\n"


@pytest.mark.parametrize("spec", [",", " , ", ""])
def test_cohomology_empty_field_list_exits_cleanly(kt4_file, capsys, spec):
    assert cli.main(["cohomology", kt4_file, "--basic", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --basic needs at least one field "
                            "(U, V, xi or E<i>)\n")


def test_cohomology_field_list_is_parsed_once(kt4_file, capsys):
    assert cli.main(["cohomology", kt4_file, "--basic", "U"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["cohomology", kt4_file, "--basic", " U ,"]) == 0
    assert capsys.readouterr().out == plain
    assert "b_equals_c_sum" in plain


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


def test_suite_json_is_deterministic(tmp_path, monkeypatch, capsys):
    # A second run over the same catalog models reads their warm memos; its
    # output must equal that of a run over fresh models with empty memos.
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    assert cli.main(["suite", "--json", str(cold)]) == 0
    entries = builtin_entries()
    monkeypatch.setattr("hardlef.cli._catalog.builtin_entries",
                        lambda: entries)
    for _ in range(2):
        assert cli.main(["suite", "--json", str(warm)]) == 0
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


def test_suite_builds_only_the_named_entries(monkeypatch, capsys):
    from hardlef import catalog
    built = []
    entry = catalog._entry

    def counting(name, *args):
        built.append(name)
        return entry(name, *args)

    monkeypatch.setattr(catalog, "_entry", counting)
    assert cli.main(["suite", "--entry", "kt4", "--entry", "h3"]) == 0
    assert built == ["h3", "kt4"]
    assert cli.main(["suite", "--entry", "kt4", "--entry", "nope"]) == 1
    assert cli.main(["export", "h5"]) == 0
    assert built == ["h3", "kt4", "h5"]
    capsys.readouterr()


def test_fingerprints_are_sha256_digests():
    import hashlib
    from hardlef.catalog import entry_fingerprint
    for entry in builtin_entries():
        payload = json.dumps(entry.expected, sort_keys=True, default=str)
        assert entry_fingerprint(entry.expected) == entry.fingerprint == \
            hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_json_report_is_written_without_a_whole_string(monkeypatch, tmp_path,
                                                        capsys):
    from hardlef import report

    def refusing(*args, **kwargs):
        raise AssertionError("the report was built as one string")

    out = tmp_path / "h5s1.json"
    model = Path(__file__).resolve().parent.parent / "models" / "h5s1.model"
    monkeypatch.setattr(report.json, "dumps", refusing)
    assert cli.main(["lefschetz", str(model), "--json", str(out)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_text_report_is_written_line_by_line(monkeypatch):
    writes = []

    class Recorder(io.StringIO):
        def write(self, s):
            writes.append(s)
            return len(s)

    model = Path(__file__).resolve().parent.parent / "models" / "h5s1.model"
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert cli.main(["lefschetz", str(model), "--mode", "all"]) == 0
    monkeypatch.undo()
    lines = "".join(writes).splitlines()
    assert len(lines) > 100
    assert max(map(len, writes)) <= max(map(len, lines)) + 1


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


def test_cli_import_loads_no_startup_weight():
    """A cold `import hardlef.cli` plus `main(['--help'])` pulls in none of
    dataclasses, inspect and hashlib beyond what the bare interpreter (and
    its site) holds, and none of argparse, gettext and locale at all."""
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(cli.__file__).resolve().parents[1])
    report = "print(*sys.modules, file=sys.stderr)"

    def loaded(code):
        out = subprocess.run([sys.executable, "-I", "-c", code],
                             capture_output=True, text=True, check=True)
        return out.stdout, set(out.stderr.split())

    usage, cold = loaded(f"import sys; sys.path.insert(0, {src!r}); "
                         f"import hardlef.cli; hardlef.cli.main(['--help']); "
                         f"{report}")
    assert usage == cli._usage()
    weight = {"dataclasses", "inspect", "hashlib"}
    assert cold & weight <= loaded(f"import sys; {report}")[1]
    assert not {"argparse", "gettext", "locale"} & cold


@pytest.mark.parametrize("name", ["h7s1", "su2s1"])
def test_lefschetz_and_basic_cohomology_build_no_echelon(monkeypatch, capsys,
                                                        name):
    """Cycles, spaces, class reads, relations and basic complexes take
    their kernels from the transposed RREF: no [M | I] is factored, and
    sparse_inverse, the one elimination that carries it, is not called."""
    from hardlef import linalg

    def refuse(*args):
        raise AssertionError("an [M | I] was factored")

    monkeypatch.setattr(linalg, "sparse_inverse", refuse)
    path = str(Path(__file__).resolve().parent.parent / "models"
               / f"{name}.model")
    assert cli.main(["lefschetz", path, "--mode", "all"]) == 0
    assert cli.main(["cohomology", path, "--basic", "U"]) == 0
    assert "Traceback" not in capsys.readouterr().err
