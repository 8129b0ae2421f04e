"""Command line interface.

One table, _COMMANDS, parses every command line and renders the usage that
-h/--help prints.  Exit codes: 0 success, 1 usage, parse or degree errors,
2 validation failures, 3 internal consistency errors (including suite
regressions).  Reports print as text on stdout; --json writes the same
document as canonical JSON, byte-identical across runs on identical input.
"""

from __future__ import annotations

import errno
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from . import catalog as _catalog
from . import lefschetz as _lef
from . import modelfile, report
from .cohomology import betti_numbers
from .errors import (DegreeError, InternalConsistencyError, NotLefschetzError,
                     ParseError, PreconditionError, ValidationError)
from .exterior import Vector, default_names, form_text
from .structures import (validate_contact, validate_lcs,
                         vaisman_candidate_report)


def _emit(doc: dict, json_path: str | None) -> None:
    report.to_text(doc, sys.stdout)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            report.to_json(doc, fh)


def cmd_validate(args) -> int:
    doc = modelfile.load_path(args.file)
    results: dict = {"declared": doc.kind}
    if doc.kind == "lcs":
        struct = validate_lcs(doc.model, doc.omega, doc.eta)
        results["structure"] = "l.c.s. of the first kind"
        results["n"] = struct.n
        results["lee_field_U"] = str(struct.U)
        results["anti_lee_field_V"] = str(struct.V)
        results["Omega"] = form_text(struct.Omega, doc.generator_names)
        results["checks"] = {
            "omega closed": True,
            "rank d(eta) = 2n": True,
            "omega^eta^(d eta)^n is a volume form": True,
            "d(Omega) = omega^Omega": True,
            "eta = -i_U Omega": True,
        }
    elif doc.kind == "contact":
        struct = validate_contact(doc.model, doc.eta)
        results["structure"] = "contact"
        results["n"] = struct.n
        results["reeb_field"] = str(struct.xi)
        results["checks"] = {"eta^(d eta)^n is a volume form": True}
    else:
        results["structure"] = "model only (d.d = 0 holds)"
    _emit(report.document("validate", results, doc.model,
                          doc.generator_names), args.json)
    return 0


def _resolve_fields(doc: modelfile.ModelDocument,
                    tokens: list[str]) -> list[Vector]:
    if not tokens:
        raise PreconditionError("--basic needs at least one field "
                                "(U, V, xi or E<i>)")
    fields = []
    struct = None
    contact = None
    for token in tokens:
        if token in ("U", "V"):
            if doc.omega is None or doc.eta is None:
                raise PreconditionError(
                    f"field {token} needs a model file that declares "
                    f"omega and eta")
            if struct is None:
                struct = validate_lcs(doc.model, doc.omega, doc.eta)
            fields.append(struct.U if token == "U" else struct.V)
        elif token == "xi":
            if doc.eta is None:
                raise PreconditionError(
                    "field xi needs a model file that declares eta")
            if contact is None:
                contact = validate_contact(doc.model, doc.eta)
            fields.append(contact.xi)
        elif token.startswith("E") and (i := _decimal(token[1:])) is not None:
            n = doc.model.n_gen
            if not 1 <= i <= n:
                raise PreconditionError(
                    f"field {token}: index {token[1:]} outside [1, {n}]")
            fields.append(Vector.basis(n, i))
        else:
            raise PreconditionError(
                f"unknown field {token!r}; use U, V, xi or E<i>")
    return fields


def cmd_cohomology(args) -> int:
    doc = modelfile.load_path(args.file)
    model = doc.model
    if args.basic is not None:
        tokens = [t.strip() for t in args.basic.split(",") if t.strip()]
        fields = _resolve_fields(doc, tokens)
    betti = list(betti_numbers(_lef._full(model)))
    results: dict = {"betti": betti}
    if args.basic is not None:
        basic = list(betti_numbers(_lef._basic(model, tuple(fields))))
        results["basic_fields"] = [str(v) for v in fields]
        results["basic_betti"] = basic
        if tokens == ["U"]:
            results["b_equals_c_sum"] = _lef._sum_identity(betti, basic)
    _emit(report.document("cohomology", results, model,
                          doc.generator_names), args.json)
    return 0


def _decimal(digits: str) -> int | None:
    """The value of a run of ASCII digits, None for any other text: int()
    also reads " 1", "+1", "1_0" and other scripts' digits.  Past 18
    significant digits, where int() may refuse the run and every range
    checked here is left behind, it reads 10**18."""
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= 18 else 10 ** 18


def _degree(arg: str) -> int | None:
    """The degree --k names, None for 'all'.  Its syntax is checked before
    the model file is read; its range needs n (_degree_list)."""
    if arg == "all":
        return None
    k = _decimal(arg.removeprefix("-"))
    if k is None:
        raise DegreeError(f"degree must be an integer or 'all', "
                          f"got {arg!r}")
    return -k if arg.startswith("-") else k


def _degree_list(arg: str, k: int | None, n: int) -> list[int]:
    """The degrees that --k arg, read as k, asks for in [0, n]."""
    if k is None:
        return list(range(n + 1))
    if not 0 <= k <= n:
        raise DegreeError(f"degree {arg} outside [0, {n}]")
    return [k]


def _verdicts(check: str, relation, struct, degrees) -> dict:
    return {"check": check,
            "verdicts": [_lef.is_graph_of_isomorphism(
                relation(struct, k)).to_dict() for k in degrees]}


def cmd_lefschetz(args) -> int:
    asked = _degree(args.k)
    doc = modelfile.load_path(args.file)
    results: dict = {}
    if doc.kind == "lcs":
        struct = validate_lcs(doc.model, doc.omega, doc.eta)
        n = struct.n
        degrees = _degree_list(args.k, asked, n)
        mode = args.mode
        if mode in ("deRham", "all"):
            results["de_rham"] = _verdicts(
                "hard Lefschetz (de Rham)", _lef.de_rham_lefschetz_relation,
                struct, degrees)
        if mode in ("basic", "all"):
            results["basic"] = _verdicts(
                "hard Lefschetz (Lee-basic)", _lef.basic_lefschetz_relation,
                struct, degrees)
        if mode in ("contact", "all"):
            try:
                contact = _lef._quotient(struct)
                results["contact"] = _verdicts(
                    "contact hard Lefschetz (Lee quotient)",
                    _lef.contact_lefschetz_relation, contact, degrees)
            except ValidationError as exc:
                results["contact"] = {"check": "contact hard Lefschetz",
                                      "unavailable": str(exc)}
        if mode == "all":
            equivalence = _lef.lefschetz_equivalence_report(struct)
            results["equivalence"] = {
                "check": "Lefschetz / basic Lefschetz equivalence",
                **equivalence.to_dict()}
            parity = _lef.betti_parity_check(struct)
            results["parity"] = {"check": "Betti parity", **parity.to_dict()}
            psi = {}
            for k in range(1, n + 1):
                try:
                    psi[f"k={k}"] = _lef.pairing_psi(struct, k).to_dict()
                except NotLefschetzError:
                    psi[f"k={k}"] = {"unavailable":
                                     "basic Lefschetz map does not exist"}
            results["psi"] = {"check": "Lefschetz pairing psi", **psi}
            results["gysin"] = {"check": "flow exact sequences",
                                **_lef.gysin_sequence_check(struct).to_dict()}
            results["vaisman"] = {
                "check": "Vaisman compatibility obstructions",
                **vaisman_candidate_report(struct).to_dict()}
    elif doc.kind == "contact":
        if args.mode in ("deRham", "basic"):
            raise PreconditionError(f"--mode {args.mode} needs an l.c.s. file")
        contact = validate_contact(doc.model, doc.eta)
        degrees = _degree_list(args.k, asked, contact.n)
        results["contact"] = _verdicts(
            "contact hard Lefschetz", _lef.contact_lefschetz_relation,
            contact, degrees)
    else:
        declared = ("omega but no eta" if doc.omega is not None
                    else "neither omega/eta nor eta")
        raise ValidationError(f"the file declares {declared}; "
                              "nothing to check")
    _emit(report.document("lefschetz", results, doc.model,
                          doc.generator_names), args.json)
    return 0


def cmd_suite(args) -> int:
    missing = set(args.entry or ()).difference(_catalog.ENTRY_NAMES)
    if missing:
        raise PreconditionError(f"unknown catalog entries: "
                                f"{sorted(missing)}")
    suite = _catalog.run_suite(_catalog.builtin_entries(set(args.entry))
                               if args.entry else _catalog.builtin_entries())
    doc = report.document("suite", suite,
                          caveats=[report.CAVEAT_INVARIANT_MODEL])
    for item in suite["entries"]:
        status = "ok" if item["ok"] else "FAIL"
        sys.stdout.write(f"{status:4s} {item['name']:20s} "
                         f"{item['structure']}\n")
        for diff in item["diffs"]:
            sys.stdout.write(f"     mismatch {diff['check']}: expected "
                             f"{diff['expected']!r} ({diff['source']}), "
                             f"got {diff['actual']!r}\n")
    sys.stdout.write("suite: " + ("all expected verdicts reproduced\n"
                                  if suite["ok"] else "MISMATCHES FOUND\n"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            report.to_json(doc, fh)
    return 0 if suite["ok"] else 3


def cmd_export(args) -> int:
    if args.entry not in _catalog.ENTRY_NAMES:
        raise PreconditionError(f"unknown catalog entry {args.entry!r}; "
                                f"available: {sorted(_catalog.ENTRY_NAMES)}")
    entry, = _catalog.builtin_entries({args.entry})
    doc = modelfile.ModelDocument(entry.model, entry.omega, entry.eta,
                                  default_names(entry.model.n_gen))
    with (open(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            report.to_json(modelfile.to_json_dict(doc), fh)
        else:
            fh.write(modelfile.serialize(doc))
    return 0


_DEFAULTS = {"--mode": "all", "--k": "all", "--format": "text"}  # else None
# command: (handler, positional or None, {option: choices tuple or metavar});
# an option whose metavar ends in " ..." repeats and collects a list.
_COMMANDS = {
    "validate": (cmd_validate, "file", {"--json": "PATH"}),
    "cohomology": (cmd_cohomology, "file",
                   {"--basic": "U|V|xi|E<i>[,...]", "--json": "PATH"}),
    "lefschetz": (cmd_lefschetz, "file",
                  {"--mode": ("deRham", "basic", "contact", "all"),
                   "--k": "INT|all", "--json": "PATH"}),
    "suite": (cmd_suite, None, {"--entry": "NAME ...", "--json": "PATH"}),
    "export": (cmd_export, "entry",
               {"--out": "PATH", "--format": ("text", "json")}),
}


class _UsageError(Exception):
    """args (command or None, message); no message means -h/--help."""


def _usage(command: str | None = None) -> str:
    """The usage of one command, or of all, rendered from _COMMANDS."""
    lines = []
    for name in [command] if command else _COMMANDS:
        _, positional, options = _COMMANDS[name]
        words = [f"hardlef {name:10s}"
                 + (f" {positional.upper()}" if positional else "")]
        words += [f"[{opt} {'|'.join(v) if isinstance(v, tuple) else v}]"
                  for opt, v in options.items()]
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines) + "\n"


def _parse(argv: list[str]):
    """(handler, args) for argv, every option checked against _COMMANDS;
    values are taken verbatim."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        raise _UsageError(None, None if command in ("-h", "--help") else
                          f"unknown command {command!r}" if argv else
                          "a command is required")
    handler, positional, options = _COMMANDS[command]
    args = {opt: _DEFAULTS.get(opt) for opt in options}
    rest, tokens = [], iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _UsageError(command, None)
        if not token.startswith("-") or token == "-":
            rest.append(token)
            continue
        opt, eq, value = token.partition("=")
        spec = options.get(opt)
        if spec is None:
            raise _UsageError(command, f"unknown option {opt}")
        if not eq and (value := next(tokens, None)) is None:
            raise _UsageError(command, f"{opt} needs a value")
        if isinstance(spec, tuple) and value not in spec:
            raise _UsageError(command, f"{opt} must be one of "
                              f"{', '.join(spec)}; got {value!r}")
        repeats = isinstance(spec, str) and spec.endswith(" ...")
        args[opt] = (args[opt] or []) + [value] if repeats else value
    if len(rest) != bool(positional):
        raise _UsageError(command, f"unexpected argument {rest[-1]!r}"
                          if rest else f"{positional.upper()} is required")
    args = {opt[2:]: value for opt, value in args.items()}
    args.update(zip([positional], rest))
    return handler, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        command, message = exc.args
        if message is None:
            sys.stdout.write(_usage(command))
            return 0
        sys.stderr.write(f"{_usage(command)}hardlef: error: {message}\n")
        return 1
    try:
        # a --json PATH that open would refuse is refused before any work
        path = getattr(args, "json", None)
        if path and (os.path.isdir(path)
                     or not os.path.isdir(os.path.dirname(path) or ".")):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        return handler(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except (DegreeError, PreconditionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValidationError, NotLefschetzError) as exc:
        sys.stderr.write(f"validation failure: {type(exc).__name__}: {exc}\n")
        return 2
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
