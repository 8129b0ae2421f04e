"""Command line interface.

Subcommands: validate, cohomology, lefschetz, suite, export.  Exit codes:
0 success, 1 usage/parse/degree errors, 2 validation failures, 3 internal
consistency errors (including suite regressions).  Reports print as text
on stdout; --json writes the same document as canonical JSON, which is
byte-identical across runs on identical input.  The suite runs its
entries serially, in catalog order.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog as _catalog
from . import lefschetz as _lef
from . import modelfile, report
from .cohomology import betti_numbers
from .errors import (DegreeError, InternalConsistencyError, NotLefschetzError,
                     ParseError, PreconditionError, ValidationError)
from .exterior import Vector
from .structures import (validate_contact, validate_lcs,
                         vaisman_candidate_report)


class _Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code contract for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(doc: dict, json_path: str | None) -> None:
    sys.stdout.write(report.to_text(doc))
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(doc))


def cmd_validate(args) -> int:
    doc = modelfile.load_path(args.file)
    results: dict = {"declared": doc.kind}
    if doc.kind == "lcs":
        struct = validate_lcs(doc.model, doc.omega, doc.eta)
        results["structure"] = "l.c.s. of the first kind"
        results["n"] = struct.n
        results["lee_field_U"] = str(struct.U)
        results["anti_lee_field_V"] = str(struct.V)
        results["Omega"] = modelfile.form_text(struct.Omega,
                                               doc.generator_names)
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


def _resolve_fields(doc: modelfile.ModelDocument, spec: str) -> list[Vector]:
    fields = []
    struct = None
    contact = None
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
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
        elif token.startswith("E") and token[1:].isdigit():
            i, n = int(token[1:]), doc.model.n_gen
            if not 1 <= i <= n:
                raise PreconditionError(
                    f"field {token}: index {i} outside [1, {n}]")
            fields.append(Vector.basis(n, i))
        else:
            raise PreconditionError(
                f"unknown field {token!r}; use U, V, xi or E<i>")
    return fields


def cmd_cohomology(args) -> int:
    doc = modelfile.load_path(args.file)
    model = doc.model
    betti = list(betti_numbers(_lef._full(model)))
    results: dict = {"betti": betti}
    if args.basic:
        fields = _resolve_fields(doc, args.basic)
        basic = list(betti_numbers(_lef._basic(model, tuple(fields))))
        results["basic_fields"] = [str(v) for v in fields]
        results["basic_betti"] = basic
        if args.basic.strip() == "U":
            results["b_equals_c_sum"] = _lef._sum_identity(betti, basic)
    _emit(report.document("cohomology", results, model,
                          doc.generator_names), args.json)
    return 0


def _degree_list(arg: str, n: int) -> list[int]:
    if arg == "all":
        return list(range(n + 1))
    try:
        k = int(arg)
    except ValueError:
        raise DegreeError(f"degree must be an integer or 'all', "
                          f"got {arg!r}") from None
    if not 0 <= k <= n:
        raise DegreeError(f"degree {k} outside [0, {n}]")
    return [k]


def _verdicts(check: str, relation, struct, degrees) -> dict:
    return {"check": check,
            "verdicts": [_lef.is_graph_of_isomorphism(
                relation(struct, k)).to_dict() for k in degrees]}


def cmd_lefschetz(args) -> int:
    doc = modelfile.load_path(args.file)
    results: dict = {}
    if doc.kind == "lcs":
        struct = validate_lcs(doc.model, doc.omega, doc.eta)
        n = struct.n
        degrees = _degree_list(args.k, n)
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
                contact = _lef.quotient_contact(struct)
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
        contact = validate_contact(doc.model, doc.eta)
        degrees = _degree_list(args.k, contact.n)
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
    entries = _catalog.builtin_entries()
    if args.entry:
        wanted = set(args.entry)
        entries = tuple(e for e in entries if e.name in wanted)
        missing = wanted - {e.name for e in entries}
        if missing:
            raise PreconditionError(f"unknown catalog entries: "
                                    f"{sorted(missing)}")
    suite = _catalog.run_suite(entries)
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
            fh.write(report.to_json(doc))
    return 0 if suite["ok"] else 3


def cmd_export(args) -> int:
    entries = {e.name: e for e in _catalog.builtin_entries()}
    entry = entries.get(args.entry)
    if entry is None:
        raise PreconditionError(f"unknown catalog entry {args.entry!r}; "
                                f"available: {sorted(entries)}")
    names = tuple(f"e{i}" for i in range(1, entry.model.n_gen + 1))
    doc = modelfile.ModelDocument(entry.model, entry.omega, entry.eta, names)
    if args.format == "json":
        import json as _json
        text = _json.dumps(modelfile.to_json_dict(doc), indent=2,
                           sort_keys=True) + "\n"
    else:
        text = modelfile.serialize(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hardlef",
                     description="Exact invariant-model checks for contact "
                                 "and l.c.s. structures of the first kind.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate the declared structure")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="Betti tables of the model")
    p.add_argument("file")
    p.add_argument("--basic", metavar="FIELDS",
                   help="comma-separated fields (U, V, xi, E<i>)")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("lefschetz", help="hard Lefschetz verdicts")
    p.add_argument("file")
    p.add_argument("--mode", choices=["deRham", "basic", "contact", "all"],
                   default="all")
    p.add_argument("--k", default="all", metavar="INT|all")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_lefschetz)

    p = sub.add_parser("suite", help="run the built-in regression catalog")
    p.add_argument("--entry", action="append", metavar="NAME",
                   help="restrict to the named entries")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("export", help="write a catalog entry as a model file")
    p.add_argument("entry")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    except (DegreeError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
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
