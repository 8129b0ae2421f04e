"""Built-in example models with frozen expected verdicts.

The regression corpus: two circle products where every Lefschetz check
passes (Heisenberg-3 and Heisenberg-5 bases), two five-dimensional
nilpotent contact models failing the Lefschetz property (one of them with
even odd-degree Betti numbers, so only the Lefschetz obstruction fires on
its circle product), their circle products, and negative entries
exercising each reachable validator error.

Every expected value records how it was obtained: "definition" for direct
consequences of the defining data, "hand computation" for worked rank
computations, "dense oracle" for values frozen from the independent dense
routine in the test suite.  Each entry stores a fingerprint of its
expectation map so accidental edits are caught by the suite: the SHA-256
of its sorted JSON.  The digest comes from CPython's own module, _sha256
up to 3.11 or _sha2 from 3.12, because hashlib loads OpenSSL; hashlib
serves only where neither exists.  The model of a table row is built only
when its entry is asked for.
"""

from __future__ import annotations

import json
from typing import Mapping

from .errors import HardLefError, ValidationError
from .exterior import Form
from .model import StructureModel
from . import lefschetz as _lef
from .record import Record
from .structures import (validate_contact, validate_lcs,
                         vaisman_candidate_report)


class CatalogEntry(Record):
    name: str
    model: StructureModel
    omega: Form | None
    eta: Form | None
    nilpotent: bool
    unimodular: bool
    expected: Mapping[str, dict]
    fingerprint: str

    @property
    def kind(self) -> str:
        if self.omega is not None:
            return "lcs"
        if self.eta is not None:
            return "contact"
        return "model"


def entry_fingerprint(expected: Mapping[str, dict]) -> str:
    """16 hex digits of the SHA-256 of the expectations (module docstring)."""
    payload = json.dumps(expected, sort_keys=True, default=str).encode()
    for name in ("_sha256", "_sha2", "hashlib"):
        try:
            return __import__(name).sha256(payload).hexdigest()[:16]
        except ImportError:
            pass


def _e(value, source):
    return {"value": value, "source": source}


def _entry(name, structure, omega_idx, eta_idx, expected,
           fingerprint, nilpotent=True, unimodular=True):
    model = StructureModel.from_salamon(structure, name=name)
    n = model.n_gen
    omega = Form.generator(n, omega_idx) if omega_idx else None
    eta = Form.generator(n, eta_idx) if eta_idx else None
    return CatalogEntry(name, model, omega, eta, nilpotent, unimodular,
                        expected, fingerprint)


# (name, structure, omega index, eta index, expected, fingerprint) of
# every entry, in suite order
_TABLE = (
    ("h3", "(0,0,12)", None, 3, {
        "validates": _e("contact", "definition"),
        "reeb_field": _e("E3", "hand computation"),
        "betti": _e([1, 2, 2, 1], "hand computation"),
        "lefschetz_contact": _e([True, True], "hand computation"),
    }, "f2677cfc3f7163b8"),
    ("h5", "(0,0,0,0,12+34)", None, 5, {
        "validates": _e("contact", "definition"),
        "reeb_field": _e("E5", "hand computation"),
        "betti": _e([1, 4, 5, 5, 4, 1], "hand computation"),
        "lefschetz_contact": _e([True, True, True], "dense oracle"),
    }, "30ea7bc194a6a3ce"),
    ("nil5a", "(0,0,0,12,13+24)", None, 5, {
        "validates": _e("contact", "definition"),
        "reeb_field": _e("E5", "hand computation"),
        "betti": _e([1, 3, 4, 4, 3, 1], "hand computation"),
        "lefschetz_contact": _e([True, False, False], "dense oracle"),
    }, "a9e5978929d14ade"),
    ("nil5b", "(0,0,12,13,14+23)", None, 5, {
        "validates": _e("contact", "definition"),
        "reeb_field": _e("E5", "hand computation"),
        "betti": _e([1, 2, 3, 3, 2, 1], "hand computation"),
        "lefschetz_contact": _e([True, False, False], "dense oracle"),
    }, "be944983c30b2c1e"),
    ("kt4", "(0,0,12,0)", 4, 3, {
        "validates": _e("lcs", "definition"),
        "lee_field": _e("E4", "hand computation"),
        "anti_lee_field": _e("E3", "hand computation"),
        "betti": _e([1, 3, 4, 3, 1], "hand computation"),
        "basic_betti": _e([1, 2, 2, 1, 0], "hand computation"),
        "lefschetz_de_rham": _e([True, True], "hand computation"),
        "lefschetz_basic": _e([True, True], "hand computation"),
        "lefschetz_contact": _e([True, True], "hand computation"),
        "equivalence_agree": _e(True, "hand computation"),
        "parity_ok": _e(True, "hand computation"),
        "b_equals_c_sum": _e(True, "hand computation"),
        "uv_invertible": _e([True, True], "hand computation"),
        "gysin_ok": _e(True, "dense oracle"),
        "t_inverse_ok": _e(True, "hand computation"),
        "psi_ok": _e(True, "hand computation"),
        "vaisman": _e("no obstruction found", "hand computation"),
    }, "ecccb9f6e11d46bf"),
    ("h5s1", "(0,0,0,0,12+34,0)", 6, 5, {
        "validates": _e("lcs", "definition"),
        "lee_field": _e("E6", "hand computation"),
        "anti_lee_field": _e("E5", "hand computation"),
        "betti": _e([1, 5, 9, 10, 9, 5, 1], "hand computation"),
        "basic_betti": _e([1, 4, 5, 5, 4, 1, 0], "hand computation"),
        "lefschetz_de_rham": _e([True, True, True], "dense oracle"),
        "lefschetz_basic": _e([True, True, True], "dense oracle"),
        "lefschetz_contact": _e([True, True, True], "dense oracle"),
        "equivalence_agree": _e(True, "dense oracle"),
        "parity_ok": _e(True, "hand computation"),
        "b_equals_c_sum": _e(True, "hand computation"),
        "uv_invertible": _e([True, True, True], "hand computation"),
        "gysin_ok": _e(True, "dense oracle"),
        "t_inverse_ok": _e(True, "dense oracle"),
        "psi_ok": _e(True, "dense oracle"),
        "vaisman": _e("no obstruction found", "dense oracle"),
    }, "ee80af154339998d"),
    ("nil5a_s1", "(0,0,0,12,13+24,0)", 6, 5, {
        "validates": _e("lcs", "definition"),
        "lee_field": _e("E6", "hand computation"),
        "anti_lee_field": _e("E5", "hand computation"),
        "betti": _e([1, 4, 7, 8, 7, 4, 1], "hand computation"),
        "basic_betti": _e([1, 3, 4, 4, 3, 1, 0], "hand computation"),
        "lefschetz_de_rham": _e([True, False, False], "dense oracle"),
        "lefschetz_basic": _e([True, False, False], "dense oracle"),
        "lefschetz_contact": _e([True, False, False], "dense oracle"),
        "equivalence_agree": _e(True, "dense oracle"),
        "parity_ok": _e(False, "hand computation"),
        "b_equals_c_sum": _e(True, "hand computation"),
        "uv_invertible": _e([True, False, True], "hand computation"),
        "gysin_ok": _e(True, "dense oracle"),
        "vaisman": _e("obstruction found", "dense oracle"),
    }, "f02022fd3d055086"),
    ("nil5b_s1", "(0,0,12,13,14+23,0)", 6, 5, {
        "validates": _e("lcs", "definition"),
        "lee_field": _e("E6", "hand computation"),
        "anti_lee_field": _e("E5", "hand computation"),
        "betti": _e([1, 3, 5, 6, 5, 3, 1], "hand computation"),
        "basic_betti": _e([1, 2, 3, 3, 2, 1, 0], "hand computation"),
        "lefschetz_de_rham": _e([True, False, False], "dense oracle"),
        "lefschetz_basic": _e([True, False, False], "dense oracle"),
        "lefschetz_contact": _e([True, False, False], "dense oracle"),
        "equivalence_agree": _e(True, "dense oracle"),
        "parity_ok": _e(True, "hand computation"),
        "b_equals_c_sum": _e(True, "hand computation"),
        "uv_invertible": _e([True, False, True], "hand computation"),
        "gysin_ok": _e(True, "dense oracle"),
        "vaisman": _e("obstruction found", "dense oracle"),
    }, "684cbb5fb386d3bf"),
    ("abelian4", "(0,0,0,0)", 4, 3,
     {"validates": _e("RankDefect", "definition")}, "726c3a0fc8107f6b"),
    ("kt4_lee_not_closed", "(0,0,12,0)", 3, 4,
     {"validates": _e("NotClosed", "definition")}, "41fb500b3f8d9f60"),
    ("h3_not_contact", "(0,0,12)", None, 1,
     {"validates": _e("NotVolume", "definition")}, "a64c41e2c6664412"),
    ("rank_defect_6d", "(0,0,12,0,0,0)", 4, 3,
     {"validates": _e("RankDefect", "hand computation")}, "a55a40cd567ebdce"),
)

ENTRY_NAMES = tuple(spec[0] for spec in _TABLE)


def builtin_entries(names=None) -> tuple[CatalogEntry, ...]:
    """The shipped regression corpus in table order, or its entries of the
    given names only."""
    return tuple(_entry(*spec) for spec in _TABLE
                 if names is None or spec[0] in names)


def _each(check, struct, degrees) -> list | None:
    """[check(struct, k) for k in degrees], or None when one raises a
    HardLefError."""
    try:
        return [check(struct, k) for k in degrees]
    except HardLefError:
        return None


def run_entry(entry: CatalogEntry) -> dict:
    """Compute the actual value of every check the entry expects."""
    actual: dict = {}
    struct = None
    contact = None
    try:
        if entry.kind == "lcs":
            struct = validate_lcs(entry.model, entry.omega, entry.eta)
            actual["validates"] = "lcs"
        elif entry.kind == "contact":
            contact = validate_contact(entry.model, entry.eta)
            actual["validates"] = "contact"
        else:
            actual["validates"] = "model"
    except ValidationError as exc:
        # NotClosedError is recorded as "NotClosed"
        actual["validates"] = type(exc).__name__.removesuffix("Error")
        return actual

    model = entry.model
    checks: dict = {}
    if struct is not None:
        n = struct.n
        # both reports are memoized per model by the Lefschetz layer
        equivalence = _lef.lefschetz_equivalence_report
        parity = _lef.betti_parity_check

        def verdicts(picture):
            return lambda: [getattr(v, picture)
                            for v in equivalence(struct).per_degree]

        def psi_ok():
            psi = _each(_lef.pairing_psi, struct, range(1, n + 1))
            return psi is not None and all(r.parity_ok and r.nondegenerate
                                           for r in psi)

        checks.update({
            "lee_field": lambda: str(struct.U),
            "anti_lee_field": lambda: str(struct.V),
            "lefschetz_de_rham": verdicts("de_rham"),
            "lefschetz_basic": verdicts("basic"),
            "lefschetz_contact": verdicts("contact"),
            "equivalence_agree": lambda: equivalence(struct).agree,
            "parity_ok": lambda: parity(struct).parity_ok,
            "b_equals_c_sum": lambda: parity(struct).sum_identity_ok,
            "uv_invertible": lambda: [
                _lef.uv_basic_lefschetz(struct, k).invertible
                for k in range(n + 1)],
            "gysin_ok": lambda: _lef.gysin_sequence_check(struct).ok,
            "t_inverse_ok": lambda: _each(_lef.t_map, struct,
                                          range(n + 1)) is not None,
            "psi_ok": psi_ok,
            "vaisman": lambda: vaisman_candidate_report(struct).verdict,
        })
    if contact is not None:
        checks["reeb_field"] = lambda: str(contact.xi)
        checks["lefschetz_contact"] = lambda: [
            _lef.is_graph_of_isomorphism(
                _lef.contact_lefschetz_relation(contact, k)
            ).is_graph_of_isomorphism
            for k in range(contact.n + 1)]
    # the Betti numbers last, where they read the spaces the relations built
    checks["betti"] = lambda: list(_lef.betti_numbers(_lef._full(model)))
    if struct is not None:
        checks["basic_betti"] = lambda: list(
            _lef.betti_numbers(_lef._basic(model, (struct.U,))))
    # in table order, and only what the entry expects
    for key, check in checks.items():
        if key in entry.expected:
            actual[key] = check()
    return actual


def run_suite(entries=None) -> dict:
    """Compare expected with actual over the catalog; returns the report."""
    if entries is None:
        entries = builtin_entries()
    results = []
    all_ok = True
    for entry in entries:
        actual = run_entry(entry)
        diffs = []
        for key, spec in entry.expected.items():
            got = actual.get(key)
            if got != spec["value"]:
                diffs.append({"check": key, "expected": spec["value"],
                              "actual": got, "source": spec["source"]})
        flags_ok = (entry.model.is_nilpotent == entry.nilpotent
                    and entry.model.is_unimodular == entry.unimodular)
        if not flags_ok:
            diffs.append({"check": "model_flags",
                          "expected": [entry.nilpotent, entry.unimodular],
                          "actual": [entry.model.is_nilpotent,
                                     entry.model.is_unimodular],
                          "source": "definition"})
        fp = entry_fingerprint(entry.expected)
        if entry.fingerprint and fp != entry.fingerprint:
            diffs.append({"check": "fingerprint",
                          "expected": entry.fingerprint, "actual": fp,
                          "source": "frozen"})
        ok = not diffs
        all_ok = all_ok and ok
        results.append({"name": entry.name, "kind": entry.kind,
                        "structure": entry.model.structure_string(),
                        "ok": ok, "checks": sorted(entry.expected),
                        "diffs": diffs})
    return {"ok": all_ok, "entries": results}
