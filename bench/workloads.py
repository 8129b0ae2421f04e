"""Workloads of the benchmark: seeded inputs, operations and exactness checks.

Importing this module does not import hardlef; only `generate` does, and
it runs inside a fresh worker interpreter.

catalog_suite
    `suite --entry NAME` for each of the 12 built-in catalog entries, plus
    `cohomology --basic U` and `lefschetz --mode all` on the catalog's four
    l.c.s. entries written as model files.  Many small models (dims 3 to 6,
    structure constants +-1): Gysin checks and small class_of solves
    dominate, so per-call overhead and cached factorizations show here;
    large-matrix rref and complex construction do little.
heisenberg_dim8
    `cohomology --basic U`, then `lefschetz --mode all`, on h7 x S1
    (d e7 = e1^e2 + e3^e4 + e5^e6, omega = e8, eta = e7).  Sparse,
    weight-graded data with the largest slices (up to 70 wide) and the
    dim-8 Gysin check.  cohomology does no Lefschetz or Gysin work, so a
    Gysin-only gain leaves cohomology_s unchanged.  Dim 10 is left out:
    building its full complex alone takes over a minute.
rebased_rational
    The contact bases h5, nil5a and nil5b, each under two seeded
    unipotent upper-triangular changes of basis (superdiagonal +-1/2),
    times a circle; `cohomology --basic U` and `lefschetz --mode all` on
    each of the six models.  The same
    layers on dense rational data: non-unit denominators in every
    elimination, a non-monomial anti-Lee field V and no diagonal weight
    grading in the given basis.  Optimisations for sparse data, integer
    arithmetic or weight blocks are bypassed here and must not regress.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

NAMES = ("catalog_suite", "heisenberg_dim8", "rebased_rational")

SUITE_ENTRIES = ("h3", "h5", "nil5a", "nil5b", "kt4", "h5s1", "nil5a_s1",
                 "nil5b_s1", "abelian4", "kt4_lee_not_closed",
                 "h3_not_contact", "rank_defect_6d")
CATALOG_LCS = ("kt4", "h5s1", "nil5a_s1", "nil5b_s1")
REBASED_BASES = (("h5", "(0,0,0,0,12+34)", "h5s1"),
                 ("nil5a", "(0,0,0,12,13+24)", "nil5a_s1"),
                 ("nil5b", "(0,0,12,13,14+23)", "nil5b_s1"))
# The seed whose rebased models the frozen report digests belong to.
DEFAULT_SEED = 0
# The rebasing matrix is I plus a superdiagonal of seeded signs times
# REBASE_ENTRY; its inverse, and so every rebased structure constant, is
# dense with powers of 2 as denominators.  With seeded entry sizes (1/3 to
# 3/2) or positions as well, the time of one model varied from seed to seed
# with a coefficient of variation of 8 to 16 %; with signs alone, 5 to 9 %.
# A pass sums REBASINGS models per base to keep its time steady.
REBASE_ENTRY = Fraction(1, 2)
REBASINGS = 2

_T, _F = True, False
# Betti numbers and verdict vectors of the circle products, as frozen in
# the hardlef catalog (dense oracle and hand computation).  A change of
# basis preserves all of them.
FROZEN = {
    "kt4": {"betti": [1, 3, 4, 3, 1], "basic_betti": [1, 2, 2, 1, 0],
            "de_rham": [_T, _T], "basic": [_T, _T], "contact": [_T, _T],
            "agree": _T, "parity_ok": _T, "gysin_ok": _T,
            "vaisman": "no obstruction found"},
    "h5s1": {"betti": [1, 5, 9, 10, 9, 5, 1],
             "basic_betti": [1, 4, 5, 5, 4, 1, 0],
             "de_rham": [_T, _T, _T], "basic": [_T, _T, _T],
             "contact": [_T, _T, _T], "agree": _T, "parity_ok": _T,
             "gysin_ok": _T, "vaisman": "no obstruction found"},
    "nil5a_s1": {"betti": [1, 4, 7, 8, 7, 4, 1],
                 "basic_betti": [1, 3, 4, 4, 3, 1, 0],
                 "de_rham": [_T, _F, _F], "basic": [_T, _F, _F],
                 "contact": [_T, _F, _F], "agree": _T, "parity_ok": _F,
                 "gysin_ok": _T, "vaisman": "obstruction found"},
    "nil5b_s1": {"betti": [1, 3, 5, 6, 5, 3, 1],
                 "basic_betti": [1, 2, 3, 3, 2, 1, 0],
                 "de_rham": [_T, _F, _F], "basic": [_T, _F, _F],
                 "contact": [_T, _F, _F], "agree": _T, "parity_ok": _T,
                 "gysin_ok": _T, "vaisman": "obstruction found"},
}

# First 16 hex digits of the sha256 of each canonical report JSON, frozen
# at the commit that added the benchmark (rebased_rational: DEFAULT_SEED).
DIGESTS = {
    "catalog_suite": {
        "cohomology:h5s1": "0d46bd6954939b88",
        "cohomology:kt4": "863128402076985b",
        "cohomology:nil5a_s1": "d025a537e9a252c2",
        "cohomology:nil5b_s1": "df9d6088451a4eb5",
        "lefschetz:h5s1": "2b1a65ecd4dbdfd7",
        "lefschetz:kt4": "b5abed905e4159e8",
        "lefschetz:nil5a_s1": "e96ba131b1b7bee1",
        "lefschetz:nil5b_s1": "12d64b492b8894c5",
        "suite:abelian4": "1b6b2a59c0bfe8fe",
        "suite:h3": "2aa0977a0b9ad7e6",
        "suite:h3_not_contact": "19cdc21891133854",
        "suite:h5": "bf8764aba105ecd8",
        "suite:h5s1": "f58a5855133cd3a1",
        "suite:kt4": "3d4b0124efc2e84a",
        "suite:kt4_lee_not_closed": "1168e5399b92ee85",
        "suite:nil5a": "7c5aff8b32655d81",
        "suite:nil5a_s1": "7547d1427c9a7191",
        "suite:nil5b": "e5539a9be6447b1b",
        "suite:nil5b_s1": "9406439fa87de955",
        "suite:rank_defect_6d": "36cb37739fd0cffe",
    },
    "heisenberg_dim8": {
        "cohomology:h7s1": "6c24d12a4a2fc8a2",
        "lefschetz:h7s1": "f85dc9811825e7e4",
    },
    "rebased_rational": {
        "cohomology:h5_rebased0_s1": "46d49215eb07d94d",
        "cohomology:h5_rebased1_s1": "749c28eb3044d03c",
        "cohomology:nil5a_rebased0_s1": "e1c7c30786d4d5b7",
        "cohomology:nil5a_rebased1_s1": "f122905bea2d4911",
        "cohomology:nil5b_rebased0_s1": "60d8a4408a3ec3f2",
        "cohomology:nil5b_rebased1_s1": "5507dd66d215a9a9",
        "lefschetz:h5_rebased0_s1": "3ae3289904892b90",
        "lefschetz:h5_rebased1_s1": "c31bbe3ec226bc8f",
        "lefschetz:nil5a_rebased0_s1": "44b4ac52aaad5bf4",
        "lefschetz:nil5a_rebased1_s1": "ae1b5798f6e804e7",
        "lefschetz:nil5b_rebased0_s1": "bb13b93a0c80830d",
        "lefschetz:nil5b_rebased1_s1": "4e698ec880db55cd",
    },
}


@dataclass
class Op:
    """One CLI invocation and what its report must say."""

    label: str
    command: str          # suite | cohomology | lefschetz
    argv: list
    expect: dict = field(default_factory=dict)
    digest: str | None = None
    repeat: int = 1       # cold runs per untraced pass


def heisenberg_betti(m: int) -> list[int]:
    """Betti numbers of h_(2m+1): C(2m,k) - C(2m,k-2) up to m, then
    Poincare duality."""
    low = [comb(2 * m, k) - (comb(2 * m, k - 2) if k >= 2 else 0)
           for k in range(m + 1)]
    return low + low[::-1]


def heisenberg_circle_expect(m: int) -> dict:
    """Expected facts for h_(2m+1) x S1 (Kunneth with S1; every Lefschetz
    check passes, as for every Heisenberg circle product)."""
    base = heisenberg_betti(m)
    betti = [(base[k] if k < len(base) else 0) + (base[k - 1] if k else 0)
             for k in range(len(base) + 1)]
    verdicts = [True] * (m + 1)
    return {"betti": betti, "basic_betti": base + [0], "de_rham": verdicts,
            "basic": verdicts, "contact": verdicts, "agree": True,
            "parity_ok": True, "gysin_ok": True,
            "vaisman": "no obstruction found"}


def _model_ops(label: str, path: str, expect: dict, out_dir: str,
               digests: dict, cohomology_repeat: int) -> list[Op]:
    coh = {k: expect[k] for k in ("betti", "basic_betti")}
    coh["b_equals_c_sum"] = True
    lef = expect
    ops = []
    for command, extra, want, repeat in (
            ("cohomology", ["--basic", "U"], coh, cohomology_repeat),
            ("lefschetz", ["--mode", "all"], lef, 1)):
        op_label = f"{command}:{label}"
        ops.append(Op(op_label, command,
                      [command, path, *extra, "--json",
                       os.path.join(out_dir, op_label.replace(":", "-")
                                    + ".json")],
                      want, digests.get(op_label), repeat))
    return ops


def model_files(workload: str) -> list[tuple[str, str, dict]]:
    """(label, file name, expected facts) of every generated model file."""
    if workload == "catalog_suite":
        return [(name, f"{name}.model", FROZEN[name]) for name in CATALOG_LCS]
    if workload == "heisenberg_dim8":
        return [("h7s1", "h7s1.model", heisenberg_circle_expect(3))]
    if workload == "rebased_rational":
        return [(f"{base}_rebased{r}_s1", f"{base}_rebased{r}_s1.model",
                 FROZEN[frozen]) for base, _, frozen in REBASED_BASES
                for r in range(REBASINGS)]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int, model_dir: str,
               out_dir: str) -> list[Op]:
    """The operations of one pass, in order."""
    digests = DIGESTS.get(workload, {})
    if workload == "rebased_rational" and seed != DEFAULT_SEED:
        digests = {}
    ops = []
    if workload == "catalog_suite":
        for name in SUITE_ENTRIES:
            label = f"suite:{name}"
            ops.append(Op(label, "suite",
                          ["suite", "--entry", name, "--json",
                           os.path.join(out_dir, f"suite-{name}.json")],
                          {"ok": True}, digests.get(label)))
    # heisenberg_dim8 fits one pass in a run; three cold samples of its
    # short cohomology operation keep cohomology_s from resting on one.
    repeat = 3 if workload == "heisenberg_dim8" else 1
    for label, fname, expect in model_files(workload):
        ops += _model_ops(label, os.path.join(model_dir, fname), expect,
                          out_dir, digests, repeat)
    return ops


# ----- generation (runs in a worker, with hardlef importable) -------------


def _rebased_contact(base: str, structure: str, rng: random.Random):
    """The contact base in the coframe theta = P e, P unipotent upper
    triangular with a superdiagonal of +-REBASE_ENTRY."""
    from hardlef import linalg
    from hardlef.exterior import Form
    from hardlef.model import StructureModel
    from hardlef.structures import validate_contact

    old = StructureModel.from_salamon(structure, name=base)
    n = old.n_gen
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        p[i][i + 1] = rng.choice((1, -1)) * REBASE_ENTRY
    q = linalg.inverse(p)
    # e_j written in the new coframe: e = Q theta
    e_new = [Form(n, 1, {1 << k: q[j][k] for k in range(n)})
             for j in range(n)]

    def substitute(form):
        acc = Form.zero(n, form.degree)
        for mask, c in form.terms.items():
            term = Form.constant(n, c)
            for j in range(n):
                if mask >> j & 1:
                    term = term.wedge(e_new[j])
            acc = acc + term
        return acc

    old_d = [substitute(f) for f in old.d1]
    diffs = []
    for i in range(n):
        acc = Form.zero(n, 2)
        for j in range(n):
            if p[i][j]:
                acc = acc + p[i][j] * old_d[j]
        diffs.append(acc)
    model = StructureModel(diffs, name=f"{base}_rebased")
    eta = substitute(Form.generator(n, n))
    return validate_contact(model, eta)


def generate(workload: str, seed: int, model_dir: str) -> list[str]:
    """Write the workload's model files with modelfile.serialize; returns
    the paths.  The same seed gives byte-identical files."""
    from hardlef import catalog, modelfile
    from hardlef.exterior import Form
    from hardlef.model import StructureModel
    from hardlef.structures import product_with_circle

    docs = []
    if workload == "catalog_suite":
        entries = {e.name: e for e in catalog.builtin_entries()}
        for name in CATALOG_LCS:
            e = entries[name]
            docs.append((e.model, e.omega, e.eta))
    elif workload == "heisenberg_dim8":
        n = 8
        d7 = Form(n, 2, {0b11: 1, 0b1100: 1, 0b110000: 1})
        diffs = [Form.zero(n, 2)] * 6 + [d7, Form.zero(n, 2)]
        docs.append((StructureModel(diffs, name="h7s1"),
                     Form.generator(n, 8), Form.generator(n, 7)))
    elif workload == "rebased_rational":
        rng = random.Random(f"rebased_rational:{seed}")
        for base, structure, _ in REBASED_BASES:
            for r in range(REBASINGS):
                lcs = product_with_circle(
                    _rebased_contact(base, structure, rng))
                model = StructureModel(lcs.model.d1,
                                       name=f"{base}_rebased{r}_s1")
                docs.append((model, lcs.omega, lcs.eta))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    paths = []
    for (model, omega, eta), (_, fname, _) in zip(
            docs, model_files(workload)):
        names = tuple(f"e{i}" for i in range(1, model.n_gen + 1))
        text = modelfile.serialize(
            modelfile.ModelDocument(model, omega, eta, names))
        path = os.path.join(model_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


# ----- exactness gate -------------------------------------------------------


def _verdicts(results: dict, key: str) -> list:
    return [v["graph_of_isomorphism"] for v in results[key]["verdicts"]]


def facts(command: str, doc: dict) -> dict:
    """The checked facts of a report document."""
    r = doc["results"]
    if command == "suite":
        return {"ok": r["ok"] and all(e["ok"] for e in r["entries"])}
    if command == "cohomology":
        return {"betti": r["betti"], "basic_betti": r["basic_betti"],
                "b_equals_c_sum": r["b_equals_c_sum"]}
    return {"betti": r["parity"]["betti"],
            "basic_betti": r["parity"]["basic_betti"],
            "de_rham": _verdicts(r, "de_rham"),
            "basic": _verdicts(r, "basic"),
            "contact": _verdicts(r, "contact"),
            "agree": r["equivalence"]["agree"],
            "parity_ok": r["parity"]["parity_ok"],
            "gysin_ok": r["gysin"]["ok"],
            "vaisman": r["vaisman"]["verdict"]}


def check(op: Op, returncode: int) -> list[str]:
    """Reasons the operation's output is wrong; empty when exact."""
    if returncode != 0:
        return [f"{op.label}: exit code {returncode}"]
    path = op.argv[op.argv.index("--json") + 1]
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        got = facts(op.command, json.loads(raw))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{op.label}: unreadable report ({exc!r})"]
    problems = [f"{op.label}: {key} is {got.get(key)!r}, expected {want!r}"
                for key, want in op.expect.items() if got.get(key) != want]
    if op.digest is not None:
        digest = hashlib.sha256(raw).hexdigest()[:16]
        if digest != op.digest:
            problems.append(f"{op.label}: report sha256 {digest} differs "
                            f"from the frozen {op.digest}")
    return problems
