"""Canonical JSON of the CLI against frozen digests; any change to a
verdict, a representative or the report layout shows up here.

h7s1 (h7 x S1, dimension 8) and nil5a_rebased0_s1 (dense rational
coefficients) are the bench workload models written by
`bench/workloads.generate` at seed 0.  su2s1 (su(2) x R, the Hopf surface
S^3 x S^1) is the one non-nilpotent model file: it guards the nilpotency
and unimodularity flags ("nilpotent: no, unimodular: yes") in the report."""

import hashlib
from pathlib import Path

import pytest

from hardlef import cli

MODELS = Path(__file__).resolve().parent.parent / "models"

GOLDEN = {
    ("suite",):
        "98dfbb157bba4871d73d4891da7b5064d8b101983694ef1cc8f6bb99c4a02552",
    ("cohomology", "h5s1.model", "--basic", "U"):
        "0d46bd6954939b888d6ce3c29a2438069412eeb4d8d54377c93aec9c3c33d50a",
    ("cohomology", "kt4.model", "--basic", "U"):
        "863128402076985b97aa8b2862cb75647add818a2d516d83597ec2e74933854d",
    ("cohomology", "h7s1.model", "--basic", "U"):
        "6c24d12a4a2fc8a2286be016319388a25ebf1b06a88dca525783145e4aa9db02",
    ("cohomology", "nil5a_rebased0_s1.model", "--basic", "U"):
        "e1c7c30786d4d5b77eb163a92f8e37cd8f91dde05d0561ff49883f9c04434c36",
    ("cohomology", "su2s1.model", "--basic", "U"):
        "f0046e7e8f6ef52a6fe6f1f3d60d6b528e60c5a7bc2f4d7eb496e728a5d9d86e",
    ("lefschetz", "h5.model", "--mode", "all"):
        "c02deafdcf7b03f1e6e59dfb61c068cf82bad835bea9efd82a33c4cc1f0b42c4",
    ("lefschetz", "h5s1.model", "--mode", "all"):
        "2b1a65ecd4dbdfd7e4cec38d8a9f8a400cb280ecae2839f8da7aa253452a9611",
    ("lefschetz", "kt4.model", "--mode", "all"):
        "b5abed905e4159e89b7255a77f1dae21875975b5a34de168d7c6f9bbd178767e",
    ("lefschetz", "h7s1.model", "--mode", "all"):
        "f85dc9811825e7e4de8f98cc4bbf3e7b97223f3691326b170a988e75199fe2f5",
    ("lefschetz", "nil5a_rebased0_s1.model", "--mode", "all"):
        "44b4ac52aaad5bf4bbe82b02c223c641819a00243f5b96c6768b83c7dfeeeef5",
    ("lefschetz", "su2s1.model", "--mode", "all"):
        "b23cdddb84cb876458b7a148c619e675bf87176b64f3b354ff053200f74eb785",
}


def test_golden_covers_every_model_file():
    lcs = {p.name for p in MODELS.glob("*.model")
           if "omega" in p.read_text()}
    assert {a[1] for a in GOLDEN if a[0] == "cohomology"} == lcs
    assert {a[1] for a in GOLDEN if a[0] == "lefschetz"} == \
        {p.name for p in MODELS.glob("*.model")}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_canonical_json_digest(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    args = [str(MODELS / a) if a.endswith(".model") else a for a in argv]
    assert cli.main(args + ["--json", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]
