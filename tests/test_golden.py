"""Canonical JSON and text reports of the CLI against frozen digests; any
change to a verdict, a representative or the report layout shows up here.
TEXT_GOLDEN holds the digest of stdout for each report command in GOLDEN,
so the text view is pinned as well as the JSON one.

h7s1 (h7 x S1, dimension 8) and nil5a_rebased0_s1 (dense rational
coefficients) are the bench workload models written by
`bench/workloads.generate` at seed 0.  su2s1 (su(2) x R, the Hopf surface
S^3 x S^1) is the one non-nilpotent model file: it guards the nilpotency
and unimodularity flags ("nilpotent: no, unimodular: yes") in the report.

`validate` and `export` print the model's text: the structure string, the
differentials, Omega, the Lee, anti-Lee and Reeb fields; their digests
cover that text on every model file and every catalog entry.  `export`
has no --json, so its digest is of the file --out writes."""

import hashlib
from pathlib import Path

import pytest

from hardlef import cli
from hardlef.catalog import builtin_entries

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
    ("validate", "h5.model"):
        "a84d07a178fcbad874ab4958fd199788e17b6cef15b925f2b38e5dc17ce91c9e",
    ("validate", "h5s1.model"):
        "8eed42b304b1f1a037ea54a1def69bc56239e5300fa30246f6ff52f8a90313a8",
    ("validate", "h7s1.model"):
        "ada0b7d281b9a1e9c952003701d18f9c857750452d86991acc6efe3936a48153",
    ("validate", "kt4.model"):
        "55f00ac7749df2e8d0633cf7860a6a7cb9534e161c9363cfd68fd4709c8b5060",
    ("validate", "nil5a_rebased0_s1.model"):
        "e919fda612e534afe7e4ba88efe0941cfae1adb60d77ec14d06ebde86f6f5e38",
    ("validate", "su2s1.model"):
        "53aada9a2acbc14624ef2b57a07724e641dee29cacbc2a422cbeb41779da002e",
    ("export", "h3"):
        "7eb85e5e1c91e248290205c8f2385746b3397f110982296ef61d682e8489e56a",
    ("export", "h3", "--format", "json"):
        "b7064d2bbd563b91c9d4f257b163533c6f1dbec96bb891c9339e02082af38818",
    ("export", "h5"):
        "fb46820566744e6870bb615ce5b285b15453f45ecb60d3d9c99f2fa6d7b3440a",
    ("export", "h5", "--format", "json"):
        "5c5d2a8151d584a3f73a68913bf2719e399ad169d76f2d13e5591b35fddb1f6f",
    ("export", "nil5a"):
        "91635f20bd8562a960201dbfff3b3e049a46c90da89640da1601735f161fd4b1",
    ("export", "nil5a", "--format", "json"):
        "a99a92535543db2cc7c43224023a9df10e5ae12b689303cbb181ac9afd8b98e5",
    ("export", "nil5b"):
        "d61c21779019c467c73cbd3a6246867ea89c9d9342957eb270b21fc830172ed4",
    ("export", "nil5b", "--format", "json"):
        "efa4fee7653146a2a865a6f71f45a0a6759ac5d4e6020c57df520d328b51da5b",
    ("export", "kt4"):
        "cf86bb2f22226b3f8f1276f1210e48ad3f147b03f12da0d71df93d8b28d0f9d2",
    ("export", "kt4", "--format", "json"):
        "8dadfc9276721c0d9c63c82fe996fe986c1a976fb230a072053948f2ee7aa2be",
    ("export", "h5s1"):
        "3f89d483bd4da265886a4e3e19d9deee47931056ef9368daa427d1468f51733e",
    ("export", "h5s1", "--format", "json"):
        "d876e91889b2710deef38230ab07b9c0264668c33b6e5bf40a695b0aef20dd77",
    ("export", "nil5a_s1"):
        "38b5f2fbe14e6851564ab604dc74611be1107a0d8cf6683c4c5b2958ebc43075",
    ("export", "nil5a_s1", "--format", "json"):
        "7f07a0135ef7ca51661758ace286a873f1aec934a29441e98fdb461b49df5c3d",
    ("export", "nil5b_s1"):
        "267695151a577aa462f042de0d401922034ac8bc901d58d03cc5737d2edc8008",
    ("export", "nil5b_s1", "--format", "json"):
        "78d147beb3ad949ad815938cc98254ce9208348bdd00a1a1670d395d848f4725",
    ("export", "abelian4"):
        "9b9b4744ca1853f4ee2dae213a5fe10e2c25f72a7480ed16b71bdc296e0f1f1d",
    ("export", "abelian4", "--format", "json"):
        "04896bf362a504dfb7c67c0f3f787f01279d99e980687a3bd6e122fe931bf62c",
    ("export", "kt4_lee_not_closed"):
        "9680994405776e1b79bfbaa0c34ca50c9a6e3a65dfb5edcacff6c5c8f340fef3",
    ("export", "kt4_lee_not_closed", "--format", "json"):
        "485e5d3218572ad4cada9f7815940681dc08d8557659a12d2c52c69b15948780",
    ("export", "h3_not_contact"):
        "300f286d56eaf543e6f34e30b6e12e11327894996c35ddf5383167571f5fca6d",
    ("export", "h3_not_contact", "--format", "json"):
        "7d33970ab40f6747bd8329534113164d017ca5a2d0f2b62223ff4e59de9eafdf",
    ("export", "rank_defect_6d"):
        "d155f3880d82d52d6b7ddd03eaaeac2f1575bee810bf98e1260dc6a5ce7bfb1c",
    ("export", "rank_defect_6d", "--format", "json"):
        "3dc98dea0d1e8a3f9c4620865dafec0b214cb0ddafe39ec44fe045b9f1857564",
}

# stdout of every report command above, run without --json
TEXT_GOLDEN = {
    ("cohomology", "h5s1.model", "--basic", "U"):
        "bdfa327102d94a2ece3f565737bbc67bc8ccdfcfbf6a070ec0bf5853988b182f",
    ("cohomology", "h7s1.model", "--basic", "U"):
        "cd0083933ae8ccb3b724a6c1b067b668cf2be787ffb413ac3d59a236d2bc1b4e",
    ("cohomology", "kt4.model", "--basic", "U"):
        "3263ce724e7968501fbbb868e54171d3f969f92e6c7d7e9f4518a64498b0509d",
    ("cohomology", "nil5a_rebased0_s1.model", "--basic", "U"):
        "c85c15baf7c7eb8703b2b5412f3e2bb3ca704218f4738ca2bc444a31e2ff4039",
    ("cohomology", "su2s1.model", "--basic", "U"):
        "e0ff5436495cb188b2b55b6a0939209efd760b6f0cc079d90361a66c87f2c901",
    ("lefschetz", "h5.model", "--mode", "all"):
        "e5f773a6daf9186f6c22465bb7b881d557b7bd5968bb5812e34248709f082bd3",
    ("lefschetz", "h5s1.model", "--mode", "all"):
        "7a59a991dd0b96d49205e62813b5b84b7bf3ada37bb6a138279e535876ae846b",
    ("lefschetz", "h7s1.model", "--mode", "all"):
        "459bce8bd91847ae0da242691efd8bdc444f40c2f08a6e9fc5f270469fdc67aa",
    ("lefschetz", "kt4.model", "--mode", "all"):
        "a47e3c1e7f5594b206783faa81d044815c64a5edbdce64264d80a5fbd2428ea7",
    ("lefschetz", "nil5a_rebased0_s1.model", "--mode", "all"):
        "db9e6a0b23195252dc31a770b5de0b49c16ed45aa133153adaabc34c1cba9ba5",
    ("lefschetz", "su2s1.model", "--mode", "all"):
        "d5c7def9f42cc88bf07b4babf86983670a263457229794058837cca0c8e1fe29",
    ("suite",):
        "27dc99c61adb036ec46a62dda6c703322acff838575f999811b409cc73fb8b9e",
    ("validate", "h5.model"):
        "a863e0655d7e82fe585d58e75d6c6c783a59cc45a97e7093c4c42210a8a95397",
    ("validate", "h5s1.model"):
        "835a502d1905537e22464cc984ea6b4aad182e71d9d748518ed3331a27d6a913",
    ("validate", "h7s1.model"):
        "0a162f03760d43daef414a75b089ee7626f9cbfc1ed3f5fb312bda0303ccef85",
    ("validate", "kt4.model"):
        "00f5e951e59bcfb195ad1ee0b49532dbe527879d42ab5289babf81f03485f098",
    ("validate", "nil5a_rebased0_s1.model"):
        "64c178f1f74855a7c50f8dcaf43c450c41c25cda1969a92691b5aee2a6c62e98",
    ("validate", "su2s1.model"):
        "e8170430274e394d2342b909acaeae6de2c5e936b7b9750e0754e50a17a3a782",
}


def test_golden_covers_every_model_file():
    lcs = {p.name for p in MODELS.glob("*.model")
           if "omega" in p.read_text()}
    assert {a[1] for a in GOLDEN if a[0] == "cohomology"} == lcs
    for command in ("lefschetz", "validate"):
        assert {a[1] for a in GOLDEN if a[0] == command} == \
            {p.name for p in MODELS.glob("*.model")}
    assert {a for a in GOLDEN if a[0] == "export"} == \
        {("export", e.name) + fmt for e in builtin_entries()
         for fmt in ((), ("--format", "json"))}
    assert set(TEXT_GOLDEN) == {a for a in GOLDEN if a[0] != "export"}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_canonical_json_digest(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    args = [str(MODELS / a) if a.endswith(".model") else a for a in argv]
    flag = "--out" if argv[0] == "export" else "--json"
    assert cli.main(args + [flag, str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(TEXT_GOLDEN), ids=" ".join)
def test_text_report_digest(argv, capsys):
    args = [str(MODELS / a) if a.endswith(".model") else a for a in argv]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_GOLDEN[argv]
