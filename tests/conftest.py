import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hardlef import Form, StructureModel, Vector, modelfile, validate_lcs
from hardlef.catalog import builtin_entries

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


MODEL_POOL = {
    3: ["(0,0,12)", "(0,0,0)"],
    4: ["(0,0,12,0)", "(0,0,0,0)", "(0,0,12,13)"],
    5: ["(0,0,0,0,12+34)", "(0,0,0,12,13+24)", "(0,0,12,13,14+23)"],
    6: ["(0,0,0,0,12+34,0)", "(0,0,12,13,14+23,0)", "(0,0,12,0,0,0)"],
}


def random_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def random_form(rng, n_gen, degree, max_terms=3):
    masks = list(combinations(range(1, n_gen + 1), degree))
    if not masks:
        return Form.zero(n_gen, degree)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        idx = rng.choice(masks)
        terms[idx] = random_fraction(rng)
    out = Form.zero(n_gen, degree)
    for idx, coeff in terms.items():
        out = out + Form.monomial(n_gen, idx, coeff)
    return out


def random_vector(rng, n_gen):
    return Vector([random_fraction(rng, 3) for _ in range(n_gen)])


def random_model(rng):
    n = rng.choice(sorted(MODEL_POOL))
    return StructureModel.from_salamon(rng.choice(MODEL_POOL[n]))


@pytest.fixture
def rng():
    return random.Random(20240817)


def _lcs_corpus():
    """id -> (model, omega, eta) of every l.c.s. file in models/, of the
    catalog entries kt4, h5s1, nil5a_s1 and nil5b_s1, and of su(2) x R."""
    corpus = {}
    for path in sorted(MODELS_DIR.glob("*.model")):
        doc = modelfile.load_path(path)
        if doc.kind == "lcs":
            corpus[f"models/{path.name}"] = (doc.model, doc.omega, doc.eta)
    for entry in builtin_entries():
        if entry.name in ("kt4", "h5s1", "nil5a_s1", "nil5b_s1"):
            corpus[f"catalog:{entry.name}"] = (entry.model, entry.omega,
                                               entry.eta)
    # the invariant model of the Hopf surface S^3 x S^1, the paper's basic
    # compact Vaisman example; its anti-Lee field E3 is not central, so
    # some of its Gysin maps are not certified chain maps
    corpus["su2_s1"] = (StructureModel.from_salamon("(23,-13,12,0)"),
                        Form.generator(4, 4), Form.generator(4, 3))
    return corpus


LCS_CORPUS = _lcs_corpus()


@pytest.fixture(params=sorted(LCS_CORPUS))
def lcs_struct(request):
    """Each l.c.s. structure of the corpus in turn."""
    return validate_lcs(*LCS_CORPUS[request.param])
