import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hardlef import (Form, StructureModel, Vector, linalg, modelfile,
                     validate_lcs)
from hardlef.catalog import builtin_entries
from hardlef.exterior import degree_masks, indices_of

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


# ----- hypothesis strategies ------------------------------------------------

# 0 and +-1 take the unit fast paths of the kernels, the rest the general ones
COEFFS = st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2),
                          Fraction(2, 3), 3])
NONZERO = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-3, 2), 3])

# nilpotent, solvable and simple (su(2)) algebras
RATIONAL_POOL = ["(0,12)", "(12,0)", "(23,-13,12)", "(0,0,12,0)",
                 "(0,0,1/2*12,13)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)",
                 "(0,0,0,0,12+34,0)"]


def rebase(model, p, name=""):
    """The model in the generators f_i = sum_j p[i][j] e_j, p invertible."""
    n = model.n_gen
    q = linalg.inverse(p)
    # e_j = sum_k q[j][k] f_k
    e = [Form(n, 1, {1 << k: q[j][k] for k in range(n)}) for j in range(n)]

    def in_f(form):
        out = Form.zero(n, 2)
        for mask, c in form.terms.items():
            a, b = indices_of(mask)
            out = out + c * e[a - 1].wedge(e[b - 1])
        return out

    images = [in_f(f) for f in model.d1]
    diffs = []
    for i in range(n):
        out = Form.zero(n, 2)
        for j in range(n):
            if p[i][j]:
                out = out + p[i][j] * images[j]
        diffs.append(out)
    return StructureModel(diffs, name=name)


@st.composite
def rational_models(draw):
    """A pool algebra under a random rational triangular change of basis
    whose entries mix 0, +-1 and other rationals; named by the pool entry."""
    structure = draw(st.sampled_from(RATIONAL_POOL))
    base = StructureModel.from_salamon(structure)
    n = base.n_gen
    p = [[draw(NONZERO) if i == j else draw(COEFFS) if j > i else 0
          for j in range(n)] for i in range(n)]
    return rebase(base, p, structure)


def vectors(n_gen):
    return st.lists(COEFFS, min_size=n_gen, max_size=n_gen).map(Vector)


@st.composite
def forms(draw, n_gen, degree=None):
    if degree is None:
        degree = draw(st.integers(0, n_gen))
    masks = degree_masks(n_gen, degree)
    terms = draw(st.dictionaries(st.sampled_from(masks), COEFFS,
                                 max_size=4))
    return Form(n_gen, degree, terms)


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
    """Each l.c.s. structure of the corpus in turn, on a fresh model, so
    that no test reads what another left in the model's memo."""
    model, omega, eta = LCS_CORPUS[request.param]
    return validate_lcs(StructureModel(model.d1, model.name), omega, eta)
