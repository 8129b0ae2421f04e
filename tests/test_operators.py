"""Operator values against the dense oracle, and the allocations they
spare: representatives on first read, the full complex's D by index."""

from pathlib import Path
from types import SimpleNamespace

from hardlef import Form, StructureModel, cli, lefschetz as lef, validate_lcs
from hardlef.cohomology import _combine, full_complex
from hardlef.errors import NotProjectableError
from hardlef.exterior import Contraction, Inclusion, Wedge, degree_masks
from hardlef.model import Differential, LieDerivative

import oracle

MODELS = Path(__file__).resolve().parent.parent / "models"


def _oracle_form(terms):
    """A terms dict {mask: coefficient} as an oracle form."""
    return oracle.form_of(SimpleNamespace(terms=terms))


def _recorded_relation_operators(monkeypatch, struct):
    """[(model, [(operator value, oracle map)])] of every Lefschetz
    relation of struct and of its Lee quotient, as the builders hand them
    to _cycle_relation, each paired with the unmultiplied formula: the
    conditions one by one and the target as one sum."""
    recorded = []
    cycle_relation = lef._cycle_relation

    def recording(cplx, k, b, conditions, targets, label):
        recorded.append((label, cplx.model, k, conditions, targets))
        return cycle_relation(cplx, k, b, conditions, targets, label)

    monkeypatch.setattr(lef, "_cycle_relation", recording)
    try:
        contact = lef._quotient(struct)
    except NotProjectableError:
        contact = None
    for k in range(struct.n + 1):
        lef.de_rham_lefschetz_relation(struct, k)
        lef.basic_lefschetz_relation(struct, k)
        if contact is not None:
            lef.contact_lefschetz_relation(contact, k)
    monkeypatch.undo()
    out = []
    for label, model, k, conditions, targets in recorded:
        picture = struct if model is struct.model else contact
        d1 = oracle.model_of(model)
        n = picture.n
        eta = oracle.form_of(picture.eta)
        deta = oracle.dform(d1, eta)

        def lef_pow(p, f, deta=deta):
            return oracle.wedge(oracle.wedge_pow(deta, p), f)

        field = {"contact relation target": contact and contact.xi,
                 "basic relation target": struct.V}.get(label)
        if field is not None:
            xi = list(field.coeffs)
            expected = [lambda f, xi=xi: oracle.icontract(xi, f),
                        lambda f, k=k, p=lef_pow: p(n - k + 1, f)]
            target = (lambda f, k=k, p=lef_pow, eta=eta:
                      oracle.wedge(eta, p(n - k, f)))
        else:
            u, v = list(struct.U.coeffs), list(struct.V.coeffs)
            omega = oracle.form_of(struct.omega)
            expected = [
                lambda f, d1=d1, u=u: oracle.lie(d1, u, f),
                lambda f, v=v: oracle.icontract(v, f),
                lambda f, k=k, p=lef_pow: p(n - k + 2, f),
                lambda f, k=k, p=lef_pow, omega=omega:
                    p(n - k + 1, oracle.wedge(omega, f))]

            def target(f, k=k, p=lef_pow, eta=eta, deta=deta, u=u,
                       omega=omega):
                inner = oracle.sub(oracle.wedge(deta, oracle.icontract(u, f)),
                                   oracle.wedge(omega, f))
                return oracle.wedge(eta, p(n - k, inner))
        assert len(conditions) == len(expected)
        pairs = list(zip(conditions, expected))
        pairs.append((lambda terms, targets=targets: _sum_of(targets, terms),
                      target))
        out.append((model, pairs))
    return out


def _sum_of(operators, terms):
    out = {}
    for op in operators:
        for m, c in op(terms).items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _fixed_operators(struct):
    """(operator value, oracle map) of every other kind the engine uses:
    the powers of d eta, omega, eta, i_U, i_V, L_U, L_V (which the basic
    complexes impose), inclusion and d."""
    model = struct.model
    d1 = oracle.model_of(model)
    u, v = list(struct.U.coeffs), list(struct.V.coeffs)
    omega, eta = oracle.form_of(struct.omega), oracle.form_of(struct.eta)
    deta = oracle.dform(d1, eta)
    pairs = [(Wedge(power), lambda f, p=p: oracle.wedge(
                 oracle.wedge_pow(deta, p), f))
             for p, power in enumerate(lef._deta_powers(struct))]
    return pairs + [
        (Wedge(struct.omega), lambda f: oracle.wedge(omega, f)),
        (Wedge(struct.eta), lambda f: oracle.wedge(eta, f)),
        (Contraction(struct.U), lambda f: oracle.icontract(u, f)),
        (Contraction(struct.V), lambda f: oracle.icontract(v, f)),
        (LieDerivative(model, struct.U), lambda f: oracle.lie(d1, u, f)),
        # U is central in the corpus; V is not on su(2) x S1
        (LieDerivative(model, struct.V), lambda f: oracle.lie(d1, v, f)),
        (Inclusion(), lambda f: f),
        (Differential(model), lambda f: oracle.dform(d1, f)),
    ]


def test_operator_values_match_the_oracle_on_every_monomial(monkeypatch,
                                                            lcs_struct):
    """Every operator value the relations and the flow maps apply, the
    products multiplied out once included, equals its formula in the
    dense oracle on every monomial of every degree."""
    groups = _recorded_relation_operators(monkeypatch, lcs_struct)
    groups.append((lcs_struct.model, _fixed_operators(lcs_struct)))
    assert len(groups) >= 2 * (lcs_struct.n + 1) + 1
    for model, pairs in groups:
        n = model.n_gen
        for mask in (m for k in range(n + 1) for m in degree_masks(n, k)):
            form = _oracle_form({mask: 1})
            for op, formula in pairs:
                assert _oracle_form(op({mask: 1})) == formula(form), \
                    (op, mask)


def test_equal_operators_share_one_class_map_family():
    h5s1_struct = validate_lcs(
        StructureModel.from_salamon("(0,0,0,0,12+34,0)", name="h5s1"),
        Form.generator(6, 6), Form.generator(6, 5))
    model = h5s1_struct.model
    full = lef._full(model)
    first = Wedge(model.d(h5s1_struct.eta))
    second = Wedge(lef._deta_powers(h5s1_struct)[1])
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert Wedge(h5s1_struct.eta) != first != Contraction(h5s1_struct.V)
    assert Contraction(h5s1_struct.U) != Contraction(h5s1_struct.V)
    src, dst = full.space(1), full.space(3)
    assert lef._induced_map(src, dst, first, "[L]") is \
        lef._induced_map(src, dst, second, "[L]")
    assert [key for key in model._memo if key[0] == "class maps"] == \
        [("class maps", full, full, first, 2)]
    # the Gysin check builds its operators anew on each call, and finds
    # its six families the second time
    lef.gysin_sequence_check(h5s1_struct)
    families = {key for key in model._memo if key[0] == "class maps"}
    assert len(families) == 7
    assert lef.gysin_sequence_check(h5s1_struct).ok
    assert {key for key in model._memo if key[0] == "class maps"} == families


def _lefschetz_all(monkeypatch, capsys, name):
    seen = []
    validate = cli.validate_lcs
    monkeypatch.setattr(cli, "validate_lcs",
                        lambda *args: seen.append(validate(*args)) or seen[0])
    assert cli.main(["lefschetz", str(MODELS / name), "--mode", "all"]) == 0
    capsys.readouterr()
    return seen[0]


def test_lefschetz_all_builds_no_full_complex_representative(monkeypatch,
                                                             capsys):
    # psi, the transversal maps and the splittings read the representatives
    # in slice coordinates: no space of any complex, the quotient's
    # included, builds its representative forms
    struct = _lefschetz_all(monkeypatch, capsys, "h7s1.model")
    quotient = struct.model._memo[("quotient", struct)]
    complexes = [cplx for model in (struct.model, quotient.model)
                 for key, cplx in model._memo.items() if key[0] == "complex"]
    assert len(complexes) == 5
    assert all(cplx._spaces for cplx in complexes)
    assert not any("representatives" in vars(sp) for cplx in complexes
                   for sp in cplx._spaces.values())


def test_suite_and_lefschetz_all_reduce_no_form(monkeypatch, capsys):
    """suite and `lefschetz --mode all` on every model file read every class
    in slice coordinates: no representative form is built, no form is
    reduced through CohomologySpace._class_of, and exterior keeps no
    top_pairing beside the Gram product."""
    from hardlef import exterior
    from hardlef.cohomology import CohomologySpace
    calls = {"_class_of": 0, "representatives": 0, "_class_of_coords": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_class_of", "_class_of_coords"):
        monkeypatch.setattr(CohomologySpace, name,
                            counting(name, getattr(CohomologySpace, name)))
    monkeypatch.setattr(CohomologySpace, "representatives", property(
        counting("representatives",
                 CohomologySpace.representatives.func)))
    assert cli.main(["suite"]) == 0
    for path in sorted(MODELS.glob("*.model")):
        assert cli.main(["lefschetz", str(path), "--mode", "all"]) == 0
    capsys.readouterr()
    assert calls["_class_of"] == calls["representatives"] == 0
    assert calls["_class_of_coords"] > 0
    assert not hasattr(exterior, "top_pairing")


def test_representatives_are_the_combinations_of_their_coordinates(
        lcs_struct):
    model = lcs_struct.model
    U, V = lcs_struct.U, lcs_struct.V
    for fields in ((), (U,), (V,), (U, V)):
        cplx = lef._basic(model, fields)
        for k in range(model.n_gen + 1):
            sp = cplx.space(k)
            reps = sp.representatives
            assert reps is sp.representatives
            assert reps == tuple(_combine(cplx.basis(k), row, model.n_gen, k)
                                 for row in sp._rep_coords)
            # each is the class of its own unit vector
            assert [sp.class_of(rep) for rep in reps] == [
                tuple(int(i == j) for j in range(sp.dimension))
                for i in range(sp.dimension)]


def test_full_complex_differential_is_d_of_each_monomial(lcs_struct):
    model = lcs_struct.model
    n = model.n_gen
    d1 = oracle.model_of(model)
    cplx = full_complex(model)
    for k in range(n + 1):
        rows = cplx._d(k)
        masks = degree_masks(n, k)
        assert len(rows) == len(masks)
        upper = degree_masks(n, k + 1)
        for row, mask in zip(rows, masks):
            image = {upper[j]: x for j, x in row.items()}
            assert image == model.d(Form._make(n, k, {mask: 1})).terms
            assert _oracle_form(image) == \
                oracle.dform(d1, _oracle_form({mask: 1}))
