"""Report assembly.

Each CLI command builds one structured document (a plain dict tree that
serializes to canonical JSON) and the text rendering is generated from the
same tree, so the two views cannot drift apart.  Rationals render as the
canonical string p/q (or p for integers); ordering is fixed everywhere, so
identical inputs produce byte-identical JSON.  Both writers, to_text and
to_json, take a file handle and write as they go, never holding a report.
"""

from __future__ import annotations

import json

from .exterior import default_names, form_text

CAVEAT_INVARIANT_MODEL = (
    "All computations take place in the invariant (Chevalley-Eilenberg) "
    "model; for nilpotent models they equal the de Rham and basic "
    "cohomology of the associated compact nilmanifold (Nomizu), otherwise "
    "they are statements about invariant forms only.")

CAVEAT_NON_NILPOTENT = (
    "Warning: the model is not nilpotent, so the identification of "
    "invariant-form cohomology with manifold cohomology is not guaranteed.")

CAVEAT_METRIC_SURROGATE = (
    "Metric hypotheses (parallel, Killing, unitary fields) are not "
    "expressible in this model; checks cover their finite linear-algebra "
    "consequences only.")

CAVEAT_NO_NORMALIZATION = (
    "No metric is present, so the customary unit-length normalization of "
    "the Lee form is not enforced.")

CAVEAT_DUALITY = (
    "Poincare duality of the model cohomology is asserted only for "
    "unimodular models.")


def model_summary(model, names=None) -> dict:
    names = names or default_names(model.n_gen)
    return {
        "name": model.name,
        "dim": model.n_gen,
        "structure": model.structure_string(),
        "differentials": {names[i]: form_text(model.d1[i], names)
                          for i in range(model.n_gen)},
        "nilpotent": model.is_nilpotent,
        "unimodular": model.is_unimodular,
    }


def standard_caveats(model) -> list[str]:
    caveats = [CAVEAT_INVARIANT_MODEL]
    if not model.is_nilpotent:
        caveats.append(CAVEAT_NON_NILPOTENT)
    if not model.is_unimodular:
        caveats.append(CAVEAT_DUALITY)
    return caveats


def document(command: str, results: dict, model=None, names=None,
             caveats=None) -> dict:
    from . import __version__
    doc = {"tool": "hardlef", "version": __version__, "command": command}
    if model is not None:
        doc["model"] = model_summary(model, names)
        doc["caveats"] = caveats if caveats is not None \
            else standard_caveats(model)
    elif caveats is not None:
        doc["caveats"] = caveats
    doc["results"] = results
    return doc


def to_json(doc: dict, fh) -> None:
    """Write the canonical JSON of a document, never held whole, to fh."""
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


# ----- text rendering -------------------------------------------------------


def _render_lines(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, (dict, list)) and val:
                yield f"{pad}{key}:"
                yield from _render_lines(val, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(val)}"
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            yield f"{pad}{', '.join(_scalar(v) for v in value)}"
        else:
            for v in value:
                yield from _render_lines(v, indent)
    else:
        yield f"{pad}{_scalar(value)}"


def _scalar(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def to_text(doc: dict, fh) -> None:
    """Write the text view of a document to fh line by line."""
    fh.write(f"hardlef {doc.get('command', '')}".rstrip() + "\n")
    if "model" in doc:
        m = doc["model"]
        label = m["name"] or m["structure"] or f"dim {m['dim']}"
        fh.write(f"model: {label}  (dim {m['dim']}, "
                 f"nilpotent: {_scalar(m['nilpotent'])}, "
                 f"unimodular: {_scalar(m['unimodular'])})\n")
    fh.write("\n")
    fh.writelines(f"{line}\n" for line in _render_lines(doc["results"]))
    for caveat in doc.get("caveats", ()):
        fh.write("\n")
        fh.write(f"note: {caveat}\n")
