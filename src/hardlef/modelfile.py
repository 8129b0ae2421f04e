"""Plain-text model files and their JSON mirror.

Grammar, one statement per line, with '#' starting a comment:

    name <word>
    dim <integer>
    generators <name> <name> ...      # optional, defaults to e1..eN
    d <gen> = <2-form expression>     # omitted generators are closed
    omega = <1-form expression>
    eta = <1-form expression>

A form expression is 0 or a signed sum of terms; a term is an optional
rational coefficient (p or p/q, optionally followed by *) and a monomial
with ^ between generator names:

    d e5 = e1^e3 + 2 e2^e4 - 1/2 e1^e2

Every syntactic or semantic defect is reported as a ParseError carrying
line and column.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .exterior import Form, default_names, form_text
from .model import StructureModel

_TOKEN = re.compile(r"\s*(?:(?P<number>\d+(?:/\d+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[\^+\-*=]))")


@dataclass(frozen=True)
class ModelDocument:
    """A parsed model file: the model plus its optional designated forms."""

    model: StructureModel
    omega: Form | None
    eta: Form | None
    generator_names: tuple[str, ...]

    @property
    def kind(self) -> str:
        if self.omega is not None and self.eta is not None:
            return "lcs"
        if self.eta is not None:
            return "contact"
        return "model"


def _tokenize(text: str, lineno: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             lineno, col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _FormParser:
    """Recursive-descent parser for signed sums of wedge monomials."""

    def __init__(self, tokens, lineno, gen_index, n_gen):
        self.tokens = tokens
        self.lineno = lineno
        self.gen_index = gen_index
        self.n_gen = n_gen
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.lineno)
        self.pos += 1
        return tok

    def parse(self) -> Form:
        if not self.tokens:
            raise ParseError("empty form expression", self.lineno)
        if (len(self.tokens) == 1 and self.tokens[0][0] == "number"
                and self.tokens[0][1] == "0"):
            return Form.zero(self.n_gen, 0)
        total = None
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            term = self.parse_term(sign)
            if total is None:
                total = term
            else:
                if total.degree != term.degree:
                    raise ParseError(
                        f"mixed degrees {total.degree} and {term.degree} "
                        f"in one expression", self.lineno,
                        self.tokens[self.pos - 1][2])
                total = total + term
            tok = self.peek()
            if tok is None:
                break
            if tok[0] != "op" or tok[1] not in "+-":
                raise ParseError(f"expected + or -, got {tok[1]!r}",
                                 self.lineno, tok[2])
            self.take()
            sign = -1 if tok[1] == "-" else 1
        return total

    def parse_term(self, sign: int) -> Form:
        coeff = Fraction(sign)
        tok = self.peek()
        if tok is None:
            raise ParseError("dangling sign", self.lineno)
        if tok[0] == "number":
            self.take()
            coeff *= Fraction(tok[1])
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                tok = self.peek()
            if tok is None or tok[0] != "name":
                # a bare rational is a 0-form term
                return Form.constant(self.n_gen, coeff)
        indices = [self.parse_generator()]
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "^":
                break
            self.take()
            indices.append(self.parse_generator())
        return Form.monomial(self.n_gen, indices, coeff)

    def parse_generator(self) -> int:
        tok = self.take()
        if tok[0] != "name":
            raise ParseError(f"expected a generator name, got {tok[1]!r}",
                             self.lineno, tok[2])
        idx = self.gen_index.get(tok[1])
        if idx is None:
            raise ParseError(f"unknown generator {tok[1]!r}", self.lineno,
                             tok[2])
        return idx


def parse(text: str) -> ModelDocument:
    """Parse a model file; raises ParseError with line/column on defects."""
    name = ""
    dim = None
    gen_names: list[str] | None = None
    gen_at = (1, 1)
    forms = []
    d_lines: dict[int, Form] = {}
    omega = None
    eta = None

    lines = text.splitlines()
    statements = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        statements.append((lineno, body))

    for lineno, body in statements:
        tokens = _tokenize(body, lineno)
        if not tokens:
            continue
        kind, head, col = tokens[0]
        if kind != "name":
            raise ParseError(f"statement must start with a keyword, got "
                             f"{head!r}", lineno, col)
        if head == "name":
            if len(tokens) != 2 or tokens[1][0] != "name":
                raise ParseError("usage: name <word>", lineno, col)
            name = tokens[1][1]
        elif head == "dim":
            if len(tokens) != 2 or tokens[1][0] != "number" \
                    or "/" in tokens[1][1]:
                raise ParseError("usage: dim <integer>", lineno, col)
            if dim is not None:
                raise ParseError("duplicate dim statement", lineno, col)
            dim = int(tokens[1][1])
            if not 1 <= dim <= 16:
                raise ParseError(f"dim must be in [1, 16], got {dim}",
                                 lineno, tokens[1][2])
        elif head == "generators":
            names = [t[1] for t in tokens[1:]]
            if not names or any(t[0] != "name" for t in tokens[1:]):
                raise ParseError("usage: generators <name> ...", lineno, col)
            if len(set(names)) != len(names):
                raise ParseError("generator names must be distinct",
                                 lineno, col)
            if forms:
                raise ParseError("generators must be declared before any "
                                 "form statement", lineno, col)
            gen_names = names
            gen_at = (lineno, col)
        elif head in ("d", "omega", "eta"):
            if dim is None:
                raise ParseError("dim must be declared before forms",
                                 lineno, col)
            forms.append((lineno, tokens))
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, col)

    if dim is None:
        raise ParseError("missing required `dim` statement", 1, 1)
    if gen_names is None:
        gen_names = default_names(dim)
    if len(gen_names) != dim:
        raise ParseError(f"{len(gen_names)} generator names for dim {dim}",
                         *gen_at)
    # forms are read once the generator names are final
    gen_index = {g: i + 1 for i, g in enumerate(gen_names)}
    for lineno, tokens in forms:
        _, head, col = tokens[0]
        if head == "d":
            if len(tokens) < 3 or tokens[1][0] != "name" \
                    or tokens[2][1] != "=":
                raise ParseError("usage: d <generator> = <expression>",
                                 lineno, col)
            target = gen_index.get(tokens[1][1])
            if target is None:
                raise ParseError(f"unknown generator {tokens[1][1]!r}",
                                 lineno, tokens[1][2])
            expr = _FormParser(tokens[3:], lineno, gen_index, dim).parse()
            if expr.is_zero():
                expr = Form.zero(dim, 2)
            if expr.degree != 2:
                raise ParseError(f"d {tokens[1][1]} must be a 2-form, "
                                 f"got degree {expr.degree}", lineno,
                                 tokens[3][2] if len(tokens) > 3 else col)
            if target in d_lines:
                raise ParseError(f"duplicate structure equation for "
                                 f"{tokens[1][1]}", lineno, col)
            d_lines[target] = expr
        else:
            if len(tokens) < 2 or tokens[1][1] != "=":
                raise ParseError(f"usage: {head} = <expression>",
                                 lineno, col)
            expr = _FormParser(tokens[2:], lineno, gen_index, dim).parse()
            if expr.is_zero():
                expr = Form.zero(dim, 1)
            if expr.degree != 1:
                raise ParseError(f"{head} must be a 1-form, got degree "
                                 f"{expr.degree}", lineno,
                                 tokens[2][2] if len(tokens) > 2 else col)
            if head == "omega":
                omega = expr
            else:
                eta = expr

    diffs = [d_lines.get(i, Form.zero(dim, 2))
             for i in range(1, dim + 1)]
    model = StructureModel(diffs, name=name)
    return ModelDocument(model, omega, eta, tuple(gen_names))


def serialize(doc: ModelDocument) -> str:
    """Canonical file text; parse(serialize(doc)) equals doc."""
    custom = doc.generator_names != default_names(doc.model.n_gen)
    return "\n".join(_statements(to_json_dict(doc), custom)) + "\n"


def to_json_dict(doc: ModelDocument) -> dict:
    names = doc.generator_names
    out = {
        "name": doc.model.name,
        "dim": doc.model.n_gen,
        "generators": list(names),
        "differentials": {names[i - 1]: form_text(doc.model.d1[i - 1], names)
                          for i in range(1, doc.model.n_gen + 1)},
    }
    if doc.omega is not None:
        out["omega"] = form_text(doc.omega, names)
    if doc.eta is not None:
        out["eta"] = form_text(doc.eta, names)
    return out


def _statements(data: dict, generators: bool = True) -> list[str]:
    """The file statements of a model in its JSON form, the generators
    statement only when asked for."""
    dim = data["dim"]
    names = data.get("generators") or default_names(dim)
    lines = [f"name {data['name']}"] if data.get("name") else []
    lines.append(f"dim {dim}")
    if generators:
        lines.append("generators " + " ".join(names))
    for gen, expr in data.get("differentials", {}).items():
        lines.append(f"d {gen} = {expr}")
    for key in ("omega", "eta"):
        if key in data:
            lines.append(f"{key} = {data[key]}")
    return lines


def from_json_dict(data: dict) -> ModelDocument:
    try:
        lines = _statements(data)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed JSON model: {exc}") from exc
    return parse("\n".join(lines))


def load_text(text: str, assume_json: bool | None = None) -> ModelDocument:
    """Parse either syntax; JSON is detected by a leading brace."""
    if assume_json is None:
        assume_json = text.lstrip().startswith("{")
    if assume_json:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
        return from_json_dict(data)
    return parse(text)


def load_path(path) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assume_json = str(path).endswith(".json") or \
        text.lstrip().startswith("{")
    return load_text(text, assume_json)
