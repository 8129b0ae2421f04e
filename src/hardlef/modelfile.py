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

The bare 0 fits any statement; any other sum keeps the degree of its
terms even when it is zero (e1 - e1, e1^e1).  Every syntactic or
semantic defect is reported as a ParseError carrying line and column.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .exterior import Form, default_names, form_text
from .model import StructureModel
from .record import Record

_WORD = r"[A-Za-z_][A-Za-z_0-9]*"
# [0-9], not \d: \d also matches other scripts' digits, which the command
# line refuses too
_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)"
                    rf"|(?P<name>{_WORD})"
                    r"|(?P<op>[\^+\-*=]))")
# A model nests to depth 2; a string (escapes included) is one match, so
# the brackets and digits inside it are skipped.  json reads a number with
# neither fraction nor exponent through int().
_JSON_DEPTH = 32
_JSON_KEYS = ("name", "dim", "generators", "differentials", "omega", "eta")
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]'
                         r'|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', re.S)


class ModelDocument(Record):
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


def _too_long(lineno, column) -> ParseError:
    return ParseError(f"number longer than {sys.get_int_max_str_digits()} "
                      f"digits", lineno, column)


def _number(tok, lineno: int) -> Fraction:
    """The rational of a number token; a zero denominator or more digits
    than int() converts (sys.get_int_max_str_digits()) is a ParseError at
    the token."""
    try:
        return Fraction(tok[1])
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok[1]}",
                         lineno, tok[2]) from None
    except ValueError:
        raise _too_long(lineno, tok[2]) from None


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

    def parse(self) -> Form | None:
        """The form of the expression; None for the bare `0`, the one zero
        without a degree.  Any other sum keeps the degree of its terms,
        even when they cancel or a monomial repeats an index."""
        if not self.tokens:
            raise ParseError("empty form expression", self.lineno)
        if (len(self.tokens) == 1 and self.tokens[0][0] == "number"
                and self.tokens[0][1] == "0"):
            return None
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
        coeff = sign
        tok = self.peek()
        if tok is None:
            raise ParseError("dangling sign", self.lineno)
        if tok[0] == "number":
            self.take()
            coeff *= _number(tok, self.lineno)
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
    designated: dict[str, Form] = {}  # omega and eta

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
            if name:
                raise ParseError("duplicate name", lineno, col)
            name = tokens[1][1]
        elif head == "dim":
            if len(tokens) != 2 or tokens[1][0] != "number" \
                    or "/" in tokens[1][1]:
                raise ParseError("usage: dim <integer>", lineno, col)
            if dim is not None:
                raise ParseError("duplicate dim statement", lineno, col)
            dim = _number(tokens[1], lineno).numerator
            if not 1 <= dim <= 16:
                raise ParseError(f"dim must be in [1, 16], got {dim}",
                                 lineno, tokens[1][2])
        elif head == "generators":
            names = [t[1] for t in tokens[1:]]
            if not names or any(t[0] != "name" for t in tokens[1:]):
                raise ParseError("usage: generators <name> ...", lineno, col)
            if gen_names is not None:
                raise ParseError("duplicate generators", lineno, col)
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
            if expr is None:
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
            if expr is None:
                expr = Form.zero(dim, 1)
            if expr.degree != 1:
                raise ParseError(f"{head} must be a 1-form, got degree "
                                 f"{expr.degree}", lineno,
                                 tokens[2][2] if len(tokens) > 2 else col)
            if head in designated:
                raise ParseError(f"duplicate {head}", lineno, col)
            designated[head] = expr

    diffs = [d_lines.get(i, Form.zero(dim, 2))
             for i in range(1, dim + 1)]
    model = StructureModel(diffs, name=name)
    return ModelDocument(model, designated.get("omega"),
                         designated.get("eta"), tuple(gen_names))


def serialize(doc: ModelDocument) -> str:
    """Canonical file text; parse(serialize(doc)) equals doc.  A model
    name that `name <word>` cannot read back is a ValueError."""
    custom = doc.generator_names != default_names(doc.model.n_gen)
    return "".join(f"{head}{value}\n" for _, head, value
                   in _statements(to_json_dict(doc), custom))


def to_json_dict(doc: ModelDocument) -> dict:
    """The JSON mirror; from_json_dict(to_json_dict(doc)) equals doc.  A
    model name that `name <word>` cannot read back is a ValueError."""
    name = doc.model.name
    if name and not re.fullmatch(_WORD, name):
        raise ValueError(f"model name {name!r} is not a word, so a model "
                         f"file cannot carry it")
    names = doc.generator_names
    out = {
        "name": name,
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


def _statements(data: dict, generators: bool = True) -> list[tuple]:
    """(JSON key, head, value) of each file statement of a model in its
    JSON form, the statement being head followed by value; the generators
    statement only when asked for and named (parse defaults them once dim
    is checked)."""
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f"expected an integer, got {json.dumps(dim)}",
                         key="dim")
    for key in data:
        if key not in _JSON_KEYS:
            raise ParseError("unknown key; a model has "
                             + ", ".join(_JSON_KEYS), key=key)
    names = data.get("generators", [])
    if not isinstance(names, list) or not all(
            isinstance(name, str) for name in names):
        raise ParseError(f"expected a list of names, got {json.dumps(names)}",
                         key="generators")
    differentials = data.get("differentials", {}).items()
    for key, words in (("generators", names),
                       ("differentials", [gen for gen, _ in differentials])):
        for word in words:
            if not re.fullmatch(_WORD, word):
                raise ParseError(f"generator name {json.dumps(word)} is not "
                                 f"a word", key=key)
    out = [("name", "name ", data["name"])] if data.get("name") else []
    out.append(("dim", "dim ", dim))
    if generators and names:
        out.append(("generators", "generators ", " ".join(names)))
    forms = [(f"differentials.{gen}", f"d {gen} = ", expr)
             for gen, expr in differentials]
    forms += [(key, f"{key} = ", data[key]) for key in ("omega", "eta")
              if key in data]
    for key, _, value in forms:
        if not isinstance(value, str):
            raise ParseError(f"expected a form as a string, got "
                             f"{json.dumps(value)}", key=key)
    return out + forms


def from_json_dict(data: dict) -> ModelDocument:
    """The model of a JSON object; a ParseError names the key it is in
    and, for a string value, the column in that string."""
    try:
        statements = _statements(data)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed JSON model: {exc}") from exc
    lines = [f"{head}{value}" for _, head, value in statements]
    for (key, _, _), line in zip(statements, lines):
        if line.splitlines() != [line]:
            raise ParseError("line break in a JSON string", key=key)
        if "#" in line:
            raise ParseError("'#' in a JSON string", key=key)
    try:
        return parse("\n".join(lines))
    except ParseError as exc:
        key, head, value = statements[exc.line - 1]
        column = None
        if isinstance(value, str) and (exc.column or 0) > len(head):
            column = exc.column - len(head)
        raise ParseError(exc.args[0], column=column, key=key) from None


def _check_json(text: str) -> None:
    """Refuse, at its line and column, what json fails on without a
    position: nesting deeper than _JSON_DEPTH (the first bracket past it),
    where json would recurse that far, and an integer longer than int()
    converts.  Brackets and digits in strings do not count."""
    depth = 0
    limit = sys.get_int_max_str_digits()
    for m in _JSON_TOKEN.finditer(text):
        if m[0] in "[{":
            depth += 1
            if depth > _JSON_DEPTH:
                raise ParseError(f"JSON nested deeper than {_JSON_DEPTH}",
                                 *_position(text, m.start()))
        elif m[0] in "]}":
            depth -= 1
        elif m[1] and limit and len(m[1]) > limit and not (m[2] or m[3]):
            raise _too_long(*_position(text, m.start()))


def _position(text: str, pos: int) -> tuple[int, int]:
    """Line and column of the offset pos."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object's dict; json.loads would keep a repeated key's last
    value, and here the key is a ParseError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"duplicate key {json.dumps(key)}")
        out[key] = value
    return out


def load_text(text: str, assume_json: bool | None = None) -> ModelDocument:
    """Parse either syntax; JSON is detected by a leading brace."""
    if assume_json is None:
        assume_json = text.lstrip().startswith("{")
    if assume_json:
        _check_json(text)
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
        return from_json_dict(data)
    return parse(text)


def load_path(path) -> ModelDocument:
    """Read a UTF-8 model file, its line ends translated as in text mode;
    a byte that is not UTF-8 is a ParseError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "_" stands in for it
        lines = (data[:exc.start].decode("utf-8") + "_").splitlines()
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                         len(lines), len(lines[-1])) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    assume_json = str(path).endswith(".json") or \
        text.lstrip().startswith("{")
    return load_text(text, assume_json)
