"""Lie algebra models given by structure equations.

A model records d(e_i) for every degree-1 generator.  Extending by the
antiderivation rule gives the Chevalley-Eilenberg differential on the whole
exterior algebra, and d(d(e_i)) = 0 is exactly the Jacobi identity; it is
checked at construction.  For a nilpotent model the cohomology of this
complex equals the de Rham cohomology of the associated compact
nilmanifold (Nomizu); for non-nilpotent input that identification is an
assumption which reports flag explicitly.

The arithmetic follows the rule stated in exterior: a coefficient is an
int when it is integral and a `Fraction` otherwise, so the integer
structure constants of most models keep d and L_v in integer arithmetic,
and no operation is made whose result is already known.  d(e_I) is one
Leibniz step on the d(e_J) kept before it (_d_monomial), and the bracket
and the two flags read the structure constants from the terms of the
d(e_i), touching only nonzero components.  L_v is a derivation of degree
0, read off the one-forms L_v e_i = i_v d e_i; d and L_v are operator
values (Differential, LieDerivative), and d(e_I) is kept per monomial,
once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import DegreeError, ModelMismatchError, ValidationError
from .exterior import (Contraction, Form, Operator, Rational, Vector,
                       _above, _accumulate, _coerce, _signed_sum, indices_of)


class StructureModel:
    """A finite-dimensional graded model defined by generator differentials."""

    def __init__(self, differentials: Sequence[Form], name: str = ""):
        diffs = []
        given = list(differentials)
        n = len(given)
        for i, f in enumerate(given, start=1):
            if not isinstance(f, Form):
                raise TypeError(f"differential of e{i} must be a Form")
            if f.n_gen != n:
                raise ModelMismatchError(
                    f"differential of e{i} lives over {f.n_gen} generators, "
                    f"expected {n}")
            if f.is_zero():
                f = Form.zero(n, 2)
            elif f.degree != 2:
                raise DegreeError(f"d(e{i}) must have degree 2, "
                                  f"got {f.degree}")
            diffs.append(f)
        self.n_gen = n
        self.d1 = tuple(diffs)
        # hashed with every structure that keys a Lefschetz memo entry
        self._hash = hash((n, self.d1))
        self.name = name
        # mask -> the terms of d(e_mask)
        self._d_cache: dict[int, dict] = {}
        # per generator, (m, c, _above(m)) for the terms c e_m of d(e_i)
        self._left = tuple([(m, c, _above(m)) for m, c in f.terms.items()]
                           for f in self.d1)
        # what the Lefschetz layer computes from this model (lefschetz._cached)
        self._memo: dict = {}
        # per k, the terms c e_a ^ e_b (a < b, 0-based) of d(e_k): the
        # structure constants the bracket and the flags read
        self._constants = tuple(
            tuple(((m & -m).bit_length() - 1, m.bit_length() - 1, c)
                  for m, c in f.terms.items())
            for f in self.d1)
        for i in range(1, n + 1):
            if not self.d(self.d1[i - 1]).is_zero():
                raise ValidationError(
                    f"structure equations violate d.d = 0 on e{i} "
                    f"(Jacobi identity fails)")

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_salamon(cls, structure, name: str = "") -> "StructureModel":
        """Build from compact structure-equation notation.

        Accepts "(0,0,12,0)" or a sequence of entry strings; a digit pair
        "ij" denotes e_i ^ e_j and entries are signed sums with optional
        rational coefficients, e.g. "12+34" or "12-1/2*34".  Pairs and
        coefficients (p or p/q) are written in ASCII digits, as in model
        files.  Digit pairs limit this notation to at most nine generators.
        """
        if isinstance(structure, str):
            body = structure.strip()
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            entries = [s.strip() for s in body.split(",")]
        else:
            entries = [str(s).strip() for s in structure]
        n = len(entries)
        if n > 9:
            raise ValueError("structure-pair notation supports at most "
                             "nine generators; use the file format instead")
        diffs = [_parse_structure_entry(e, n) for e in entries]
        return cls(diffs, name=name)

    @classmethod
    def from_brackets(cls, n_gen: int,
                      brackets: Mapping[tuple[int, int], Mapping[int, Rational]],
                      name: str = "") -> "StructureModel":
        """Build from bracket constants [X_i, X_j] = sum_k c^k_ij X_k.

        Converted through de_k(X_i, X_j) = -e_k([X_i, X_j]).  Every index
        lies in [1, n_gen], and a float constant is a TypeError, as in Form.
        """
        terms: list[dict[int, Rational]] = [dict() for _ in range(n_gen)]
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= n_gen):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy "
                                 f"1 <= i < j <= {n_gen}")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            for k, c in comps.items():
                if not 1 <= k <= n_gen:
                    raise ValueError(f"component index {k} of bracket "
                                     f"({i}, {j}) outside [1, {n_gen}]")
                prev = terms[k - 1].get(mask, 0)
                terms[k - 1][mask] = prev - _coerce(c)
        diffs = [Form(n_gen, 2, t) for t in terms]
        return cls(diffs, name=name)

    # ----- calculus -----------------------------------------------------

    def d(self, a: Form) -> Form:
        """The differential, extended as a degree +1 antiderivation.

        Invariant functions are constants, so d vanishes on degree 0.
        """
        if a.n_gen != self.n_gen:
            raise ModelMismatchError("form does not live over this model")
        return Form._make(self.n_gen, a.degree + 1,
                          Differential(self)(a.terms))

    def _d_monomial(self, mask: int) -> dict[int, Rational]:
        """The terms of d(e_I), kept once per monomial: d(e_i) ^ e_J - e_i
        ^ d(e_J) for e_I = e_i ^ e_J, i the lowest generator of I, a term m
        of d(e_i) signed by the parity of J & _above(m) and a term m' of
        d(e_J) by that of the bits of m' below i.  Degree 0 has none."""
        cached = self._d_cache.get(mask)
        if cached is not None:
            return cached
        out: dict[int, Rational] = {}
        if mask:
            low = mask & -mask
            rest = mask ^ low
            for m, c, above in self._left[low.bit_length() - 1]:
                if not m & rest:
                    out[m | rest] = -c if (rest & above).bit_count() & 1 else c
            for m, c in self._d_monomial(rest).items():
                if not m & low:
                    _accumulate(out, m | low,
                                c if (m & (low - 1)).bit_count() & 1 else -c)
        self._d_cache[mask] = out
        return out

    def lie_derivative(self, v: Vector, a: Form) -> Form:
        """L_v a for a constant field v (LieDerivative)."""
        if v.n_gen != self.n_gen or a.n_gen != self.n_gen:
            raise ModelMismatchError("operands do not live over this model")
        return Form._make(self.n_gen, a.degree,
                          LieDerivative(self, v)(a.terms))

    def bracket(self, v: Vector, w: Vector) -> Vector:
        """Lie bracket of constant fields via e_k([v, w]) = -de_k(v, w),
        where c e_a ^ e_b (a < b) evaluates to c (v_a w_b - v_b w_a)."""
        if v.n_gen != self.n_gen or w.n_gen != self.n_gen:
            raise ModelMismatchError("fields do not live over this model")
        comps = []
        for terms in self._constants:
            parts = []
            for a, b, c in terms:
                for x, y, neg in ((v.coeffs[a], w.coeffs[b], True),
                                  (v.coeffs[b], w.coeffs[a], False)):
                    if x and y:
                        t = c * x * y
                        parts.append(-t if neg else t)
            comps.append(sum(parts[1:], parts[0]) if parts else 0)
        return Vector(comps)

    # ----- flags ----------------------------------------------------------

    @cached_property
    def is_nilpotent(self) -> bool:
        """Whether the lower central series reaches zero.  Its next term
        is spanned by the brackets [e_f, x] of the generators with the
        rows x of the current one; by the bracket formula the term c e_a ^
        e_b of d(e_k) gives [e_a, x]_k its -c x_b and [e_b, x]_k its
        c x_a."""
        n = self.n_gen
        current: list[dict[int, Rational]] = [{i: 1} for i in range(n)]
        while True:
            produced = []
            for x in current:
                rows: list[dict[int, Rational]] = [{} for _ in range(n)]
                for k, terms in enumerate(self._constants):
                    for a, b, c in terms:
                        xb = x.get(b)
                        if xb is not None:
                            _accumulate(rows[a], k, -(c * xb))
                        xa = x.get(a)
                        if xa is not None:
                            _accumulate(rows[b], k, c * xa)
                produced += rows
            nxt = linalg.row_space(produced)
            if not nxt:
                return True
            if len(nxt) == len(current):
                return False
            current = nxt

    @cached_property
    def is_unimodular(self) -> bool:
        """Whether every adjoint operator is traceless.  The trace of
        ad(e_i) is sum_k e_k([e_i, e_k]); the term c e_a ^ e_b of d(e_k)
        adds -c to it when i = a and b = k, and c when i = b and a = k."""
        traces: dict[int, Rational] = {}
        for k, terms in enumerate(self._constants):
            for a, b, c in terms:
                if b == k:
                    _accumulate(traces, a, -c)
                elif a == k:
                    _accumulate(traces, b, c)
        return not traces

    def structure_string(self) -> str:
        """Compact pair notation, e.g. (0,0,12,0); empty above 9 generators."""
        if self.n_gen > 9:
            return ""
        return "(" + ",".join(
            _signed_sum(((f.terms[m], "".join(map(str, indices_of(m))))
                         for m in sorted(f.terms)), sep="")
            for f in self.d1) + ")"

    def __eq__(self, other):
        if not isinstance(other, StructureModel):
            return NotImplemented
        return self.n_gen == other.n_gen and self.d1 == other.d1

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or self.structure_string() or f"dim {self.n_gen}"
        return f"<StructureModel {label}>"


class Differential(Operator):
    """d of a model, summed over the cached d(e_I) of the monomials."""

    def __call__(self, terms: dict) -> dict:
        out: dict[int, Rational] = {}
        d_monomial = self.key[0]._d_monomial
        for mask, coeff in terms.items():
            linalg.add_scaled(out, coeff, d_monomial(mask))
        return out


class LieDerivative(Operator):
    """L_v = i_v d + d i_v for a constant field v on a model, a derivation
    of degree 0, read off the one-forms L_v e_i = i_v d e_i, taken once:
    L_v(e_I) replaces each factor e_i in turn by L_v e_i, whose term in e_j
    takes one sign per factor between e_i and e_j; zero for a central
    field."""

    def __init__(self, model: StructureModel, v: Vector):
        super().__init__(model, v)
        i_v = Contraction(v)
        ones = tuple(tuple(i_v(f.terms).items()) for f in model.d1)
        self._ones = ones if any(ones) else ()

    def __call__(self, terms: dict) -> dict:
        ones = self._ones
        out: dict[int, Rational] = {}
        for mask, c in terms.items() if ones else ():
            rem = mask
            while rem:
                low = rem & -rem
                rest = mask ^ low
                for j, x in ones[low.bit_length() - 1]:
                    if not j & rest:
                        t = c if x == 1 else c * x
                        odd = (rest & ((low - 1) ^ (j - 1))).bit_count() & 1
                        _accumulate(out, rest | j, -t if odd else t)
                rem ^= low
        return out


def _ascii_digits(*parts: str) -> bool:
    """Whether each part is a nonempty run of the ASCII digits 0-9."""
    return all(p.isascii() and p.isdigit() for p in parts)


def _parse_structure_entry(entry: str, n: int) -> Form:
    entry = entry.strip()
    if entry in ("0", ""):
        return Form.zero(n, 2)
    total = Form.zero(n, 2)
    for piece in entry.replace("-", "+-").split("+"):
        piece = piece.strip()
        if not piece:
            continue
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:].strip()
        if "*" in piece:
            coeff_s, mono = piece.split("*", 1)
            coeff_s = coeff_s.strip()
            if not _ascii_digits(*coeff_s.split("/", 1)):
                raise ValueError(f"bad coefficient in {piece!r}: write p "
                                 f"or p/q in ASCII digits")
            try:
                coeff = Fraction(coeff_s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {piece!r}") from None
        else:
            coeff, mono = 1, piece
        mono = mono.strip()
        if len(mono) != 2 or not _ascii_digits(mono):
            raise ValueError(f"bad structure term {piece!r}")
        i, j = int(mono[0]), int(mono[1])
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"structure term {piece!r} uses invalid "
                             f"generator indices for dimension {n}")
        total = total + Form.monomial(n, (i, j), sign * coeff)
    return total

