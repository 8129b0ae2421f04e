"""Lie algebra models given by structure equations.

A model records d(e_i) for every degree-1 generator.  Extending by the
antiderivation rule gives the Chevalley-Eilenberg differential on the whole
exterior algebra, and d(d(e_i)) = 0 is exactly the Jacobi identity; it is
checked at construction.  For a nilpotent model the cohomology of this
complex equals the de Rham cohomology of the associated compact
nilmanifold (Nomizu); for non-nilpotent input that identification is an
assumption which reports flag explicitly.

The arithmetic follows the rule stated in exterior: `Fraction` is the only
scalar, and no `Fraction` operation is made whose result is already
known.  d(e_I) is read off the terms of the d(e_i) with two merge signs
per term, and the bracket and the two flags read the structure constants
from those terms directly, touching only nonzero components.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import DegreeError, ModelMismatchError, ValidationError
from .exterior import (Form, Rational, Vector, _accumulate, _coerce,
                       _signed_sum, _sum, contract, indices_of, merge_sign)


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
        self._d_cache: dict[int, Form] = {}
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
        terms: list[dict[int, Fraction]] = [dict() for _ in range(n_gen)]
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= n_gen):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy "
                                 f"1 <= i < j <= {n_gen}")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            for k, c in comps.items():
                if not 1 <= k <= n_gen:
                    raise ValueError(f"component index {k} of bracket "
                                     f"({i}, {j}) outside [1, {n_gen}]")
                prev = terms[k - 1].get(mask, Fraction(0))
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
        if a.degree == 0:
            return Form.zero(self.n_gen, 1)
        out: dict[int, Fraction] = {}
        for mask, coeff in a.terms.items():
            linalg.add_scaled(out, coeff, self._d_monomial(mask).terms)
        return Form._make(self.n_gen, a.degree + 1, out)

    def _d_monomial(self, mask: int) -> Form:
        """d(e_I) = sum over i in I of (-1)^pos e_(I<i) ^ d(e_i) ^ e_(I>i),
        pos the number of generators of I below i, read term by term."""
        cached = self._d_cache.get(mask)
        if cached is not None:
            return cached
        out: dict[int, Fraction] = {}
        rem = mask
        while rem:
            low = rem & -rem
            prefix = mask & (low - 1)
            suffix = mask ^ prefix ^ low
            odd = prefix.bit_count() & 1
            for m, c in self.d1[low.bit_length() - 1].terms.items():
                if m & (prefix | suffix):
                    continue
                sign = merge_sign(prefix, m) * merge_sign(prefix | m, suffix)
                _accumulate(out, prefix | m | suffix,
                            -c if (sign < 0) != odd else c)
            rem ^= low
        total = Form._make(self.n_gen, mask.bit_count() + 1, out)
        self._d_cache[mask] = total
        return total

    def lie_derivative(self, v: Vector, a: Form) -> Form:
        """Cartan formula L_v = i_v d + d i_v for a constant field v."""
        if v.n_gen != self.n_gen or a.n_gen != self.n_gen:
            raise ModelMismatchError("operands do not live over this model")
        if a.degree == 0:
            return Form.zero(self.n_gen, 0)
        return contract(v, self.d(a)) + self.d(contract(v, a))

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
            comps.append(_sum(parts))
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
        current: list[dict[int, Fraction]] = [{i: Fraction(1)}
                                               for i in range(n)]
        while True:
            produced = []
            for x in current:
                rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
                for k, terms in enumerate(self._constants):
                    for a, b, c in terms:
                        xb = x.get(b)
                        if xb is not None:
                            _accumulate(rows[a], k, -(c * xb))
                        xa = x.get(a)
                        if xa is not None:
                            _accumulate(rows[b], k, c * xa)
                produced += rows
            nxt = linalg.row_space(produced, n)
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
        traces: dict[int, Fraction] = {}
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
            coeff, mono = Fraction(1), piece
        mono = mono.strip()
        if len(mono) != 2 or not _ascii_digits(mono):
            raise ValueError(f"bad structure term {piece!r}")
        i, j = int(mono[0]), int(mono[1])
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"structure term {piece!r} uses invalid "
                             f"generator indices for dimension {n}")
        total = total + Form.monomial(n, (i, j), sign * coeff)
    return total

