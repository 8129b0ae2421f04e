"""Lie algebra models given by structure equations.

A model records d(e_i) for every degree-1 generator.  Extending by the
antiderivation rule gives the Chevalley-Eilenberg differential on the whole
exterior algebra, and d(d(e_i)) = 0 is exactly the Jacobi identity; it is
checked at construction.  For a nilpotent model the cohomology of this
complex equals the de Rham cohomology of the associated compact
nilmanifold (Nomizu); for non-nilpotent input that identification is an
assumption which reports flag explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import DegreeError, ModelMismatchError, ValidationError
from .exterior import Form, Rational, Vector, contract, indices_of


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
        # hashed on every memo lookup of the Lefschetz layer
        self._hash = hash((n, self.d1))
        self.name = name
        self._d_cache: dict[int, Form] = {}
        self._nilpotent: bool | None = None
        self._unimodular: bool | None = None
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
        rational coefficients, e.g. "12+34" or "12-1/2*34".  Digit pairs
        limit this notation to at most nine generators.
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

        Converted through de_k(X_i, X_j) = -e_k([X_i, X_j]).
        """
        terms: list[dict[int, Fraction]] = [dict() for _ in range(n_gen)]
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= n_gen):
                raise ValueError(f"bracket key ({i}, {j}) must satisfy "
                                 f"1 <= i < j <= {n_gen}")
            mask = (1 << (i - 1)) | (1 << (j - 1))
            for k, c in comps.items():
                prev = terms[k - 1].get(mask, Fraction(0))
                terms[k - 1][mask] = prev - Fraction(c)
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
        cached = self._d_cache.get(mask)
        if cached is not None:
            return cached
        n = self.n_gen
        k = mask.bit_count()
        total = Form.zero(n, k + 1)
        rem = mask
        pos = 0
        while rem:
            low = rem & -rem
            di = self.d1[low.bit_length() - 1]
            if not di.is_zero():
                prefix = Form(n, pos, {mask & (low - 1): Fraction(1)})
                suffix_mask = mask & ~((low << 1) - 1)
                suffix = Form(n, k - pos - 1, {suffix_mask: Fraction(1)})
                sign = -1 if pos & 1 else 1
                total = total + sign * prefix.wedge(di).wedge(suffix)
            rem ^= low
            pos += 1
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
        """Lie bracket of constant fields via e_k([v, w]) = -de_k(v, w)."""
        comps = []
        for k in range(self.n_gen):
            val = contract(w, contract(v, self.d1[k]))
            comps.append(-val.terms.get(0, Fraction(0)))
        return Vector(comps)

    # ----- flags ----------------------------------------------------------

    @property
    def is_nilpotent(self) -> bool:
        """Whether the lower central series reaches zero."""
        if self._nilpotent is None:
            n = self.n_gen
            fields = [Vector.basis(n, i) for i in range(1, n + 1)]
            current = [f.coeffs for f in fields]
            while True:
                produced = []
                for f in fields:
                    for row in current:
                        produced.append(list(self.bracket(f, Vector(row)).coeffs))
                nxt = linalg.row_space(produced, n)
                if not nxt:
                    self._nilpotent = True
                    break
                if len(nxt) == len(current):
                    self._nilpotent = False
                    break
                current = nxt
        return self._nilpotent

    @property
    def is_unimodular(self) -> bool:
        """Whether every adjoint operator is traceless."""
        if self._unimodular is None:
            n = self.n_gen
            ok = True
            for i in range(1, n + 1):
                ei = Vector.basis(n, i)
                trace = Fraction(0)
                for j in range(1, n + 1):
                    trace += self.bracket(ei, Vector.basis(n, j)).coeffs[j - 1]
                if trace:
                    ok = False
                    break
            self._unimodular = ok
        return self._unimodular

    def structure_string(self) -> str:
        """Compact pair notation, e.g. (0,0,12,0); empty above 9 generators."""
        if self.n_gen > 9:
            return ""
        entries = []
        for f in self.d1:
            if f.is_zero():
                entries.append("0")
                continue
            parts = []
            for mask in sorted(f.terms):
                c = f.terms[mask]
                pair = "".join(str(i) for i in indices_of(mask))
                if c == 1:
                    body = pair
                elif c == -1:
                    body = f"-{pair}"
                else:
                    body = f"{c}*{pair}"
                parts.append(body)
            entries.append("+".join(parts).replace("+-", "-"))
        return "(" + ",".join(entries) + ")"

    def __eq__(self, other):
        if not isinstance(other, StructureModel):
            return NotImplemented
        return self.n_gen == other.n_gen and self.d1 == other.d1

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or self.structure_string() or f"dim {self.n_gen}"
        return f"<StructureModel {label}>"


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
            coeff = Fraction(coeff_s.strip())
        else:
            coeff, mono = Fraction(1), piece
        mono = mono.strip()
        if len(mono) != 2 or not mono.isdigit():
            raise ValueError(f"bad structure term {piece!r}")
        i, j = int(mono[0]), int(mono[1])
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"structure term {piece!r} uses invalid "
                             f"generator indices for dimension {n}")
        total = total + Form.monomial(n, (i, j), sign * coeff)
    return total

