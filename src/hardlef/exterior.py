"""Exact sparse exterior algebra over the rationals on a fixed frame.

Generators are the 1-based degree-1 elements e1, ..., en with n <= 16.  A
monomial e_{i1} ^ ... ^ e_{ik} with ascending indices is stored as the
bitmask with bits i1-1, ..., ik-1 set; a homogeneous form is a sparse map
from masks to nonzero rational coefficients.  The orientation convention is
that e1 ^ ... ^ en is the positive volume element.

This module owns the monomial basis of each degree: degree_masks(n, k)
lists its masks in ascending order, and one cached mask -> column index
per (n, k) numbers them, the columns of the sparse rows {column:
coefficient} that linalg works on; there are no dense coordinate vectors
here.

Coefficients follow the scalar rule of linalg: an integral coefficient
is an `int` and any other a `fractions.Fraction`; there is no floating
point anywhere.  The public Form constructor coerces and validates every
term; the algebra (+, -, *, wedge, contract, and model.d) builds its
results through a private constructor that takes its fresh terms dict as
it is.  Forms and vectors are immutable values.

Operators on forms are values too (Operator): Wedge, Contraction and
Inclusion here, d and L_v in model.  Each does its setup once, maps the
terms of a form to those of its image by mask arithmetic, making no
Form, and compares by what defines it; Form.wedge, contract, model.d and
model.lie_derivative wrap the same kernels, one per product.

The arithmetic rule of the exact kernels (here, in model and in linalg):
a function takes and gives scalars by that rule (linalg reduces rows as
integers inside), so products and sums of integers stay ints and only a
division makes a Fraction; a product or sum that is stored is stored as
an int when it is integral; and no operation is made whose result is
already known.  A key seen for the first time is stored as it is, not
added to zero; a sign is applied by negation, not by multiplying with -1;
a factor 1 is not multiplied in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import DegreeError, ModelMismatchError
from .linalg import Rational, _coerce, as_scalar

MAX_GENERATORS = 16


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int) -> int:
    """Sign of sorting the concatenation of two ascending monomials.

    The masks must be disjoint; it is the parity of b & _above(a)."""
    return -1 if (b & _above(a)).bit_count() & 1 else 1


def _above(a: int) -> int:
    """The positions with an odd number of bits of a above them: the
    suffix parities of a (four shifts cover 16 bits), moved down by one."""
    a ^= a >> 1
    a ^= a >> 2
    a ^= a >> 4
    a ^= a >> 8
    return a >> 1


@lru_cache(maxsize=None)
def degree_masks(n_gen: int, degree: int) -> tuple[int, ...]:
    """All degree-`degree` monomial masks, in ascending numeric order."""
    if degree < 0 or degree > n_gen:
        return ()
    return tuple(sorted(mask_of(c)
                        for c in combinations(range(1, n_gen + 1), degree)))


@lru_cache(maxsize=None)
def _column_index(n_gen: int, degree: int) -> dict[int, int]:
    """mask -> position in degree_masks(n_gen, degree)."""
    return {m: i for i, m in enumerate(degree_masks(n_gen, degree))}


def _accumulate(out: dict, key: int, c: Rational) -> None:
    """out[key] += c, storing c itself for a new key, dropping an entry
    that cancels and storing an integral value as an int (as_scalar)."""
    y = out.get(key)
    if y is not None:
        c = y + c
        if not c:
            del out[key]
            return
    out[key] = c if type(c) is int or c.denominator != 1 else c.numerator


class Form:
    """A homogeneous exterior form with exact rational coefficients."""

    __slots__ = ("n_gen", "degree", "terms")

    def __init__(self, n_gen: int, degree: int,
                 terms: Mapping[int, Rational] | None = None):
        if not 1 <= n_gen <= MAX_GENERATORS:
            raise ValueError(f"number of generators must be in "
                             f"[1, {MAX_GENERATORS}], got {n_gen}")
        if degree < 0:
            raise DegreeError(f"form degree must be >= 0, got {degree}")
        clean: dict[int, Rational] = {}
        if terms:
            for mask, coeff in terms.items():
                c = _coerce(coeff)
                if not c:
                    continue
                if mask < 0 or mask >= (1 << n_gen):
                    raise ValueError(f"mask {mask:#b} is outside the frame "
                                     f"of {n_gen} generators")
                if mask.bit_count() != degree:
                    raise ValueError(f"monomial {indices_of(mask)} has "
                                     f"cardinality {mask.bit_count()}, "
                                     f"expected degree {degree}")
                clean[mask] = c
        self.n_gen = n_gen
        self.degree = degree
        self.terms = clean

    @classmethod
    def _make(cls, n_gen: int, degree: int,
              terms: dict[int, Rational]) -> "Form":
        """A form that takes ownership of terms, which must be a fresh dict
        of nonzero scalars on valid degree-`degree` masks: the results of
        the algebra below, which need no coercion or validation."""
        form = object.__new__(cls)
        form.n_gen = n_gen
        form.degree = degree
        form.terms = terms
        return form

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_gen: int, degree: int = 0) -> "Form":
        return cls(n_gen, degree)

    @classmethod
    def constant(cls, n_gen: int, value: Rational) -> "Form":
        return cls(n_gen, 0, {0: _coerce(value)})

    @classmethod
    def generator(cls, n_gen: int, i: int) -> "Form":
        if not 1 <= i <= n_gen:
            raise ValueError(f"generator index {i} outside [1, {n_gen}]")
        return cls(n_gen, 1, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, n_gen: int, indices: Sequence[int],
                 coeff: Rational = 1) -> "Form":
        """e_{i1} ^ ... ^ e_{ik} for possibly unsorted distinct indices.

        Repeated indices give the zero form; unsorted indices pick up the
        permutation sign.
        """
        idx = list(indices)
        for i in idx:
            if not 1 <= i <= n_gen:
                raise ValueError(f"generator index {i} outside [1, {n_gen}]")
        if len(set(idx)) != len(idx):
            return cls(n_gen, len(idx))
        sign = 1
        for i in range(1, len(idx)):
            j = i
            while j > 0 and idx[j - 1] > idx[j]:
                idx[j - 1], idx[j] = idx[j], idx[j - 1]
                sign = -sign
                j -= 1
        return cls(n_gen, len(idx), {mask_of(idx): sign * _coerce(coeff)})

    # ----- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # ----- algebra ------------------------------------------------------

    def _require_same_frame(self, other: "Form") -> None:
        if self.n_gen != other.n_gen:
            raise ModelMismatchError(f"forms over frames of {self.n_gen} "
                                     f"and {other.n_gen} generators")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same_frame(other)
        if self.degree != other.degree:
            # zero forms are degree-agnostic elements, same as for equality
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError(f"cannot add forms of degree {self.degree} "
                              f"and {other.degree}")
        out = dict(self.terms)
        for mask, coeff in other.terms.items():
            _accumulate(out, mask, coeff)
        return Form._make(self.n_gen, self.degree, out)

    def __neg__(self):
        return Form._make(self.n_gen, self.degree,
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                return Form._make(self.n_gen, self.degree, {})
            return Form._make(self.n_gen, self.degree, {
                m: as_scalar(c * scalar) for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self * Fraction(1, scalar)
        return NotImplemented

    def wedge(self, other: "Form") -> "Form":
        """Exterior product; graded-commutative and associative."""
        self._require_same_frame(other)
        return Form._make(self.n_gen, self.degree + other.degree, _wedge(
            [(m, c, _above(m)) for m, c in self.terms.items()], other.terms))

    # ----- value semantics ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.n_gen != other.n_gen or self.terms != other.terms:
            return False
        # zero forms of different recorded degrees are the same element
        return self.degree == other.degree or not self.terms

    def __hash__(self):
        deg = self.degree if self.terms else -1
        return hash((self.n_gen, deg, frozenset(self.terms.items())))

    def __str__(self):
        return form_text(self)

    def __repr__(self):
        return f"<Form {self}>"


class Vector:
    """A constant-coefficient vector in the frame dual to the generators."""

    __slots__ = ("n_gen", "coeffs")

    def __init__(self, coeffs: Sequence[Rational]):
        cs = tuple(_coerce(c) for c in coeffs)
        if not 1 <= len(cs) <= MAX_GENERATORS:
            raise ValueError(f"vector length must be in [1, {MAX_GENERATORS}]")
        self.coeffs = cs
        self.n_gen = len(cs)

    @classmethod
    def basis(cls, n_gen: int, i: int) -> "Vector":
        if not 1 <= i <= n_gen:
            raise ValueError(f"basis index {i} outside [1, {n_gen}]")
        return cls([int(j == i) for j in range(1, n_gen + 1)])

    @classmethod
    def zero(cls, n_gen: int) -> "Vector":
        return cls([0] * n_gen)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def pair(self, one_form: Form) -> Rational:
        """Evaluate a 1-form on this vector."""
        if self.n_gen != one_form.n_gen:
            raise ModelMismatchError("vector and form frames differ")
        if one_form.degree != 1:
            raise DegreeError("pairing is defined against 1-forms")
        total = 0
        for mask, coeff in one_form.terms.items():
            total += coeff * self.coeffs[mask.bit_length() - 1]
        return as_scalar(total)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return _signed_sum((c, f"E{i}")
                           for i, c in enumerate(self.coeffs, start=1) if c)

    def __repr__(self):
        return f"<Vector {self}>"


def default_names(n_gen: int) -> tuple[str, ...]:
    """The generator names e1, ..., en of a model that declares none."""
    return tuple(f"e{i}" for i in range(1, n_gen + 1))


def _signed_sum(terms: Iterable[tuple[Rational, str]], sep: str = " ") -> str:
    """The text of a sum of (coefficient, monomial) terms: a coefficient 1
    is left out, -1 is a minus sign and any other is written c*monomial; an
    empty monomial is the constant c; no terms is 0.  sep surrounds the
    signs between terms."""
    out = []
    for c, mono in terms:
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        else:
            body = f"{c}*{mono}"
        if out:
            body = (f"{sep}-{sep}{body[1:]}" if body.startswith("-")
                    else f"{sep}+{sep}{body}")
        out.append(body)
    return "".join(out) or "0"


def form_text(a: Form, names: Sequence[str] | None = None) -> str:
    """The form as a signed sum of wedge monomials in ascending mask order,
    with the given generator names (default e1..en); the model-file syntax
    and the text of every report."""
    names = names or default_names(a.n_gen)
    return _signed_sum(
        (a.terms[m], "^".join(names[i - 1] for i in indices_of(m)))
        for m in sorted(a.terms))


def wedge(a: Form, b: Form) -> Form:
    """Exterior product of two forms over the same frame."""
    return a.wedge(b)


def wedge_power(a: Form, m: int) -> Form:
    """m-fold exterior power; the 0th power is the constant 1."""
    if m < 0:
        raise DegreeError("negative wedge power")
    out = Form.constant(a.n_gen, 1)
    for _ in range(m):
        out = out.wedge(a)
    return out


def contract(v: Vector, a: Form) -> Form:
    """Interior product i_v a, an antiderivation of degree -1.

    Contracting a 0-form yields the zero 0-form.
    """
    if v.n_gen != a.n_gen:
        raise ModelMismatchError("vector and form frames differ")
    return Form._make(a.n_gen, max(a.degree - 1, 0), Contraction(v)(a.terms))


# ----- operators ------------------------------------------------------------


class Operator:
    """A linear operator on forms as a value, called on the terms of a form
    for the terms of its image; equal and hashed alike when its keys are,
    so equal operators built apart share memo entries.  No caller changes
    the dict it gets, which Inclusion returns as it is."""

    def __init__(self, *key):
        self.key = key
        self._hash = hash((type(self).__name__,) + key)

    def __eq__(self, other):
        return type(other) is type(self) and other.key == self.key

    def __hash__(self):
        return self._hash


class Inclusion(Operator):
    """The identity of a subcomplex into a larger one."""

    def __call__(self, terms: dict) -> dict:
        return terms


def _wedge(left: list, right: Mapping[int, Rational]) -> dict:
    """The one wedge kernel: the terms of a ^ b, given (mask, coefficient,
    _above(mask)) for each term of a, so that the merge sign of ma and mb
    is the parity of mb & _above(ma), and the terms of b."""
    out: dict[int, Rational] = {}
    for ma, ca, pa in left:
        for mb, cb in right.items():
            if ma & mb:
                continue
            c = ca * cb
            _accumulate(out, ma | mb, -c if (mb & pa).bit_count() & 1 else c)
    return out


class Wedge(Operator):
    """f -> form ^ inner(f), inner the identity when None, the terms of
    form taken once for _wedge."""

    def __init__(self, form: Form, inner: Operator | None = None):
        super().__init__(form, inner)
        self._left = [(m, c, _above(m)) for m, c in form.terms.items()]
        self._inner = inner

    def __call__(self, terms: dict) -> dict:
        return _wedge(self._left,
                      terms if self._inner is None else self._inner(terms))


class Contraction(Operator):
    """i_v, the nonzero components of v taken once."""

    def __init__(self, v: Vector):
        super().__init__(v)
        # the nonzero components by bit, with None standing for a component 1
        self._factor = [(1 << j, None if vj == 1 else vj)
                        for j, vj in enumerate(v.coeffs) if vj]

    def __call__(self, terms: dict) -> dict:
        out: dict[int, Rational] = {}
        for mask, coeff in terms.items():
            for low, vj in self._factor:
                if mask & low:
                    c = coeff if vj is None else coeff * vj
                    # the sign of the number of generators of mask below low
                    odd = (mask & (low - 1)).bit_count() & 1
                    _accumulate(out, mask ^ low, -c if odd else c)
        return out


def top_coefficient(a: Form) -> Rational:
    """Coefficient of e1 ^ ... ^ en; invariant integration up to a
    positive global constant."""
    if a.degree != a.n_gen:
        raise DegreeError(f"top_coefficient needs degree {a.n_gen}, "
                          f"got {a.degree}")
    return a.terms.get((1 << a.n_gen) - 1, 0)

