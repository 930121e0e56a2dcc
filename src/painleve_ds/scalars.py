"""Exact scalar tower: rationals, one adjoined square root, forward-mode gradients.

All higher layers are generic over the scalar type.  Formula code written
with ordinary ``+ - * /`` runs unchanged over ``Fraction``, ``ExtScalar``
(rationals with one root symbol adjoined, such as ``s**2 = t``),
``Gradient`` values carrying their partials along seeded directions, and
plain ``float``/``complex`` for the numeric backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC
from operator import add, sub

QQ = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleError(ArithmeticError):
    """Division by a value that is zero (or a zero divisor) in its ring."""


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def is_rational(x) -> bool:
    return isinstance(x, (int, _RationalABC)) and not isinstance(x, bool)


@dataclass(frozen=True)
class Extension:
    """The ring Q[s]/(s**2 - base): one square root adjoined to Q.

    The base is a nonzero rational fixed at construction time.  The ring
    is a field only when the base is not a square: ``s**2 = 4`` has zero
    divisors, and inverting one raises :class:`PoleError`.
    """

    symbol: str
    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if self.base == 0:
            raise ValueError(f"symbol {self.symbol}: base must be nonzero")

    def root(self) -> "ExtScalar":
        """The adjoined symbol s."""
        return ExtScalar(self, (_ZERO, _ONE))


class ExtScalar:
    """Element a + b*s of an :class:`Extension`, stored as the pair (a, b)."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext: Extension, coeffs: tuple):
        self.ext = ext
        self.coeffs = coeffs

    def _check_ring(self, other: "ExtScalar"):
        if other.ext is not self.ext and other.ext != self.ext:
            raise ValueError("mixed extensions")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational_value(self) -> bool:
        return not self.coeffs[1]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            c, d = other.coeffs
            return ExtScalar(self.ext, (a + c, b + d))
        if is_rational(other):
            return ExtScalar(self.ext, (a + other, b))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a, b = self.coeffs
        return ExtScalar(self.ext, (-a, -b))

    def __sub__(self, other):
        a, b = self.coeffs
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            c, d = other.coeffs
            return ExtScalar(self.ext, (a - c, b - d))
        if is_rational(other):
            return ExtScalar(self.ext, (a - other, b))
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b = self.coeffs
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            # (a + b s)(c + d s) = (a c + b d base) + (a d + b c) s; most
            # factors are rational or a multiple of s, so zero slots are skipped
            c, d = other.coeffs
            if not d:
                return self * c
            if not b:
                return other * a
            if not a and not c:
                return ExtScalar(self.ext, (b * d * self.ext.base, _ZERO))
            return ExtScalar(self.ext, (a * c + b * d * self.ext.base, a * d + b * c))
        if is_rational(other):
            return ExtScalar(self.ext, (a * other if a else a, b * other if b else b))
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        """(a + b s)**-1 = (a - b s) / (a**2 - b**2 base); a zero norm is a pole."""
        a, b = self.coeffs
        norm = a * a - b * b * self.ext.base
        if not norm:
            raise PoleError(f"{self!r} is zero or a zero divisor in {self.ext!r}")
        return ExtScalar(self.ext, (a / norm, -b / norm))

    def __truediv__(self, other):
        if isinstance(other, ExtScalar):
            return self * other.inverse()
        if is_rational(other):
            if not other:
                raise PoleError("division by zero in extension")
            return self * (_ONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            return self.coeffs == other.coeffs
        if is_rational(other):
            return self.is_rational_value() and self.coeffs[0] == other
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        terms = [f"{c}*{self.ext.symbol}^{e}" if e else f"{c}" for e, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) or "0"


class Gradient:
    """A value with its partial derivatives along a fixed set of directions.

    ``grad`` holds one partial per seeded direction.  One direction is a
    dual number: the derivative along a curve, such as d/dt along a flow
    or a root's rate.  Seeded with unit vectors over recording scalars,
    2n directions trace a Hamiltonian's whole gradient at once.
    Components may be any scalar; the gradient follows the scalar type of
    the values it is combined with, so float inputs give float partials,
    rational or root-extension inputs exact ones, and recording scalars a
    tape.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: tuple):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Gradient):
            return Gradient(self.value + other.value, tuple(map(add, self.grad, other.grad)))
        return Gradient(self.value + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Gradient(-self.value, tuple([-g for g in self.grad]))

    def __sub__(self, other):
        if isinstance(other, Gradient):
            return Gradient(self.value - other.value, tuple(map(sub, self.grad, other.grad)))
        return Gradient(self.value - other, self.grad)

    def __rsub__(self, other):
        return Gradient(other - self.value, tuple([-g for g in self.grad]))

    def __mul__(self, other):
        if isinstance(other, Gradient):
            u, v = self.value, other.value
            return Gradient(u * v, tuple([u * b + a * v for a, b in zip(self.grad, other.grad)]))
        return Gradient(self.value * other, tuple([g * other for g in self.grad]))

    __rmul__ = __mul__

    # a zero divisor fails on the value, before any partial is computed

    def __truediv__(self, other):
        if isinstance(other, Gradient):
            # quotient rule (a/v)' = (a' - (a/v) v') / v, one reciprocal
            inv = _checked_div(1, other.value)
            value = self.value * inv
            return Gradient(
                value, tuple([(a - value * b) * inv for a, b in zip(self.grad, other.grad)])
            )
        value = _checked_div(self.value, other)
        return Gradient(value, tuple([g / other for g in self.grad]))

    def __rtruediv__(self, other):
        inv = _checked_div(1, self.value)
        value = other * inv
        return Gradient(value, tuple([-(value * b) * inv for b in self.grad]))


def _checked_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        raise PoleError("division by zero") from None


def value_of(x):
    """The value of a Gradient; any other scalar is its own value."""
    return x.value if isinstance(x, Gradient) else x


def tangent_of(x):
    """The partial along the first seeded direction; 0 for a constant."""
    return x.grad[0] if isinstance(x, Gradient) else 0


def is_zero_scalar(x) -> bool:
    if isinstance(x, Gradient):
        return is_zero_scalar(x.value) and all(is_zero_scalar(g) for g in x.grad)
    if isinstance(x, ExtScalar):
        return x.is_zero()
    return x == 0


def row_reduce(rows: list, n: int) -> list:
    """Gauss-Jordan elimination of the first n columns of ``rows``, exactly.

    Those columns must be rational; the columns after them may hold any
    scalar type that supports arithmetic with rationals, and ride along:
    with a right-hand side there, the first n rows end holding the
    solution.  A tall matrix is eliminated as it stands, pivoting over all
    rows: the first n rows of the result are the pivot rows, reduced to
    the identity in the first n columns, and the others are zero there.
    Zero entries of a pivot row are skipped.  A matrix without full
    column rank raises :class:`PoleError`.
    """
    a = [[*map(Fraction, row[:n]), *row[n:]] for row in rows]
    for col in range(n):
        pivot_row = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot_row is None:
            raise PoleError("singular rational system")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv if v else v for v in a[col]]
        for r, row in enumerate(a):
            if r != col and row[col] != 0:
                factor = row[col]
                a[r] = [v - factor * w if w else v for v, w in zip(row, a[col])]
    return a
