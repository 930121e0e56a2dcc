"""Exact scalar tower: rationals, one adjoined root, forward-mode gradients.

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
    """The ring Q[s]/(s**power - base): one root symbol adjoined to Q.

    The base is a nonzero rational fixed at construction time (the sample
    value of ``t`` enters through it).  The ring is a field only when
    ``s**power - base`` is irreducible: ``s**2 = 4`` has zero divisors, and
    inverting one raises :class:`PoleError`.
    """

    symbol: str
    power: int
    base: Fraction

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if self.power < 2:
            raise ValueError(f"symbol {self.symbol}: power must be >= 2")
        if self.base == 0:
            raise ValueError(f"symbol {self.symbol}: base must be nonzero")

    def root(self) -> "ExtScalar":
        """The adjoined symbol s."""
        return ExtScalar(self, (_ZERO, _ONE) + (_ZERO,) * (self.power - 2))


class ExtScalar:
    """Element of an :class:`Extension`: the tuple of rational coefficients
    of 1, s, ..., s**(power-1)."""

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
        return not any(self.coeffs[1:])

    # -- ring operations: zero slots are skipped, not added ----------------

    def __add__(self, other):
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            return ExtScalar(self.ext, tuple([
                (a + b if a else b) if b else a for a, b in zip(self.coeffs, other.coeffs)
            ]))
        if is_rational(other):
            return ExtScalar(self.ext, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return ExtScalar(self.ext, tuple([-c if c else c for c in self.coeffs]))

    def __sub__(self, other):
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            return ExtScalar(self.ext, tuple([
                (a - b if a else -b) if b else a for a, b in zip(self.coeffs, other.coeffs)
            ]))
        if is_rational(other):
            return ExtScalar(self.ext, (self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, ExtScalar):
            self._check_ring(other)
            return ExtScalar(self.ext, self._product(other.coeffs))
        if is_rational(other):
            return ExtScalar(self.ext, tuple([c * other if c else c for c in self.coeffs]))
        return NotImplemented

    __rmul__ = __mul__

    def _product(self, other: tuple) -> tuple:
        k = self.ext.power
        wide = [None] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other):
                    if b:
                        term = a * b
                        acc = wide[i + j]
                        wide[i + j] = term if acc is None else acc + term
        # s**(k+m) = base * s**m: one base multiply per wrapped slot
        low = wide[:k]
        for m, high in enumerate(wide[k:]):
            if high is not None:
                high = high * self.ext.base
                low[m] = high if low[m] is None else low[m] + high
        return tuple([_ZERO if c is None else c for c in low])

    def inverse(self) -> "ExtScalar":
        """Multiplicative inverse by solving ``self * x = 1`` over Q.

        Column j of the multiplication matrix is ``self * s**j``: the
        coefficients shifted j places, the wrapped ones times the base.
        """
        c = self.coeffs
        if not any(c[1:]):
            if not c[0]:
                raise PoleError("division by zero in extension")
            return ExtScalar(self.ext, (1 / c[0],) + c[1:])
        k, base = self.ext.power, self.ext.base
        matrix = [
            [c[i - j] if i >= j else base * c[i - j + k] for j in range(k)]
            for i in range(k)
        ]
        try:
            solution = solve_rational_system(matrix, [_ONE] + [_ZERO] * (k - 1))
        except PoleError:
            raise PoleError(f"{self!r} is a zero divisor in {self.ext!r}") from None
        return ExtScalar(self.ext, tuple(solution))

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
    dual number: the derivative along a curve, such as d/dt along a flow.
    The 2n unit directions of a phase space give a whole gradient in one
    forward pass.  Components may be any scalar; the gradient follows the
    scalar type of the values it is combined with, so float inputs give
    float partials and rational or root-extension inputs exact ones.
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


def solve_rational_system(matrix: list[list[Fraction]], rhs: list) -> list:
    """Solve ``matrix @ x = rhs`` exactly; the matrix must be rational.

    The right-hand side may hold any scalar type that supports arithmetic
    with rationals, so parameter reconstructions stay generic.  A tall
    system (more rows than unknowns) is eliminated as it stands, pivoting
    over all rows; the solution then satisfies the pivot rows, and the
    caller checks the others.  A matrix without full column rank raises
    :class:`PoleError`.
    """
    rows = len(matrix)
    n = len(matrix[0])
    a = [[Fraction(v) for v in row] for row in matrix]
    b = list(rhs)
    for col in range(n):
        pivot_row = next((r for r in range(col, rows) if a[r][col] != 0), None)
        if pivot_row is None:
            raise PoleError("singular rational system")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = b[col] * inv
        for r in range(rows):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    return b[:n]
