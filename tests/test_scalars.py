"""Exact scalar tower: rationals, single-root extensions, gradients."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from painleve_ds.scalars import (
    QQ,
    Extension,
    ExtScalar,
    Gradient,
    PoleError,
    format_rational,
    is_zero_scalar,
    solve_rational_system,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


class TestRationals:
    def test_parse_and_format_roundtrip(self):
        # rationals cross the CLI boundary as Fraction("p/q") strings
        assert format_rational(QQ(6, 4)) == "3/2"
        assert format_rational(QQ(-5)) == "-5"
        assert Fraction(format_rational(QQ(-22, 7))) == QQ(-22, 7)

    def test_division_by_zero_is_a_pole(self):
        ext = sqrt2_ext()
        with pytest.raises(PoleError):
            lift(ext, 1) / lift(ext, 0)
        with pytest.raises(PoleError):
            Gradient(QQ(1), (QQ(1),)) / Gradient(QQ(0), (QQ(1),))

    @given(rationals, rationals)
    def test_arith_matches_fraction(self, a, b):
        # lifted rationals and constant gradients compute exactly as Fraction does
        ext = sqrt2_ext()
        assert lift(ext, a) + lift(ext, b) == a + b
        assert lift(ext, a) - lift(ext, b) == a - b
        assert lift(ext, a) * lift(ext, b) == a * b
        assert (Gradient(a, (QQ(0),)) * Gradient(b, (QQ(0),))).value == a * b
        if b != 0:
            assert lift(ext, a) / lift(ext, b) == a / b
            assert (Gradient(a, (QQ(0),)) / Gradient(b, (QQ(0),))).value == a / b


def lift(ext, value):
    """The rational value as an element of ext."""
    return ExtScalar(ext, (QQ(value),) + (QQ(0),) * (ext.power - 1))


def sqrt2_ext():
    return Extension("s", 2, QQ(2))


def cube_root_ext():
    # u^3 = 5/7 is irreducible over Q, so the ring is a field
    return Extension("u", 3, QQ(5, 7))


class TestExtension:
    def test_symbol_squares_to_base(self):
        s = sqrt2_ext().root()
        assert (s * s).is_rational_value()
        assert s * s == 2

    def test_relation_must_have_power_two_and_nonzero_base(self):
        with pytest.raises(ValueError):
            Extension("s", 1, QQ(2))
        with pytest.raises(ValueError):
            Extension("s", 2, QQ(0))

    def test_inverse_of_symbol(self):
        s = sqrt2_ext().root()
        inv = s.inverse()
        assert s * inv == 1
        # 1/sqrt(2) = sqrt(2)/2
        assert inv == s * QQ(1, 2)

    def test_inverse_of_mixed_element(self):
        # every slot of 1, u, u^2 is nonzero, so the inverse takes the
        # full base-circulant solve
        u = cube_root_ext().root()
        x = u * u * 2 + u - QQ(1, 3)
        inv = x.inverse()
        assert x * inv == 1
        assert all(inv.coeffs)

    def test_zero_has_no_inverse(self):
        ext = sqrt2_ext()
        with pytest.raises(PoleError):
            lift(ext, 0).inverse()

    def test_zero_divisor_is_a_pole(self):
        # s^2 = 4 is a quotient ring with zero divisors: (s - 2)(s + 2) = 0
        s = Extension("s", 2, QQ(4)).root()
        assert ((s - 2) * (s + 2)).is_zero()
        with pytest.raises(PoleError):
            (s - 2).inverse()
        with pytest.raises(PoleError):
            1 / (s + 2)

    def test_power_negative_exponent(self):
        s = sqrt2_ext().root()
        assert (s * s).inverse() == QQ(1, 2)

    def test_ext_reduce_collapses_rational_values(self):
        # products come back reduced, so s*s is the rational 2 and s is not
        s = sqrt2_ext().root()
        assert s * s == QQ(2)
        assert not s.is_rational_value()
        assert (s * s).coeffs == (QQ(2), QQ(0))
        assert (s * s * s).coeffs == (QQ(0), QQ(2))

    def test_cube_root_tower(self):
        u = Extension("u", 3, QQ(1, 4)).root()
        assert u * u * u == QQ(1, 4)
        assert u * u * u * u == u * QQ(1, 4)
        assert u.inverse() == u * u * 4

    def test_mixed_rings_are_refused(self):
        with pytest.raises(ValueError):
            sqrt2_ext().root() + Extension("s", 2, QQ(3)).root()

    @given(rationals, rationals, rationals)
    def test_field_axioms_on_sqrt2(self, a, b, c):
        ext = sqrt2_ext()
        s = ext.root()
        x = s * a + b
        y = s * c + QQ(1)
        assert (x + y) - y == lift(ext, 0) + x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == 1

    @given(*[rationals] * 6)
    def test_field_axioms_on_cube_root(self, a0, a1, a2, b0, b1, c0):
        u = cube_root_ext().root()
        x = u * u * a2 + u * a1 + a0
        y = u * b1 + b0
        z = u * u + c0
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1
            assert y * x / x == y


class TestDual:
    """A gradient seeded along one direction is a dual number."""

    def test_cubic_derivative(self):
        # f(x) = x^3 - x at x = 2: value 6, derivative 11, and the
        # partial scales linearly so seed 5 gives 55
        def f(x):
            return x * x * x - x

        out = f(Gradient(QQ(2), (QQ(5),)))
        assert out.value == 6
        assert out.grad == (55,)

    def test_quotient_rule(self):
        # f(x, y) = x / y at (1, 2) with tangents (0, 1):
        # value 1/2, derivative -x/y^2 = -1/4
        def f(x, y):
            return x / y

        out = f(Gradient(QQ(1), (QQ(0),)), Gradient(QQ(2), (QQ(1),)))
        assert out.value == QQ(1, 2)
        assert out.grad == (QQ(-1, 4),)

    def test_division_pole_in_tangent_path(self):
        # a zero value fails before any partial, in either lane
        for zero in (QQ(0), 0.0):
            with pytest.raises(PoleError):
                Gradient(QQ(1), (QQ(1),)) / Gradient(zero, (QQ(3),))
            with pytest.raises(PoleError):
                QQ(1) / Gradient(zero, (QQ(3),))

    def test_dual_over_extension(self):
        # d/dt sqrt(t) at t = 9/4 is 1/(2 sqrt(t)) = s/(2t) = 2s/9 with s = sqrt(t)
        ext = Extension("s", 2, QQ(9, 4))
        x = Gradient(ext.root(), (ext.root() * QQ(2, 9),))
        sq = x * x
        assert sq.value == QQ(9, 4)
        assert sq.grad == (QQ(1),)
        # and 1/s has derivative -s'/s^2 = -1/(2 s^3) = -s/(2 t^2)
        inv = 1 / x
        assert inv.grad[0] == ext.root() * QQ(-8, 81)

    @given(rationals, rationals, rationals, rationals)
    def test_product_rule(self, a, da, b, db):
        z = Gradient(a, (da,)) * Gradient(b, (db,))
        assert z.value == a * b
        assert z.grad == (a * db + da * b,)


class TestGradient:
    def test_difference_and_negation(self):
        x = Gradient(QQ(3), (QQ(1), QQ(0)))
        y = Gradient(QQ(5), (QQ(0), QQ(1)))
        difference = x - y
        assert (difference.value, difference.grad) == (-2, (1, -1))
        shifted = x - QQ(1, 2)
        assert (shifted.value, shifted.grad) == (QQ(5, 2), (1, 0))
        reversed_ = 7 - x
        assert (reversed_.value, reversed_.grad) == (4, (-1, 0))
        negated = -y
        assert (negated.value, negated.grad) == (-5, (0, -1))

    def test_one_pass_matches_a_dual_pass_per_coordinate(self):
        # f(x, y) = (x^2 y - 3 x + 1 - y) / 4 at (2, -5)
        def f(x, y):
            return (x * x * y - 3 * x + 1 - y) / 4

        out = f(Gradient(QQ(2), (1, 0)), Gradient(QQ(-5), (0, 1)))
        assert out.value == f(QQ(2), QQ(-5))
        along_x = f(Gradient(QQ(2), (QQ(1),)), Gradient(QQ(-5), (QQ(0),)))
        along_y = f(Gradient(QQ(2), (QQ(0),)), Gradient(QQ(-5), (QQ(1),)))
        assert out.grad == along_x.grad + along_y.grad == (QQ(-23, 4), QQ(3, 4))

    @pytest.mark.parametrize("zero", [QQ(0), 0.0])
    def test_division_by_zero_is_a_pole(self, zero):
        with pytest.raises(PoleError):
            Gradient(QQ(1), (QQ(1), QQ(0))) / zero

    def test_quotient_rule(self):
        # f(x, y) = x / y + 3 / x at (2, -5):
        # df/dx = 1/y - 3/x^2 = -19/20, df/dy = -x/y^2 = -2/25
        x = Gradient(QQ(2), (QQ(1), QQ(0)))
        y = Gradient(QQ(-5), (QQ(0), QQ(1)))
        out = x / y + 3 / x
        assert out.value == QQ(11, 10)
        assert out.grad == (QQ(-19, 20), QQ(-2, 25))


class TestSolve:
    def test_exact_solution(self):
        m = [[QQ(2), QQ(1)], [QQ(1), QQ(3)]]
        rhs = [QQ(5), QQ(10)]
        x = solve_rational_system(m, rhs)
        assert x == [QQ(1), QQ(3)]

    def test_singular_raises(self):
        m = [[QQ(1), QQ(2)], [QQ(2), QQ(4)]]
        with pytest.raises(PoleError):
            solve_rational_system(m, [QQ(1), QQ(1)])

    def test_extension_rhs(self):
        ext = sqrt2_ext()
        s = ext.root()
        m = [[QQ(1), QQ(1)], [QQ(1), QQ(-1)]]
        x = solve_rational_system(m, [s, lift(ext, 0)])
        # x0 = x1 = s/2
        assert x[0] == s * QQ(1, 2)
        assert x[1] == s * QQ(1, 2)


class TestNumeric:
    def test_is_zero_scalar(self):
        assert is_zero_scalar(QQ(0))
        assert not is_zero_scalar(QQ(1, 7))
        assert is_zero_scalar(lift(sqrt2_ext(), 0))
        # a gradient is zero only when its value and every partial are
        assert is_zero_scalar(Gradient(QQ(0), (QQ(0), 0.0)))
        assert not is_zero_scalar(Gradient(QQ(0), (QQ(0), QQ(1))))
        assert not is_zero_scalar(Gradient(QQ(1), (QQ(0),)))
