"""Exact scalar tower: rationals, algebraic extensions, dual numbers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from painleve_ds.scalars import (
    QQ,
    Dual,
    Extension,
    Gradient,
    PoleError,
    format_rational,
    is_zero_scalar,
    solve_rational_system,
    to_numeric,
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
            ext.lift(QQ(1)) / ext.lift(QQ(0))
        with pytest.raises(PoleError):
            Dual(QQ(1), QQ(1)) / Dual(QQ(0), QQ(1))

    @given(rationals, rationals)
    def test_arith_matches_fraction(self, a, b):
        # lifted rationals and constant duals compute exactly as Fraction does
        lift = sqrt2_ext().lift
        assert (lift(a) + lift(b)).rational_value() == a + b
        assert (lift(a) - lift(b)).rational_value() == a - b
        assert (lift(a) * lift(b)).rational_value() == a * b
        assert (Dual(a, QQ(0)) * Dual(b, QQ(0))).value == a * b
        if b != 0:
            assert (lift(a) / lift(b)).rational_value() == a / b
            assert (Dual(a, QQ(0)) / Dual(b, QQ(0))).value == a / b


def sqrt2_ext():
    return Extension([("s", 2, QQ(2))])


def mixed_ext():
    # two independent symbols: s^2 = 3, u^3 = 5/7
    return Extension([("s", 2, QQ(3)), ("u", 3, QQ(5, 7))])


class TestExtension:
    def test_symbol_squares_to_base(self):
        ext = sqrt2_ext()
        s = ext.symbol("s")
        assert (s * s).is_rational_value()
        assert (s * s).rational_value() == 2

    def test_inverse_of_symbol(self):
        ext = sqrt2_ext()
        s = ext.symbol("s")
        inv = s.inverse()
        assert (s * inv).rational_value() == 1
        # 1/sqrt(2) = sqrt(2)/2
        assert inv == s * QQ(1, 2)

    def test_inverse_of_mixed_element(self):
        ext = mixed_ext()
        x = ext.symbol("s") + ext.symbol("u") * 2 - QQ(1, 3)
        inv = x.inverse()
        assert (x * inv).rational_value() == 1

    def test_zero_has_no_inverse(self):
        ext = sqrt2_ext()
        with pytest.raises(PoleError):
            ext.lift(QQ(0)).inverse()

    def test_power_negative_exponent(self):
        ext = sqrt2_ext()
        s = ext.symbol("s")
        assert (s ** -2).rational_value() == QQ(1, 2)

    def test_evaluate(self):
        ext = sqrt2_ext()
        x = ext.symbol("s") * 3 + 1
        val = x.evaluate({"s": 2 ** 0.5})
        assert abs(val - (3 * 2 ** 0.5 + 1)) < 1e-12

    def test_ext_reduce_collapses_rational_values(self):
        # products come back reduced, so s*s is the rational 2 and s is not
        ext = sqrt2_ext()
        s = ext.symbol("s")
        assert (s * s).rational_value() == QQ(2)
        assert not s.is_rational_value()
        assert (s * s).coeffs == {(0,): QQ(2)}
        assert (s * s * s).coeffs == {(1,): QQ(2)}

    def test_cube_root_tower(self):
        ext = Extension([("u", 3, QQ(1, 4))])
        u = ext.symbol("u")
        assert (u ** 3).rational_value() == QQ(1, 4)
        assert (u ** 4) == u * QQ(1, 4)
        inv = u.inverse()
        assert inv == u * u * 4

    @given(rationals, rationals, rationals)
    def test_field_axioms_on_sqrt2(self, a, b, c):
        ext = sqrt2_ext()
        s = ext.symbol("s")
        x = s * a + b
        y = s * c + QQ(1)
        assert (x + y) - y == ext.lift(QQ(0)) + x
        assert x * y == y * x
        if not x.is_zero():
            assert (x * x.inverse()).rational_value() == 1


class TestDual:
    def test_cubic_derivative(self):
        # f(x) = x^3 - x at x = 2: value 6, derivative 11, and tangent
        # scales linearly so seed 5 gives 55
        def f(x):
            return x * x * x - x

        out = f(Dual(QQ(2), QQ(5)))
        assert out.value == 6
        assert out.tangent == 55

    def test_quotient_rule(self):
        # f(x, y) = x / y at (1, 2) with tangents (0, 1):
        # value 1/2, derivative -x/y^2 = -1/4
        def f(x, y):
            return x / y

        out = f(Dual(QQ(1), QQ(0)), Dual(QQ(2), QQ(1)))
        assert out.value == QQ(1, 2)
        assert out.tangent == QQ(-1, 4)

    def test_division_pole_in_tangent_path(self):
        with pytest.raises(PoleError):
            Dual(QQ(1), QQ(1)) / Dual(QQ(0), QQ(3))

    def test_dual_over_extension(self):
        # d/dt sqrt(t) at t = 9/4 is 1/(2 sqrt(t)) = s/(2t) with s = sqrt(t)
        ext = Extension([("s", 2, QQ(9, 4))])
        s = ext.symbol("s")
        sdot = ext.symbol_tangent("s", QQ(1))
        x = Dual(s, sdot)
        sq = x * x
        assert sq.value == QQ(9, 4)
        assert sq.tangent == QQ(1)

    @given(rationals, rationals, rationals, rationals)
    def test_product_rule(self, a, da, b, db):
        x = Dual(a, da)
        y = Dual(b, db)
        z = x * y
        assert z.value == a * b
        assert z.tangent == a * db + da * b


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
        assert out.grad[0] == f(Dual(QQ(2), QQ(1)), Dual(QQ(-5), QQ(0))).tangent
        assert out.grad[1] == f(Dual(QQ(2), QQ(0)), Dual(QQ(-5), QQ(1))).tangent
        assert out.grad == (QQ(-23, 4), QQ(3, 4))

    @pytest.mark.parametrize("zero", [QQ(0), 0.0])
    def test_division_by_zero_is_a_pole(self, zero):
        with pytest.raises(PoleError):
            Gradient(QQ(1), (QQ(1), QQ(0))) / zero

    def test_division_by_a_gradient_is_not_defined(self):
        x = Gradient(QQ(1), (QQ(1),))
        with pytest.raises(TypeError):
            x / x


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
        s = ext.symbol("s")
        m = [[QQ(1), QQ(1)], [QQ(1), QQ(-1)]]
        x = solve_rational_system(m, [s, ext.lift(QQ(0))])
        # x0 = x1 = s/2
        assert x[0] == s * QQ(1, 2)
        assert x[1] == s * QQ(1, 2)


class TestNumeric:
    def test_to_numeric_rational(self):
        assert to_numeric(QQ(1, 4), {}) == 0.25

    def test_to_numeric_extension(self):
        ext = sqrt2_ext()
        x = ext.symbol("s") + 1
        assert abs(to_numeric(x, {"s": 2 ** 0.5}) - (1 + 2 ** 0.5)) < 1e-12

    def test_is_zero_scalar(self):
        assert is_zero_scalar(QQ(0))
        assert not is_zero_scalar(QQ(1, 7))
        assert is_zero_scalar(sqrt2_ext().lift(QQ(0)))
