"""Hamiltonian systems and reduction parameter maps, checked exactly."""

import random
from fractions import Fraction as QQ

import pytest

from painleve_ds.flow import resolve_partition
from painleve_ds.painleve import (
    SystemParameters,
    check_normalization,
    gauge_log_derivatives,
    h4,
    h5,
    h6,
    hamiltonian,
    reduction_constants,
    reduction_parameters,
    vector_field,
    weight_sum_form,
)
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import random_rational, rational_avoiding

FIVE = list(REDUCTIONS)
SYSTEMS = ["p6", "a4", "a5", "cp6"]

# seven-node Lagrange differentiation at 0: exact for polynomials of degree <= 6
STENCIL = (
    (3, QQ(1, 60)),
    (2, QQ(-3, 20)),
    (1, QQ(3, 4)),
    (-1, QQ(-3, 4)),
    (-2, QQ(3, 20)),
    (-3, QQ(-1, 60)),
)


def _random_params(rng, system):
    record = reduction(resolve_partition(system))
    alpha = tuple(random_rational(rng) for _ in range(record.weight_count))
    eta = random_rational(rng) if record.eta is not None else None
    return SystemParameters(alpha, eta)


def _stencil_partial(system, pairs, t, params, pair_index, slot):
    # the Hamiltonians are polynomial in every canonical variable, so a
    # wide enough interpolation stencil recovers the partial exactly
    total = QQ(0)
    for offset, weight in STENCIL:
        shifted = [list(pq) for pq in pairs]
        shifted[pair_index][slot] = shifted[pair_index][slot] + offset
        value = hamiltonian(system, tuple(tuple(pq) for pq in shifted), t, params)
        total += weight * value
    return total


class TestBuildingBlocks:
    def test_h4_frozen_value(self):
        assert h4(2, 3, 5, QQ(1, 2), QQ(1, 3)) == -26

    def test_h5_frozen_value(self):
        assert h5(2, 3, 5, QQ(1, 2), QQ(1, 3), QQ(1, 4)) == QQ(105, 2)

    def test_h6_frozen_value(self):
        assert h6(2, 3, 5, QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(1, 5)) == QQ(-847, 20)


class TestCanonicalEquations:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_vector_field_is_the_canonical_flow(self, system):
        rng = random.Random(11)
        for _ in range(5):
            pairs = tuple(
                (random_rational(rng), random_rational(rng))
                for _ in range(reduction(resolve_partition(system)).pair_count)
            )
            t = rational_avoiding(rng, (0, 1))
            params = _random_params(rng, system)
            flow = vector_field(system, pairs, t, params)
            for k in range(len(pairs)):
                dh_dp = _stencil_partial(system, pairs, t, params, k, 1)
                dh_dq = _stencil_partial(system, pairs, t, params, k, 0)
                assert flow[k][0] == dh_dp
                assert flow[k][1] == -dh_dq

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_float_lane_matches_the_exact_flow(self, system):
        # the same one-pass gradient on float pairs and float weights
        # agrees with the exact flow and yields plain floats
        rng = random.Random(23)
        for _ in range(5):
            pairs = tuple(
                (random_rational(rng), random_rational(rng))
                for _ in range(reduction(resolve_partition(system)).pair_count)
            )
            t = rational_avoiding(rng, (0, 1))
            params = _random_params(rng, system)
            exact = vector_field(system, pairs, t, params)
            float_params = SystemParameters(
                tuple(float(a) for a in params.alpha),
                None if params.eta is None else float(params.eta),
            )
            float_pairs = tuple((float(q), float(p)) for q, p in pairs)
            approx = vector_field(system, float_pairs, float(t), float_params)
            for exact_pair, float_pair in zip(exact, approx):
                for e, f in zip(exact_pair, float_pair):
                    assert type(f) is float
                    assert f == pytest.approx(float(e), rel=1e-12)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian("p7", ((QQ(1), QQ(1)),), QQ(2), SystemParameters((QQ(1),) * 5))


class TestParameterMaps:
    @pytest.mark.parametrize("parts", FIVE)
    def test_weight_sum_is_identically_one(self, parts):
        form = weight_sum_form(parts)
        assert form.const == 1
        assert all(c == 0 for c in form.kappa)
        assert all(c == 0 for c in form.rho)

    @pytest.mark.parametrize("parts", FIVE)
    def test_round_trip_through_constants(self, parts):
        rng = random.Random(7)
        for _ in range(10):
            kappas = tuple(random_rational(rng) for _ in range(reduction(parts).kappa_count))
            rhos = tuple(random_rational(rng) for _ in range(reduction(parts).rho_count))
            params = reduction_parameters(parts, kappas, rhos)
            kap2, rho2 = reduction_constants(parts, params)
            assert sum(kap2) == 0
            again = reduction_parameters(parts, kap2, rho2)
            assert again.alpha == params.alpha
            assert again.eta == params.eta

    @pytest.mark.parametrize("parts", FIVE)
    def test_kappa_shift_invariance(self, parts):
        # the parameter map factors through kappa differences, which is what
        # makes the zero-sum gauge fixing in the inverse legitimate
        rng = random.Random(13)
        kappas = [random_rational(rng) for _ in range(reduction(parts).kappa_count)]
        rhos = [random_rational(rng) for _ in range(reduction(parts).rho_count)]
        shift = random_rational(rng)
        base = reduction_parameters(parts, kappas, rhos)
        moved = reduction_parameters(parts, [k + shift for k in kappas], rhos)
        assert moved.alpha == base.alpha
        assert moved.eta == base.eta

    def test_rejects_weights_off_the_image(self):
        bad = SystemParameters((QQ(1), QQ(1), QQ(1), QQ(1), QQ(1)))
        with pytest.raises(ValueError):
            reduction_constants((2, 2), bad)

    def test_normalization_report(self):
        report = check_normalization(samples=50, seed=1)
        assert report.passed
        names = [c.name for c in report.checks]
        for parts in FIVE:
            tag = "(" + ",".join(str(p) for p in parts) + ")"
            assert any(tag in n for n in names)


class TestGaugeLogDerivatives:
    @pytest.mark.parametrize("parts", FIVE)
    def test_keys_match_gauge_names(self, parts):
        rng = random.Random(3)
        kappas = tuple(random_rational(rng) for _ in range(reduction(parts).kappa_count))
        rhos = tuple(random_rational(rng) for _ in range(reduction(parts).rho_count))
        params = reduction_parameters(parts, kappas, rhos)
        pairs = tuple(
            (random_rational(rng), random_rational(rng))
            for _ in range(reduction(parts).pair_count)
        )
        t = rational_avoiding(rng, (0, 1))
        logs = gauge_log_derivatives(parts, pairs, t, params)
        assert set(logs) == set(reduction(parts).gauge_names)
