"""Hamiltonian systems and reduction parameter maps, checked exactly."""

import math
import random
from fractions import Fraction as QQ

import pytest

from painleve_ds import painleve
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
from painleve_ds.sampling import draw_constants, random_rational, rational_avoiding
from painleve_ds.scalars import Gradient, PoleError, row_reduce, tangent_of, value_of

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


def _integer_point(record):
    # t = 5 with integer pairs and weights: every division in the
    # Hamiltonians and gauge blocks is then int by int
    pairs = tuple((2 + k, 3 + k) for k in range(record.pair_count))
    alpha = tuple(range(1, record.weight_count + 1))
    return pairs, 5, SystemParameters(alpha, 7 if record.eta is not None else None)


def _as_fractions(pairs, t, params):
    eta = None if params.eta is None else QQ(params.eta)
    return (
        tuple((QQ(q), QQ(p)) for q, p in pairs),
        QQ(t),
        SystemParameters(tuple(map(QQ, params.alpha)), eta),
    )


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

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_integer_inputs_stay_exact(self, system):
        point = _integer_point(reduction(resolve_partition(system)))
        energy = hamiltonian(system, *point)
        assert type(energy) is QQ
        assert energy == hamiltonian(system, *_as_fractions(*point))
        flow = vector_field(system, *point)
        assert all(type(v) is QQ for pair in flow for v in pair)
        assert flow == vector_field(system, *_as_fractions(*point))

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian("p7", ((QQ(1), QQ(1)),), QQ(2), SystemParameters((QQ(1),) * 5))


def _gradient_pass(system, pairs, t, params, energy=hamiltonian):
    # the reference: every phase coordinate seeded with its unit vector,
    # so one forward pass through the energy carries the whole gradient
    size = 2 * len(pairs)
    unit = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    seeded = tuple(
        (Gradient(q, unit[2 * k]), Gradient(p, unit[2 * k + 1]))
        for k, (q, p) in enumerate(pairs)
    )
    grad = energy(system, seeded, t, params).grad
    return tuple((grad[2 * k + 1], -grad[2 * k]) for k in range(len(pairs)))


def _random_point(rng, system):
    pairs = tuple(
        (random_rational(rng), random_rational(rng))
        for _ in range(reduction(resolve_partition(system)).pair_count)
    )
    return pairs, rational_avoiding(rng, (0, 1)), _random_params(rng, system)


class TestGeneratedGradient:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_equals_a_gradient_pass_at_exact_points(self, system):
        rng = random.Random(31)
        for _ in range(5):
            point = _random_point(rng, system)
            assert vector_field(system, *point) == _gradient_pass(system, *point)

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_equals_a_gradient_pass_along_one_direction(self, system):
        # the shape equivariance_residual passes: Gradient(Fraction) pairs
        rng = random.Random(37)
        for _ in range(5):
            pairs, t, params = _random_point(rng, system)
            lifted = tuple(
                (Gradient(q, (random_rational(rng),)), Gradient(p, (random_rational(rng),)))
                for q, p in pairs
            )
            got = vector_field(system, lifted, t, params)
            want = _gradient_pass(system, lifted, t, params)
            for got_pair, want_pair in zip(got, want):
                for g, w in zip(got_pair, want_pair):
                    assert (value_of(g), tangent_of(g)) == (value_of(w), tangent_of(w))

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_matches_a_gradient_pass_at_float_points(self, system):
        rng = random.Random(41)
        for _ in range(5):
            pairs, t, params = _random_point(rng, system)
            pairs = tuple((float(q), float(p)) for q, p in pairs)
            params = SystemParameters(
                tuple(map(float, params.alpha)),
                None if params.eta is None else float(params.eta),
            )
            got = vector_field(system, pairs, float(t), params)
            want = _gradient_pass(system, pairs, float(t), params)
            for got_pair, want_pair in zip(got, want):
                for g, w in zip(got_pair, want_pair):
                    assert type(g) is float
                    assert g == pytest.approx(w, rel=1e-12)

    def test_a_divisor_that_varies(self, monkeypatch):
        # no shipped Hamiltonian divides by a phase coordinate or negates
        # one, so Gradient's quotient rule and negation on Traced values
        # run on a toy
        def toy(system, pairs, t, params):
            ((q, p),) = pairs
            return (q * p - params.alpha[0]) / (q - t * p) + 3 / p - -q * t

        monkeypatch.setattr(painleve, "hamiltonian", toy)
        painleve._traced_system.cache_clear()
        try:
            rng = random.Random(53)
            for _ in range(5):
                point = _random_point(rng, "p6")
                assert vector_field("p6", *point) == _gradient_pass("p6", *point, toy)
        finally:
            painleve._traced_system.cache_clear()

    def test_a_second_call_does_not_trace_again(self, monkeypatch):
        calls = []
        original = painleve.hamiltonian

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(painleve, "hamiltonian", counted)
        painleve._traced_system.cache_clear()
        point = _random_point(random.Random(43), "cp6")
        first = vector_field("cp6", *point)
        assert calls == ["cp6"]
        assert vector_field("cp6", *point) == first
        assert calls == ["cp6"]


class TestPoleContract:
    @pytest.mark.parametrize("system, t", [("p6", 1), ("cp6", 1), ("a5", 0)])
    def test_exact_zero_divisor_is_a_pole(self, system, t):
        pairs, _, params = _random_point(random.Random(47), system)
        with pytest.raises(PoleError):
            vector_field(system, pairs, QQ(t), params)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            vector_field("p7", ((QQ(1), QQ(1)),), QQ(2), SystemParameters((QQ(1),) * 5))


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

    @pytest.mark.parametrize("parts", FIVE)
    def test_wrong_constant_counts_are_refused(self, parts):
        # a short list must not read as zeros, nor a long one lose its tail
        record = reduction(parts)
        kappas = [QQ(k + 1, 7) for k in range(record.kappa_count)]
        rhos = [QQ(k + 3, 5) for k in range(record.rho_count)]
        expected = f"{record.kappa_count} kappas and {record.rho_count} rhos"
        for bad in (
            (kappas[:-1], rhos), (kappas + [QQ(1)], rhos),
            (kappas, rhos[:-1]), (kappas, rhos + [QQ(1)]),
        ):
            with pytest.raises(ValueError, match=expected):
                reduction_parameters(parts, *bad)

    @pytest.mark.parametrize("parts", FIVE)
    def test_the_factored_inverse_equals_a_direct_solve(self, parts):
        # solving the map next to its right-hand side, weights at hand:
        # rational weights lie on the image; float ones sit just off it,
        # where a different left inverse would give different constants
        rng = random.Random(19)
        record = reduction(parts)
        for convert in (QQ, float) * 5:
            kappas = tuple(convert(random_rational(rng)) for _ in range(record.kappa_count))
            rhos = tuple(convert(random_rational(rng)) for _ in range(record.rho_count))
            params = reduction_parameters(parts, kappas, rhos)
            forms = (*record.alpha, *(() if record.eta is None else (record.eta,)))
            weights = (*params.alpha, *(() if record.eta is None else (params.eta,)))
            rows = [[QQ(1)] * record.kappa_count + [QQ(0)] * record.rho_count + [QQ(0)]]
            rows += [list(f.kappa) + list(f.rho) + [QQ(w) - f.const] for f, w in zip(forms, weights)]
            n = record.kappa_count + record.rho_count
            solved = [row[n] for row in row_reduce(rows, n)[:n]]
            assert reduction_constants(parts, params) == (
                tuple(solved[: record.kappa_count]), tuple(solved[record.kappa_count:])
            )

    @pytest.mark.parametrize("parts", FIVE)
    def test_random_weights_are_off_the_image(self, parts):
        # random weights do not sum to one, so no constants reach them
        rng = random.Random(29)
        for _ in range(5):
            with pytest.raises(ValueError, match="not in the image"):
                reduction_constants(parts, _random_params(rng, reduction(parts).system))

    def test_rejects_weights_off_the_image(self):
        bad = SystemParameters((QQ(1), QQ(1), QQ(1), QQ(1), QQ(1)))
        with pytest.raises(ValueError):
            reduction_constants((2, 2), bad)

    @pytest.mark.parametrize("parts", FIVE)
    def test_float_weights_are_checked_to_a_tolerance(self, parts):
        # float weights on the image are accepted; moved 1e-6 off it,
        # they are still refused
        rng = random.Random(5)
        kappas = tuple(float(random_rational(rng)) for _ in range(reduction(parts).kappa_count))
        rhos = tuple(float(random_rational(rng)) for _ in range(reduction(parts).rho_count))
        params = reduction_parameters(parts, kappas, rhos)
        again = reduction_parameters(parts, *reduction_constants(parts, params))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(again.alpha, params.alpha))
        moved = SystemParameters((params.alpha[0] + 1e-6,) + params.alpha[1:], params.eta)
        with pytest.raises(ValueError, match="not in the image"):
            reduction_constants(parts, moved)

    @pytest.mark.parametrize("parts", FIVE)
    def test_the_image_tolerance_clears_rounding_and_catches_a_shift(self, parts):
        # float weights from float constants sit at most about 9e-16 times
        # the largest weight off the image (RESOLUTIONS.md): a weight moved
        # 1e-14 times that is accepted, and one moved 1e-10 times is refused
        rng = random.Random(41)
        record = reduction(parts)
        for _ in range(20):
            kappas, rhos = (tuple(map(float, c)) for c in draw_constants(record, rng))
            params = reduction_parameters(parts, kappas, rhos)
            largest = max(abs(w) for w in (*params.alpha, *(() if params.eta is None else (params.eta,))))
            for index in range(record.weight_count):
                moved = lambda share: SystemParameters(
                    tuple(w + share * largest * (i == index) for i, w in enumerate(params.alpha)), params.eta
                )
                reduction_constants(parts, moved(1e-14))
                with pytest.raises(ValueError, match="not in the image"):
                    reduction_constants(parts, moved(1e-10))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("parts", [(2, 2), (3, 3)])
    def test_a_non_finite_weight_is_named(self, parts, bad):
        record = reduction(parts)
        kappas = [QQ(k + 1, 7) for k in range(record.kappa_count)]
        params = reduction_parameters(parts, kappas, [QQ(k + 3, 5) for k in range(record.rho_count)])
        alpha = tuple(float(a) for a in params.alpha)
        with pytest.raises(ValueError, match=rf"weight alpha2 = {bad} is not finite"):
            reduction_constants(parts, SystemParameters(alpha[:2] + (bad,) + alpha[3:], params.eta))
        if params.eta is not None:
            with pytest.raises(ValueError, match=rf"weight eta = {bad} is not finite"):
                reduction_constants(parts, SystemParameters(alpha, bad))

    @pytest.mark.parametrize("parts,change", [
        ((3, 3), lambda params: SystemParameters(params.alpha)),
        ((3, 3), lambda params: SystemParameters(params.alpha + (QQ(0),), params.eta)),
        ((2, 2), lambda params: SystemParameters(params.alpha, QQ(1))),
    ], ids=["cp6 without eta", "cp6 with a seventh weight", "p6 with an eta"])
    def test_weights_that_do_not_fit_are_named(self, parts, change):
        record = reduction(parts)
        kappas = [QQ(k + 1, 7) for k in range(record.kappa_count)]
        params = reduction_parameters(parts, kappas, [QQ(k + 3, 5) for k in range(record.rho_count)])
        eta = "and eta" if record.eta is not None else "and no eta"
        with pytest.raises(ValueError, match=f"^the {record.system} system takes {record.weight_count} weights {eta}$"):
            reduction_constants(parts, change(params))

    def test_a_wrong_weight_sum_is_witnessed(self, monkeypatch, fresh_claim_kernels):
        # weights doubled sum to 2: each sampled claim fails at its first point
        original = painleve.reduction_parameters
        calls = []

        def doubled(parts, kappas, rhos):
            calls.append(parts)
            params = original(parts, kappas, rhos)
            return SystemParameters(tuple(2 * a for a in params.alpha), params.eta)

        monkeypatch.setattr(painleve, "reduction_parameters", doubled)
        report = check_normalization(samples=3, seed=0)
        sampled = [c for c in report.checks if "sampled" in c.name]
        assert len(sampled) == len(FIVE) == len(calls)
        assert all(c.passed for c in report.checks if c not in sampled)
        for claim in sampled:
            assert not claim.passed
            assert set(claim.witness) == {"sample_index", "kappas", "rhos", "sum"}
            assert claim.witness["sample_index"] == 0
            assert claim.witness["sum"] == 2

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

    @pytest.mark.parametrize("parts", FIVE)
    def test_integer_inputs_stay_exact(self, parts):
        point = _integer_point(reduction(parts))
        logs = gauge_log_derivatives(parts, *point)
        assert all(type(v) is QQ for v in logs.values())
        assert logs == gauge_log_derivatives(parts, *_as_fractions(*point))
