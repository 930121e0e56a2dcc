"""Exact zero-curvature and constraint checks for the five reductions."""

import random
from fractions import Fraction as QQ

import pytest

from painleve_ds.lax import (
    canonical_to_ds,
    constraint_residuals,
    ds_to_canonical,
    exact_frame,
    lax_matrices,
    numeric_frame,
    residual_magnitude,
    sample_point,
    verify_partition,
    zero_curvature_residual,
)
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.scalars import PoleError, is_zero_scalar

FIVE = list(REDUCTIONS)

# rational times on every admissible side of each record's singular times
SIDES = {
    parts: [t for t in (QQ(-3, 2), QQ(1, 2), QQ(5, 2)) if t not in record.singular_times]
    for parts, record in REDUCTIONS.items()
}


def _clean_point(parts, seed=0):
    return sample_point(parts, random.Random(seed))


class TestFrames:
    def test_cube_root_frame(self):
        frame = exact_frame((3, 3), QQ(2))
        assert frame.root * frame.root * frame.root == frame.extension.lift(QQ(1, 2))

    @pytest.mark.parametrize("parts", [(2, 2), (2, 2, 1)])
    def test_square_root_frame(self, parts):
        frame = exact_frame(parts, QQ(3))
        assert frame.root * frame.root == frame.extension.lift(QQ(3))

    def test_constant_root_frame(self):
        frame = exact_frame((3, 1), QQ(5))
        assert frame.root * frame.root == frame.extension.lift(QQ(6))
        # tau scales linearly with t for this partition
        assert reduction((3, 1)).tau(QQ(5), frame.root) == QQ(-5, 3) * frame.root

    def test_negative_double_frame(self):
        frame = exact_frame((4, 1), QQ(3))
        assert frame.root * frame.root == frame.extension.lift(QQ(-6))

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2), (2, 2, 1), (4, 1)])
    def test_zero_time_excluded(self, parts):
        with pytest.raises(PoleError):
            exact_frame(parts, QQ(0))

    @pytest.mark.parametrize(
        "parts,t", [((3, 3), 8.0), ((2, 2), 9.0), ((3, 1), 2.0), ((4, 1), -2.0)]
    )
    def test_numeric_frame_matches_relations(self, parts, t):
        relation = reduction(parts).root
        frame = numeric_frame(parts, t)
        assert abs(frame.root**relation.power - float(relation.base(QQ(t)))) < 1e-12

    @pytest.mark.parametrize("parts", FIVE)
    def test_frames_match_relations_on_every_side(self, parts):
        # on each side of the singular times, the float root satisfies the
        # exact frame's relation root^k = base, and both tangents satisfy
        # k root^(k-1) root' = base'
        relation = reduction(parts).root
        k = relation.power
        for t in SIDES[parts]:
            exact = exact_frame(parts, t)
            lift = exact.extension.lift
            assert exact.root ** k == lift(relation.base(t))
            assert k * exact.root ** (k - 1) * exact.root_tangent == lift(relation.base_rate(t))
            frame = numeric_frame(parts, float(t))
            assert abs(frame.root**k - float(relation.base(t))) < 1e-12
            assert abs(k * frame.root ** (k - 1) * frame.root_tangent - float(relation.base_rate(t))) < 1e-12
            # the exact tangent, evaluated at the float root, is the float tangent
            at_root = exact.root_tangent.evaluate({relation.symbol: frame.root})
            assert abs(at_root - frame.root_tangent) < 1e-12


class TestCoordinateMaps:
    @pytest.mark.parametrize("parts", FIVE)
    def test_round_trip_is_identity(self, parts):
        point = _clean_point(parts, seed=21)
        state = canonical_to_ds(
            parts, point["pairs"], point["t"], point["gauges"],
            point["kappas"], point["rhos"],
        )
        pairs, gauges = ds_to_canonical(state)
        assert pairs == point["pairs"]
        assert gauges == point["gauges"]

    def test_recovered_scale_variable_matches_inverse_map(self):
        # the first canonical coordinate is w1/(tau^2 w3), so the inverse
        # map must produce w1 = q1 tau^2 w3 = 1 * 4 * 1 at tau = 2
        frame = numeric_frame((3, 3), 0.125)
        state = canonical_to_ds(
            (3, 3), ((1.0, 0.5), (2.0, 0.25)), 0.125, {"w3": 1.0},
            tuple(float(k + 1) for k in range(6)), (1.0,), frame=frame,
        )
        assert abs(state.variables["w1"] - 4.0) < 1e-12

    @pytest.mark.parametrize("parts", FIVE)
    def test_constructed_states_satisfy_constraints(self, parts):
        for seed in range(5):
            point = _clean_point(parts, seed=seed)
            state = canonical_to_ds(
                parts, point["pairs"], point["t"], point["gauges"],
                point["kappas"], point["rhos"],
            )
            for name, residual in constraint_residuals(state).items():
                assert is_zero_scalar(residual), (parts, name)

    @pytest.mark.parametrize("parts", FIVE)
    def test_identities_feel_single_variable_bumps(self, parts):
        from painleve_ds.lax import DSState

        point = _clean_point(parts, seed=31)
        state = canonical_to_ds(
            parts, point["pairs"], point["t"], point["gauges"],
            point["kappas"], point["rhos"],
        )
        baseline = constraint_residuals(state)
        disturbed = set()
        for name in state.variables:
            bumped = dict(state.variables)
            bumped[name] = bumped[name] + 1
            moved = DSState(
                partition=state.partition, variables=bumped, t=state.t,
                tau=state.tau, root=state.root, kappas=state.kappas,
                rhos=state.rhos,
            )
            for key, value in constraint_residuals(moved).items():
                if not is_zero_scalar(value):
                    disturbed.add(key)
        # no identity is vacuous: each reacts to some single-variable bump
        assert disturbed == set(baseline)

    @pytest.mark.parametrize("parts", FIVE)
    def test_vanishing_gauge_is_a_pole(self, parts):
        point = _clean_point(parts, seed=2)
        gauges = dict(point["gauges"])
        gauges[reduction(parts).gauge_names[0]] = QQ(0)
        with pytest.raises(PoleError):
            canonical_to_ds(
                parts, point["pairs"], point["t"], gauges,
                point["kappas"], point["rhos"],
            )

    def test_cubed_root_at_one_is_a_pole(self):
        point = _clean_point((3, 3), seed=2)
        with pytest.raises(PoleError):
            canonical_to_ds(
                (3, 3), point["pairs"], QQ(1), point["gauges"],
                point["kappas"], point["rhos"],
            )


class TestZeroCurvature:
    @pytest.mark.parametrize("parts", FIVE)
    def test_exact_residual_vanishes(self, parts):
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            residual = zero_curvature_residual(
                parts, point["pairs"], point["t"], point["gauges"],
                point["kappas"], point["rhos"],
            )
            assert residual.is_zero()

    @pytest.mark.parametrize("parts", FIVE)
    def test_integer_time_stays_exact(self, parts):
        # an int t beside rational data must not turn a rate into a float
        point = _clean_point(parts)
        residual = zero_curvature_residual(
            parts, point["pairs"], 2, point["gauges"], point["kappas"], point["rhos"],
        )
        assert residual.is_zero()

    @pytest.mark.parametrize("parts", FIVE)
    def test_float_shadow_is_small(self, parts):
        # moderate float points shadow the exact identity to roundoff
        point = _clean_point(parts, seed=4)
        t = float(point["t"])
        pairs = tuple((float(q), float(p)) for q, p in point["pairs"])
        gauges = {k: float(v) for k, v in point["gauges"].items()}
        kappas = tuple(float(k) for k in point["kappas"])
        rhos = tuple(float(r) for r in point["rhos"])
        residual = zero_curvature_residual(
            parts, pairs, t, gauges, kappas, rhos, frame=numeric_frame(parts, t)
        )
        assert residual_magnitude(residual) < 1e-9

    def test_rates_off_the_flow_are_detected(self):
        # the identity couples states to the canonical flow: feeding any
        # other rates must leave a nonzero residual
        point = _clean_point((2, 2), seed=6)
        ((q, p),) = point["pairs"]
        residual = zero_curvature_residual(
            (2, 2), point["pairs"], point["t"], point["gauges"],
            point["kappas"], point["rhos"],
            pair_rates=((QQ(1), QQ(0)),),
            gauge_rates={"w1": QQ(0)},
        )
        assert not residual.is_zero()


class TestLaxMatrices:
    @pytest.mark.parametrize("parts", FIVE)
    def test_matrix_shapes(self, parts):
        point = _clean_point(parts, seed=9)
        state = canonical_to_ds(
            parts, point["pairs"], point["t"], point["gauges"],
            point["kappas"], point["rhos"],
        )
        pair = lax_matrices(state)
        n = sum(parts)
        assert pair.m_matrix.size == n
        assert pair.b_matrix.size == n


class TestVerification:
    @pytest.mark.parametrize("parts", FIVE)
    def test_small_sample_report_passes(self, parts):
        report = verify_partition(parts, samples=5, seed=17)
        assert report.passed
        assert report.attempted == 5
        assert report.failures == []
