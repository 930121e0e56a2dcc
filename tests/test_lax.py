"""Exact zero-curvature and constraint checks for the five reductions."""

import math
import random
from fractions import Fraction as QQ

import pytest

from painleve_ds import lax
from painleve_ds.lax import (
    canonical_to_ds,
    constraint_residuals,
    lax_matrices,
    residual_magnitude,
    sample_point,
    time_root,
    verify_partition,
    zero_curvature_residual,
)
from painleve_ds.painleve import gauge_log_derivatives, reduction_parameters, vector_field
from painleve_ds.loop import LoopElement
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import RETRY_CAP
from painleve_ds.scalars import ExtScalar, PoleError, is_zero_scalar

FIVE = list(REDUCTIONS)

# rational times on every admissible side of each record's singular times
SIDES = {
    parts: [t for t in (QQ(-3, 2), QQ(1, 2), QQ(5, 2)) if t not in record.singular_times]
    for parts, record in REDUCTIONS.items()
}


def _clean_point(parts, seed=0):
    return sample_point(parts, random.Random(seed))


def _power(x, k):
    # x^k written out as a product, for k >= 1
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _evaluate(x, root):
    """Numeric image of an extension element at a float or complex root."""
    return sum(float(c) * root**e for e, c in enumerate(x.coeffs))


class TestFrames:
    """time_root: the root symbol and its t-derivative as one dual number."""

    def test_cube_root_frame(self):
        u = time_root((3, 3), QQ(2)).value
        assert u * u * u == QQ(1, 2)

    @pytest.mark.parametrize("parts", [(2, 2), (2, 2, 1)])
    def test_square_root_frame(self, parts):
        s = time_root(parts, QQ(3)).value
        assert s * s == 3

    def test_constant_root_frame(self):
        root = time_root((3, 1), QQ(5))
        assert root.value * root.value == 6
        assert root.grad == (0,)
        # tau scales linearly with t for this partition
        assert reduction((3, 1)).tau(QQ(5), root.value) == QQ(-5, 3) * root.value

    def test_negative_double_frame(self):
        v = time_root((4, 1), QQ(3)).value
        assert v * v == -6

    def test_lane_follows_the_time(self):
        # rational t (int included) adjoins the root; float t takes a number
        assert isinstance(time_root((2, 2), 3).value, ExtScalar)
        assert isinstance(time_root((2, 2), QQ(3)).grad[0], ExtScalar)
        assert time_root((2, 2), 9.0).value == 3.0
        assert isinstance(time_root((4, 1), 2.0).value, complex)

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2), (2, 2, 1), (4, 1)])
    def test_zero_time_excluded(self, parts):
        with pytest.raises(PoleError):
            time_root(parts, QQ(0))

    @pytest.mark.parametrize("parts", [(3, 3), (2, 2), (2, 2, 1), (4, 1)])
    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_float_zero_time_excluded(self, parts, t):
        # a zero (or, for (3,3), infinite) base is a pole in the float lane too
        with pytest.raises(PoleError, match="finite nonzero base"):
            time_root(parts, t)

    def test_float_infinite_base_excluded(self):
        with pytest.raises(PoleError):
            time_root((2, 2), math.inf)

    @pytest.mark.parametrize(
        "parts,t", [((3, 3), 8.0), ((2, 2), 9.0), ((3, 1), 2.0), ((4, 1), -2.0)]
    )
    def test_numeric_frame_matches_relations(self, parts, t):
        relation = reduction(parts).root
        root = time_root(parts, t).value
        assert abs(root**relation.power - float(relation.base(QQ(t)))) < 1e-12

    @pytest.mark.parametrize("parts", FIVE)
    def test_frames_match_relations_on_every_side(self, parts):
        # on each side of the singular times, the float root satisfies the
        # exact root's relation root^k = base, and both tangents satisfy
        # k root^(k-1) root' = base'
        relation = reduction(parts).root
        k = relation.power
        for t in SIDES[parts]:
            exact = time_root(parts, t)
            (exact_tangent,) = exact.grad
            assert _power(exact.value, k) == relation.base(t)
            assert k * _power(exact.value, k - 1) * exact_tangent == relation.base_rate(t)
            numeric = time_root(parts, float(t))
            (tangent,) = numeric.grad
            assert abs(numeric.value**k - float(relation.base(t))) < 1e-12
            assert abs(k * numeric.value ** (k - 1) * tangent - float(relation.base_rate(t))) < 1e-12
            # the exact tangent, evaluated at the float root, is the float tangent
            assert abs(_evaluate(exact_tangent, numeric.value) - tangent) < 1e-12


class TestCoordinateMaps:
    def test_recovered_scale_variable_matches_inverse_map(self):
        # the first canonical coordinate is w1/(tau^2 w3), so the inverse
        # map must produce w1 = q1 tau^2 w3 = 1 * 4 * 1 at tau = 2
        state = canonical_to_ds(
            (3, 3), ((1.0, 0.5), (2.0, 0.25)), 0.125, {"w3": 1.0},
            tuple(float(k + 1) for k in range(6)), (1.0,),
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
                partition=state.partition, variables=bumped, tau=state.tau,
                kappas=state.kappas, rhos=state.rhos,
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
        residual = zero_curvature_residual(parts, pairs, t, gauges, kappas, rhos)
        assert residual_magnitude(residual) < 1e-9

    @pytest.mark.parametrize("parts", FIVE)
    def test_supplied_flow_rates_match_derived_ones(self, parts):
        # passing the flow's own rates skips the parameter map and must
        # give the same element as deriving them: zero
        record = reduction(parts)
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            args = (parts, point["pairs"], point["t"], point["gauges"],
                    point["kappas"], point["rhos"])
            params = reduction_parameters(parts, point["kappas"], point["rhos"])
            dlogs = gauge_log_derivatives(parts, point["pairs"], point["t"], params)
            supplied = zero_curvature_residual(
                *args,
                pair_rates=vector_field(record.system, point["pairs"], point["t"], params),
                gauge_rates={name: g * dlogs[name] for name, g in point["gauges"].items()},
            )
            assert supplied == zero_curvature_residual(*args)
            assert supplied.is_zero()

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
        m, b = lax_matrices(state)
        n = sum(parts)
        assert m.size == n
        assert b.size == n


class TestVerification:
    @pytest.mark.parametrize("parts", FIVE)
    def test_small_sample_report_passes(self, parts):
        report = verify_partition(parts, samples=5, seed=17)
        assert report.passed
        assert report.attempted == 5
        assert report.failures == []

    def test_every_failing_sample_is_listed(self, monkeypatch):
        calls = []

        def broken(parts, *args, **kwargs):
            calls.append(parts)
            return LoopElement(sum(parts) - 1, {(0, 0, 1): QQ(1)})

        monkeypatch.setattr(lax, "zero_curvature_residual", broken)
        report = verify_partition((2, 2), samples=3, seed=0)
        assert not report.passed
        assert report.attempted == 3 == len(calls)
        body = report.to_json_dict()
        assert body["samples"] == 3 and body["passed"] is False
        assert [f["sample_index"] for f in body["failures"]] == [0, 1, 2]
        for failure in body["failures"]:
            assert set(failure) == {"sample_index", "point", "entry", "residual"}
            assert failure["entry"] == ["0", "1", "0"]  # (row, col, degree), JSON-ready
            assert failure["residual"] == repr(QQ(1))

    def test_a_pole_at_a_sample_is_an_error(self, monkeypatch):
        # sample_point draws only admissible data, so a pole is a defect
        def singular(*args, **kwargs):
            raise PoleError("forced pole")

        monkeypatch.setattr(lax, "zero_curvature_residual", singular)
        with pytest.raises(PoleError, match="forced pole"):
            verify_partition((2, 2), samples=1, seed=0)


class StuckRandom(random.Random):
    """Every randint gives its upper bound, so every draw is the same rational."""

    def __init__(self):
        super().__init__(0)
        self.calls = 0

    def randint(self, a, b):
        self.calls += 1
        if self.calls > 10 * RETRY_CAP:
            raise AssertionError("sample_point kept drawing past the retry cap")
        return b


class TestSampling:
    def test_colliding_q_values_are_redrawn_a_bounded_number_of_times(self):
        # t = 2 is admissible, but q2 always equals q1
        parts = next(p for p, record in REDUCTIONS.items() if record.pair_count == 2)
        with pytest.raises(RuntimeError, match=str(RETRY_CAP)):
            sample_point(parts, StuckRandom())
