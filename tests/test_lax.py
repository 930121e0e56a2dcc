"""Exact zero-curvature and constraint checks for the five reductions."""

import dataclasses
import math
import random
from fractions import Fraction as QQ

import pytest

from painleve_ds import flow, lax
from painleve_ds.lax import (
    canonical_to_ds,
    constraint_residuals,
    lax_matrices,
    sample_point,
    time_root,
    verify_partition,
    zero_curvature_residual,
)
from painleve_ds.painleve import (
    gauge_log_derivatives,
    reduction_constants,
    reduction_parameters,
    vector_field,
)
from painleve_ds.loop import LoopElement
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import RETRY_CAP, random_rational
from painleve_ds.scalars import ExtScalar, Gradient, PoleError, is_zero_scalar

FIVE = list(REDUCTIONS)

# rational times on every admissible side of each record's singular times
SIDES = {
    parts: [t for t in (QQ(-3, 2), QQ(1, 2), QQ(5, 2)) if t not in record.singular_times]
    for parts, record in REDUCTIONS.items()
}


# d base / dt written out by hand: the reference for the rate along_t
# takes from one forward pass of each record's base
BASE_RATE = {
    (3, 3): lambda t: -1 / (t * t),
    (2, 2, 1): lambda t: 1,
    (2, 2): lambda t: 1,
    (3, 1): lambda t: 0,
    (4, 1): lambda t: -2,
}


@pytest.fixture
def fresh_kernels():
    """The residual kernel is cached per partition: a test that replaces a
    formula block traces it afresh, and leaves no kernel of its own behind."""
    lax._residual_kernel.cache_clear()
    yield
    lax._residual_kernel.cache_clear()


def _largest(element):
    """The largest absolute coefficient of a float residual."""
    return max(abs(v) for v in (*element.entries.values(), element.c_k))


def _clean_point(parts, seed=0):
    return sample_point(parts, random.Random(seed))


def _power(x, k):
    # x^k written out as a product, for k >= 1
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _evaluate(x, root):
    """Numeric image of an exact value at a float or complex root."""
    if isinstance(x, ExtScalar):
        a, b = x.coeffs
        return float(a) + float(b) * root
    return float(x)


def _root(parts, point):
    """The sampled root as the one-direction Gradient the residual takes."""
    return reduction(parts).root.along_t(point["root"], point["t"])


def _exact_frames(parts):
    """(t, exact frame) on every admissible side of the singular times.

    A square root is adjoined at each t of SIDES; the (3,3) cube root is
    drawn, not adjoined, so its t = u**-3 comes from one rational u per side.
    """
    relation = reduction(parts).root
    if relation.power == 2:
        return [(t, time_root(parts, t)) for t in SIDES[parts]]
    roots = (QQ(-2, 3), QQ(3, 2), QQ(2, 3))  # t = -27/8, 8/27, 27/8
    return [(relation.time(u), relation.along_t(u, relation.time(u))) for u in roots]


class TestFrames:
    """time_root: the root symbol and its t-derivative as one dual number."""

    def test_cube_root_frame(self):
        # the exact lane adjoins square roots only; a (3,3) sample draws u
        with pytest.raises(ValueError, match="draw u, compute t from it and pass root="):
            time_root((3, 3), QQ(2))

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
    def test_a_float_time_runs_base_once(self, parts, monkeypatch):
        # one pass of base on the dual number, traced once per relation,
        # gives the root and its rate at every later time
        record = reduction(parts)
        relation, calls = record.root, []
        times = [2.5 + k / 8 for k in range(20)]
        want = [time_root(parts, t) for t in times]

        def counted(t):
            calls.append(t)
            return relation.base(t)

        monkeypatch.setattr(type(record), "root", dataclasses.replace(relation, base=counted))
        got = [time_root(parts, t) for t in times]
        assert len(calls) == 1
        assert [(g.value, g.grad) for g in got] == [(w.value, w.grad) for w in want]

    @pytest.mark.parametrize("parts", FIVE)
    def test_frames_match_relations_on_every_side(self, parts):
        # on each side of the singular times, the float root satisfies the
        # exact root's relation root^k = base, and both tangents satisfy
        # k root^(k-1) root' = base'
        relation = reduction(parts).root
        k = relation.power
        for t, exact in _exact_frames(parts):
            (exact_tangent,) = exact.grad
            assert _power(exact.value, k) == relation.base(t)
            assert k * _power(exact.value, k - 1) * exact_tangent == BASE_RATE[parts](t)
            numeric = time_root(parts, float(t))
            (tangent,) = numeric.grad
            assert abs(numeric.value**k - float(relation.base(t))) < 1e-12
            assert abs(k * numeric.value ** (k - 1) * tangent - float(BASE_RATE[parts](t))) < 1e-12
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
            state = canonical_to_ds(parts, **point)
            for name, residual in constraint_residuals(state).items():
                assert is_zero_scalar(residual), (parts, name)

    @pytest.mark.parametrize("parts", FIVE)
    def test_identities_feel_single_variable_bumps(self, parts):
        from painleve_ds.lax import DSState

        point = _clean_point(parts, seed=31)
        state = canonical_to_ds(parts, **point)
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
            canonical_to_ds(parts, **{**point, "gauges": gauges})

    def test_cubed_root_at_one_is_a_pole(self):
        # u = 1 is the root of t = u**-3 = 1
        point = _clean_point((3, 3), seed=2)
        with pytest.raises(PoleError):
            canonical_to_ds((3, 3), **{**point, "t": QQ(1), "root": QQ(1)})


class TestZeroCurvature:
    @pytest.mark.parametrize("parts", FIVE)
    def test_exact_residual_vanishes(self, parts):
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            residual = zero_curvature_residual(parts, **{**point, "root": _root(parts, point)})
            assert residual.is_zero()

    @pytest.mark.parametrize("parts", FIVE)
    def test_integer_time_stays_exact(self, parts):
        # an int t beside rational data must not turn a rate into a float;
        # t = 8 has the rational (3,3) root u = 1/2, which that record is given
        point = _clean_point(parts)
        relation = reduction(parts).root
        root = relation.along_t(QQ(1, 2), 8) if relation.power == 3 else None
        residual = zero_curvature_residual(
            parts, point["pairs"], 8, point["gauges"], point["kappas"], point["rhos"], root=root,
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
        assert _largest(residual) < 1e-9

    @pytest.mark.parametrize("parts", FIVE)
    def test_supplied_flow_rates_match_derived_ones(self, parts):
        # passing the flow's own rates skips the parameter map and must
        # give the same element as deriving them: zero
        record = reduction(parts)
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            args = (parts, point["pairs"], point["t"], point["gauges"],
                    point["kappas"], point["rhos"], _root(parts, point))
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
            point["kappas"], point["rhos"], _root((2, 2), point),
            pair_rates=((QQ(1), QQ(0)),),
            gauge_rates={"w1": QQ(0)},
        )
        assert not residual.is_zero()


def _flow_rates(parts, point):
    """The pair and gauge rates of the flow at an exact point."""
    params = reduction_parameters(parts, point["kappas"], point["rhos"])
    dlogs = gauge_log_derivatives(parts, point["pairs"], point["t"], params)
    pair_rates = vector_field(reduction(parts).system, point["pairs"], point["t"], params)
    return pair_rates, {name: g * dlogs[name] for name, g in point["gauges"].items()}


def _random_rates(parts, rng):
    """Rates off the flow: every pair and gauge rate drawn at random."""
    record = reduction(parts)
    pair_rates = tuple(
        (random_rational(rng), random_rational(rng)) for _ in range(record.pair_count)
    )
    return pair_rates, {name: random_rational(rng) for name in record.gauge_names}


def _both_ways(parts, point, root, pair_rates, gauge_rates):
    """R from the generated kernel, and from the generic assembly it is traced from."""
    kernel = zero_curvature_residual(
        parts, point["pairs"], point["t"], point["gauges"], point["kappas"], point["rhos"],
        root, pair_rates=pair_rates, gauge_rates=gauge_rates,
    )
    pairs = tuple(
        (Gradient(q, (dq,)), Gradient(p, (dp,)))
        for (q, p), (dq, dp) in zip(point["pairs"], pair_rates)
    )
    gauges = {name: Gradient(g, (gauge_rates[name],)) for name, g in point["gauges"].items()}
    generic = lax._assemble_residual(
        parts, pairs, Gradient(point["t"], (1,)), gauges, point["kappas"], point["rhos"], root
    )
    return kernel, generic


class TestKernel:
    """zero_curvature_residual runs code generated once per partition from
    the generic assembly; both give the same element."""

    @pytest.mark.parametrize("parts", FIVE)
    def test_equals_the_generic_assembly_off_the_flow(self, parts):
        rng = random.Random(59)
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            kernel, generic = _both_ways(parts, point, _root(parts, point), *_random_rates(parts, rng))
            assert not generic.is_zero()
            assert kernel.entries == generic.entries
            assert kernel.c_k == generic.c_k

    @pytest.mark.parametrize("parts", FIVE)
    def test_equals_the_generic_assembly_with_a_flipped_m_entry(self, monkeypatch, fresh_kernels, parts):
        record_type = type(reduction(parts))
        honest = record_type.matrices

        def flipped(self, state):
            m, b, b_diagonal = honest(self, state)
            key = next(iter(m))
            return {**m, key: -m[key]}, b, b_diagonal

        monkeypatch.setattr(record_type, "matrices", flipped)
        for seed in range(3):
            point = _clean_point(parts, seed=seed)
            kernel, generic = _both_ways(parts, point, _root(parts, point), *_flow_rates(parts, point))
            assert not generic.is_zero()
            assert kernel.entries == generic.entries
            assert kernel.c_k == generic.c_k

    @pytest.mark.parametrize("parts", FIVE)
    def test_matches_the_generic_assembly_along_a_trajectory(self, parts):
        record = reduction(parts)
        kappas = tuple(QQ(2 * k + 1, 7) for k in range(record.kappa_count))
        rhos = tuple(QQ(3 + k, 5) for k in range(record.rho_count))
        params = reduction_parameters(parts, kappas, rhos)
        pairs = [(0.4, 0.3), (0.7, -0.2)][: record.pair_count]
        gauges = {name: 1.0 + 0.25 * k for k, name in enumerate(record.gauge_names)}
        trajectory = flow.integrate(parts, pairs, gauges, params, 2.0, 3.0)
        kappas, rhos = (tuple(map(float, c)) for c in reduction_constants(parts, params))
        n = record.pair_count
        for sample, slope in zip(trajectory.samples, trajectory._slopes):
            point = {"pairs": sample.pairs, "t": sample.t, "gauges": sample.gauges,
                     "kappas": kappas, "rhos": rhos}
            pair_rates = tuple((slope[2 * i], slope[2 * i + 1]) for i in range(n))
            gauge_rates = {
                name: sample.gauges[name] * slope[2 * n + k]
                for k, name in enumerate(record.gauge_names)
            }
            kernel, generic = _both_ways(
                parts, point, time_root(parts, sample.t), pair_rates, gauge_rates
            )
            for key in kernel.entries.keys() | generic.entries.keys():
                assert kernel.entry(*key) == pytest.approx(generic.entry(*key), rel=1e-12, abs=1e-300)
            assert kernel.c_k == pytest.approx(generic.c_k, rel=1e-12, abs=1e-300)
            assert _largest(kernel) == _largest(generic)

    def test_only_a_square_root_runs_the_graded_text(self, monkeypatch):
        # (3,1)'s root r and its rate are multiples of sqrt 6, so an exact
        # call runs the text with u and du odd; a root with a rational part
        # is no square root, and a float call is not exact: both keep the
        # generic kernel
        keys, kernel, exact = lax._residual_kernel((3, 1))
        asked = []
        monkeypatch.setattr(
            lax, "_residual_kernel", lambda parts: (keys, kernel, lambda *odd: asked.append(odd) or exact(*odd))
        )
        point = _clean_point((3, 1))
        root = _root((3, 1), point)
        assert zero_curvature_residual((3, 1), **{**point, "root": root}).is_zero()
        assert asked == [("u", "du")]
        shifted = Gradient(root.value + 1, root.grad)
        kernel_r, generic = _both_ways((3, 1), point, shifted, *_random_rates((3, 1), random.Random(3)))
        assert kernel_r.entries == generic.entries and kernel_r.c_k == generic.c_k
        floats, float_root = _lane_point((3, 1), "float")
        assert _largest(zero_curvature_residual((3, 1), root=float_root, **floats)) < 1e-9
        assert asked == [("u", "du")]

    @pytest.mark.parametrize("parts", FIVE)
    def test_wrong_constant_counts_are_refused(self, parts):
        point = _clean_point(parts, seed=1)
        rates = _flow_rates(parts, point)
        for kappas, rhos in (
            (point["kappas"][:-1], point["rhos"]), (point["kappas"], point["rhos"] + (QQ(1),)),
        ):
            with pytest.raises(ValueError):
                _both_ways(parts, {**point, "kappas": kappas, "rhos": rhos}, _root(parts, point), *rates)

    def test_a_second_call_does_not_trace_again(self, monkeypatch):
        calls = []
        original = lax._assemble_residual

        def counted(parts, *args):
            calls.append(parts)
            return original(parts, *args)

        monkeypatch.setattr(lax, "_assemble_residual", counted)
        lax._residual_kernel.cache_clear()
        point = _clean_point((2, 2), seed=3)
        exact = zero_curvature_residual((2, 2), **{**point, "root": _root((2, 2), point)})
        floats = zero_curvature_residual(
            (2, 2), tuple((float(q), float(p)) for q, p in point["pairs"]), float(point["t"]),
            {name: float(g) for name, g in point["gauges"].items()},
            tuple(map(float, point["kappas"])), tuple(map(float, point["rhos"])),
        )
        assert exact.is_zero() and _largest(floats) < 1e-9
        assert calls == [(2, 2)]


def _lane_point(parts, lane, **changes):
    """A clean sample point with changes, in the exact or the float lane,
    and the root that lane passes."""
    point = {**_clean_point(parts, seed=2), **changes}
    root = reduction(parts).root.along_t(point.pop("root"), point["t"])
    if lane == "exact":
        return point, root
    as_float = lambda x: float(x) if isinstance(x, QQ) else x
    point = {
        "pairs": tuple((as_float(q), as_float(p)) for q, p in point["pairs"]),
        "t": as_float(point["t"]),
        "gauges": {name: as_float(g) for name, g in point["gauges"].items()},
        "kappas": tuple(map(as_float, point["kappas"])),
        "rhos": tuple(map(as_float, point["rhos"])),
    }
    return point, time_root(parts, point["t"])


def _still(parts):
    """Zero pair and gauge rates: they reach the residual past the vector field."""
    record = reduction(parts)
    return {
        "pair_rates": tuple((0, 0) for _ in range(record.pair_count)),
        "gauge_rates": {name: 0 for name in record.gauge_names},
    }


class TestPoleContract:
    """Value checks run on every call's own data, outside the kernel."""

    @pytest.mark.parametrize("lane", ["exact", "float"])
    @pytest.mark.parametrize("parts", FIVE)
    def test_a_zero_gauge_is_a_pole(self, parts, lane):
        gauges = dict(_clean_point(parts, seed=2)["gauges"])
        gauges[reduction(parts).gauge_names[0]] = QQ(0)
        point, root = _lane_point(parts, lane, gauges=gauges)
        with pytest.raises(PoleError, match="gauge variable"):
            zero_curvature_residual(parts, root=root, **point)

    @pytest.mark.parametrize("lane", ["exact", "float"])
    def test_the_cubed_root_excludes_t_one(self, lane):
        point, root = _lane_point((3, 3), lane, t=QQ(1), root=QQ(1))
        with pytest.raises(PoleError, match="excludes t = 1"):
            zero_curvature_residual((3, 3), root=root, **point, **_still((3, 3)))

    @pytest.mark.parametrize("lane", ["exact", "float"])
    def test_a_zero_divisor_is_a_pole(self, lane):
        # s = 1 makes the (2,2) B denominator (s**2 - 1) w1 vanish
        point, root = _lane_point((2, 2), lane, t=QQ(1), root=QQ(1))
        with pytest.raises(PoleError, match="division by zero"):
            zero_curvature_residual((2, 2), root=root, **point, **_still((2, 2)))


class TestLaxMatrices:
    @pytest.mark.parametrize("parts", FIVE)
    def test_matrix_shapes(self, parts):
        point = _clean_point(parts, seed=9)
        state = canonical_to_ds(parts, **point)
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

    @pytest.mark.parametrize("parts", FIVE)
    def test_a_flipped_m_entry_fails_every_sample(self, monkeypatch, fresh_kernels, parts):
        # negative control: points drawn through the root still catch a
        # wrong sign in one entry of M at every sample
        record_type = type(reduction(parts))
        honest = record_type.matrices

        def flipped(self, state):
            m, b, b_diagonal = honest(self, state)
            key = next(iter(m))
            return {**m, key: -m[key]}, b, b_diagonal

        monkeypatch.setattr(record_type, "matrices", flipped)
        report = verify_partition(parts, samples=20, seed=0)
        assert [f["sample_index"] for f in report.failures] == list(range(20))

    def test_a_pole_at_a_sample_is_an_error(self, monkeypatch):
        # sample_point draws only admissible data, so a pole is a defect
        def singular(*args, **kwargs):
            raise PoleError("forced pole")

        monkeypatch.setattr(lax, "zero_curvature_residual", singular)
        with pytest.raises(PoleError, match="forced pole"):
            verify_partition((2, 2), samples=1, seed=0)


class TestSampling:
    def test_colliding_q_values_are_redrawn_a_bounded_number_of_times(self, stuck_rng):
        # t = 2 is admissible, but q2 always equals q1
        parts = next(p for p, record in REDUCTIONS.items() if record.pair_count == 2)
        with pytest.raises(RuntimeError, match=str(RETRY_CAP)):
            sample_point(parts, stuck_rng)
