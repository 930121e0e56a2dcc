"""Adaptive integration of the canonical flows with gauge transport."""

import copy
import hashlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as QQ
from pathlib import Path

import pytest

from painleve_ds import flow, lax, painleve
from painleve_ds.loop import LoopElement
from painleve_ds.painleve import SystemParameters, reduction_parameters
from painleve_ds.reductions import REDUCTIONS, reduction
from painleve_ds.sampling import draw_constants, random_rational, rational_satisfying
from painleve_ds.scalars import Gradient, PoleError
from painleve_ds.tracing import trace

FIVE = list(REDUCTIONS)


def _params(parts):
    kappas = tuple(QQ(2 * k + 1, 7) for k in range(reduction(parts).kappa_count))
    rhos = tuple(QQ(3 + k, 5) for k in range(reduction(parts).rho_count))
    return reduction_parameters(parts, kappas, rhos)


def _start(parts):
    record = reduction(parts)
    pairs = [(0.4, 0.3), (0.7, -0.2)][: record.pair_count]
    gauges = {name: 1.0 + 0.25 * k for k, name in enumerate(record.gauge_names)}
    return pairs, gauges


def _run(parts, t0=2.0, t1=3.0, rel_tol=1e-10, abs_tol=1e-12, **kw):
    pairs, gauges = _start(parts)
    return flow.integrate(parts, pairs, gauges, _params(parts), t0, t1,
                          rel_tol=rel_tol, abs_tol=abs_tol, **kw)


def _round_trip_error(parts, t0, t1):
    """Largest coordinate or gauge error after running t0 -> t1 -> t0."""
    out = _run(parts, t0=t0, t1=t1)
    back = flow.integrate(
        parts, out.final.pairs, out.final.gauges, _params(parts),
        t1, t0, rel_tol=1e-10, abs_tol=1e-12,
    )
    assert back.termination == flow.REACHED_END
    start_pairs, start_gauges = _start(parts)
    worst = 0.0
    for (q, p), (q0, p0) in zip(back.final.pairs, start_pairs):
        worst = max(worst, abs(q - q0), abs(p - p0))
    for name, g0 in start_gauges.items():
        worst = max(worst, abs(back.final.gauges[name] - g0))
    return worst


class TestResolution:
    def test_system_ids_map_to_default_partitions(self):
        assert reduction("cp6").parts == (3, 3)
        assert reduction("p6").parts == (2, 2)
        assert reduction("a4").parts == (3, 1)
        assert reduction("a5").parts == (4, 1)

    def test_partition_strings_and_tuples(self):
        assert reduction("2,2,1").parts == (2, 2, 1)
        assert reduction((4, 1)).parts == (4, 1)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            reduction("q6")

    def test_unsupported_partition_rejected(self):
        with pytest.raises(ValueError, match="no Lax pair"):
            reduction("5,2")


class TestIntegration:
    @pytest.mark.parametrize("parts", FIVE)
    def test_reaches_the_end(self, parts):
        traj = _run(parts)
        assert traj.termination == flow.REACHED_END
        assert traj.final.t == 3.0

    @pytest.mark.parametrize("parts", FIVE)
    def test_round_trip_returns_to_start(self, parts):
        assert _round_trip_error(parts, 2.0, 3.0) <= 1e-6

    def test_degenerate_interval_is_a_single_sample(self):
        traj = _run((2, 2), t0=2.0, t1=2.0)
        assert traj.termination == flow.REACHED_END
        assert len(traj.samples) == 1
        assert traj.samples[0].t == 2.0

    def test_coupled_fourth_system_crosses_zero(self):
        # (3,1) divides by neither t nor tau, so t = 0 is a regular time
        out = _run((3, 1), t0=-0.5, t1=0.5)
        assert out.termination == flow.REACHED_END
        assert flow.residual_along(out)["max_residual"] <= 1e-6
        assert _round_trip_error((3, 1), -0.5, 0.5) <= 1e-6

    @pytest.mark.parametrize("parts", FIVE)
    def test_steps_do_no_fraction_arithmetic(self, parts, monkeypatch):
        # the exact weights become floats once per trajectory; after that
        # no step, stage or gauge rate touches Fraction arithmetic
        params = _params(parts)
        pairs, gauges = _start(parts)
        calls = []
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ):
            original = getattr(QQ, name)

            def counted(self, other, _original=original, _name=name):
                calls.append(_name)
                return _original(self, other)

            monkeypatch.setattr(QQ, name, counted)
        traj = flow.integrate(parts, pairs, gauges, params, 2.0, 3.0)
        monkeypatch.undo()
        assert traj.termination == flow.REACHED_END
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_slope_is_a_pole(self, bad):
        # past t = 2.5 every slope is non-finite: a fixed-step run ends
        # with the pole flag, and an adaptive run halves its step there
        # until the step underflows
        def f(t, y):
            return [1.0, bad if t > 2.5 else 1.0]

        def run(fixed_step):
            return flow._advance(f, 2.0, [0.0, 0.0], 3.0, 1e-8, 1e-10, fixed_step, lambda t, y: None)

        records, termination = run(0.125)
        assert termination == flow.POLE_DETECTED
        assert records[-1][0] == 2.5
        records, termination = run(None)
        assert termination == flow.STEP_UNDERFLOW
        assert 2.5 - 1e-12 < records[-1][0] <= 2.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_first_slope_is_named(self, bad):
        with pytest.raises(PoleError, match="^non-finite derivative$"):
            flow._advance(lambda t, y: [1.0, bad], 2.0, [0.0, 0.0], 3.0, 1e-8, 1e-10, None, lambda t, y: None)

    def test_a_log_gauge_past_its_ceiling_is_a_pole(self):
        # exp overflows just past the ceiling: a gauge there is gone, though the pairs are finite
        guard, ceiling = flow._system_guard(reduction((2, 2))), flow.LOG_GAUGE_CEILING
        assert guard(2.5, [0.5, 3.0, ceiling]) is None and guard(2.5, [0.5, 3.0, -ceiling]) is None
        for log in (ceiling + 1.0, -ceiling - 1.0, math.nan):
            assert guard(2.5, [0.5, 3.0, log]) == flow.POLE_DETECTED

    def test_interval_through_fixed_singularity_rejected(self):
        with pytest.raises(PoleError, match="fixed singular time"):
            _run((3, 3), t0=0.5, t1=2.0)

    @pytest.mark.parametrize("t1", [math.nan, math.inf])
    def test_non_finite_end_time_rejected(self, t1):
        # nan would otherwise slip past the singular-time check and inf
        # would integrate towards a movable pole
        with pytest.raises(ValueError, match="t1 = .* is not finite"):
            _run((2, 2), t1=t1)

    def test_non_finite_start_time_rejected(self):
        with pytest.raises(ValueError, match="t0 = .* is not finite"):
            _run((3, 1), t0=-math.inf)

    @pytest.mark.parametrize("tols,named", [
        ((0.0, 0.0), "abs_tol"),
        ((1e-8, -1e-10), "abs_tol"),
        ((-1.0, 1e-10), "rel_tol"),
        ((math.nan, 1e-10), "rel_tol"),
        ((1e-8, math.inf), "abs_tol"),
    ])
    def test_bad_tolerances_rejected_before_any_step(self, tols, named, monkeypatch):
        monkeypatch.setattr(flow, "_advance", lambda *a: pytest.fail("stepped"))
        rel_tol, abs_tol = tols
        with pytest.raises(ValueError, match=named):
            _run((2, 2), rel_tol=rel_tol, abs_tol=abs_tol)

    @pytest.mark.parametrize("step", [math.nan, 0.0, -0.0, math.inf, -math.inf])
    def test_bad_fixed_step_rejected_before_any_step(self, step, monkeypatch):
        monkeypatch.setattr(flow, "_advance", lambda *a: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="fixed_step"):
            _run((2, 2), fixed_step=step)

    def test_zero_relative_tolerance_is_pure_absolute_control(self):
        assert _run((2, 2), rel_tol=0.0, abs_tol=1e-10).termination == flow.REACHED_END

    def test_step_budget_ends_with_a_flag(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 3)
        traj = _run((2, 2))
        assert traj.termination == flow.STEP_BUDGET
        assert len(traj.samples) <= 4
        assert traj.final.t < 3.0

    def test_movable_pole_flagged(self):
        kappas = tuple(QQ(k * k, 3) for k in range(4))
        params = reduction_parameters((2, 2), kappas, (QQ(5, 2),))
        traj = flow.integrate((2, 2), [(0.5, 3.0)], {"w1": 1.0}, params, 2.0, 3.0)
        assert traj.termination == flow.POLE_DETECTED
        assert traj.final.t < 3.0

    @pytest.mark.parametrize("parts, s", [
        (parts, s) for parts, record in REDUCTIONS.items() for s in record.singular_times
    ])
    def test_a_start_within_the_floor_of_a_singular_time_is_a_pole(self, parts, s):
        # 5e-13 from s is inside DENOMINATOR_FLOOR: the run stops at its
        # start with the pole flag, on either side, where with no floor it
        # shrinks its steps until they underflow
        for side in (1.0, -1.0):
            start = s + side * 5e-13
            traj = _run(parts, t0=start, t1=s + side * 0.5)
            assert traj.termination == flow.POLE_DETECTED
            assert traj._times == (start,)

    def test_crossing_the_coupling_locus_continues(self):
        # starting exactly on q1 = t is not an invariant condition: the
        # flow leaves the locus and the run completes
        traj = flow.integrate(
            (3, 3), [(2.0, 0.3), (0.7, -0.2)], {"w3": 1.0},
            _params((3, 3)), 2.0, 3.0,
        )
        assert traj.termination == flow.REACHED_END
        assert traj.samples[0].pairs[0][0] == traj.samples[0].t
        assert any(s.pairs[0][0] != s.t for s in traj.samples[1:])

    def test_gauge_sign_is_preserved(self):
        pairs, _ = _start((2, 2))
        traj = flow.integrate(
            (2, 2), pairs, {"w1": -1.5}, _params((2, 2)), 2.0, 3.0
        )
        assert traj.termination == flow.REACHED_END
        assert all(s.gauges["w1"] < 0 for s in traj.samples)

    def test_missing_gauge_rejected(self):
        pairs, _ = _start((2, 2))
        with pytest.raises(ValueError, match="w1"):
            flow.integrate((2, 2), pairs, {}, _params((2, 2)), 2.0, 3.0)

    def test_zero_gauge_rejected(self):
        pairs, _ = _start((2, 2))
        with pytest.raises(PoleError):
            flow.integrate((2, 2), pairs, {"w1": 0.0}, _params((2, 2)), 2.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gauge_rejected(self, bad):
        pairs, _ = _start((2, 2))
        with pytest.raises(ValueError, match="gauge w1"):
            flow.integrate((2, 2), pairs, {"w1": bad}, _params((2, 2)), 2.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot,name", [(0, "q1"), (3, "p2")])
    def test_non_finite_start_rejected_before_any_step(self, bad, slot, name, monkeypatch):
        # a NaN is not a pole: the start is refused by name, not flagged
        monkeypatch.setattr(flow, "_advance", lambda *a: pytest.fail("stepped"))
        pairs, gauges = _start((3, 3))
        coords = [c for pair in pairs for c in pair]
        coords[slot] = bad
        pairs = [tuple(coords[:2]), tuple(coords[2:])]
        with pytest.raises(ValueError, match=f"^coordinate {name} must start finite, not {bad}$"):
            flow.integrate((3, 3), pairs, gauges, _params((3, 3)), 2.0, 3.0)

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            flow.integrate(
                (3, 3), [(0.4, 0.3)], {"w3": 1.0}, _params((3, 3)), 2.0, 3.0
            )

    @pytest.mark.parametrize("parts,alpha,eta", [
        ((2, 2), (QQ(1, 6),) * 6, None),  # one weight too many
        ((3, 3), (QQ(1, 6),) * 6, None),  # the coupled sixth system without eta
        ((3, 1), (QQ(1, 2),) * 2, None),  # too few weights
        ((2, 2), (QQ(1, 5),) * 5, QQ(1)),  # an eta the system does not take
    ])
    def test_weights_that_do_not_fit_rejected_before_any_step(self, parts, alpha, eta, monkeypatch):
        monkeypatch.setattr(flow, "_advance", lambda *a: pytest.fail("stepped"))
        pairs, gauges = _start(parts)
        with pytest.raises(ValueError, match=f"takes {reduction(parts).weight_count} weights"):
            flow.integrate(parts, pairs, gauges, SystemParameters(alpha, eta), 2.0, 3.0)

    def test_fixed_step_grid(self):
        traj = _run((2, 2), fixed_step=0.125, rel_tol=1e-8, abs_tol=1e-10)
        times = [s.t for s in traj.samples]
        assert times == pytest.approx([2.0 + 0.125 * k for k in range(9)])


def _stage_sum(weights, stages):
    """A plain Dormand-Prince stage sum: sum(w * k) over the nonzero weights
    of one tableau row, one component at a time, term by term from the left."""
    out = []
    for i in range(len(stages[0])):
        total = None
        for w, k in zip(weights, stages):
            if w:
                total = w * k[i] if total is None else total + w * k[i]
        out.append(total)
    return out


def _reference_advance(f, t0, y0, t_end, rel_tol, abs_tol, fixed_step, max_steps, args):
    """flow._advance without a guard, written plainly: one stage at a time
    from _stage_sum, and the error norm as a loop over the components.
    Returns (records, termination, failures), each failure a (why, stage)."""
    failures = []
    direction = 1.0 if t_end >= t0 else -1.0
    t, y = t0, list(y0)
    slope = f(t, y, *args)
    records = [(t, y, slope, 0.0)]
    h = direction * (abs(fixed_step) if fixed_step is not None else min(0.05, abs(t_end - t0) / 100.0))
    error_prev = 1.0
    for _ in range(max_steps):
        if direction * (t_end - t) <= 0:
            return records, flow.REACHED_END, failures
        terminal = direction * (t + h - t_end) >= 0
        if terminal:
            h = t_end - t
        if not terminal and abs(h) < 1e-14 * max(1.0, abs(t)):
            return records, flow.STEP_UNDERFLOW, failures
        stages = [slope]
        try:
            for stage in range(1, 7):
                state = [yj + h * s for yj, s in zip(y, _stage_sum(flow._A[stage], stages))]
                k = f(t + flow._C[stage] * h, state, *args)
                if not all(map(math.isfinite, k)):
                    raise PoleError("non-finite derivative")
                stages.append(k)
            stage = "norm"
            total = 0.0
            for e, a, b in zip([h * s for s in _stage_sum(flow._E, stages)], y, state):
                total += (e / (abs_tol + rel_tol * max(abs(a), abs(b)))) ** 2
            error = math.sqrt(total / len(y))
        except (PoleError, OverflowError) as failure:
            failures.append((type(failure).__name__, stage))
            if fixed_step is not None:
                return records, flow.POLE_DETECTED, failures
            h *= 0.5
            continue
        if fixed_step is None and error > 1.0:
            h *= min(max(flow._SHRINK_CAP, flow._SAFETY * error ** (-flow._PI_ALPHA)), 1.0)
            continue
        t = t_end if terminal else t + h
        y, slope = state, stages[6]
        records.append((t, y, slope, error))
        if fixed_step is None:
            floor = max(error, 1e-10)
            factor = flow._SAFETY * floor ** (-flow._PI_ALPHA) * error_prev ** flow._PI_BETA
            h *= min(flow._GROW_CAP, max(flow._SHRINK_CAP, factor))
            error_prev = floor
    return records, flow.STEP_BUDGET, failures


def _rider_system(size, spikes):
    """A nonlinear, time-dependent system y' = f(t, y, c): a coupled ring on
    the first size - 1 components and a last component that f never reads,
    as the gauges ride along.  spikes maps an f call's number (0 at the
    start) to the last component's slope at that call, or to "zero" for a
    zero divisor there, which raises the PoleError a traced text raises."""
    calls = iter(range(10**9))

    def f(t, y, c):
        ring = len(y) - 1
        slope = [
            y[(j + 1) % ring] - math.sin(y[j]) - c * t * y[j] * y[(j + 1) % ring]
            for j in range(ring)
        ]
        rider = spikes.get(next(calls), math.cos(t) + c * sum(y[:ring]))
        if rider == "zero":
            raise PoleError("zero divisor")
        return slope + [rider]

    return f


# (spikes, the failures they must cause in the adaptive reference run)
_SPIKES = {
    "smooth": ({}, []),
    # stage 6's slope reaches only the error, h * -1/40 * 1e170 over a
    # scale near 1e-9: finite, but its square is past the float range
    "overflow": ({6: 1e170, 30: -1e170}, [("OverflowError", "norm")] * 2),
    # no stage reads a stage-1 slope of the last component: only the
    # finiteness test of the slope itself sees it
    "non-finite": (
        {1: math.nan, 9: math.inf, 21: -math.inf, 43: "zero"},
        [("PoleError", 1), ("PoleError", 2), ("PoleError", 6), ("PoleError", 4)],
    ),
}


class TestStepper:
    @pytest.mark.parametrize("fixed_step", [None, 0.05])
    def test_fused_stages_match_per_term_sums_bit_for_bit(self, monkeypatch, fixed_step):
        """Each size's generated step against _reference_advance, every
        record's time, state, slope and error compared as float.hex, both
        with a budget of 10,000 steps."""
        monkeypatch.setattr(flow, "MAX_STEPS", 10_000)
        hexed = lambda records: [
            (t.hex(), [v.hex() for v in y], [v.hex() for v in slope], error.hex())
            for t, y, slope, error in records
        ]
        for size in (1, 2, 3, 5, 6):
            y0 = [0.5 + 0.25 * j for j in range(size)]
            for name, (spikes, failures) in _SPIKES.items():
                records, termination = flow._advance(
                    _rider_system(size, spikes), 0.0, y0, 4.0, 1e-9, 1e-11, fixed_step, lambda t, y: None, (0.3,),
                )
                reference = _reference_advance(
                    _rider_system(size, spikes), 0.0, y0, 4.0, 1e-9, 1e-11, fixed_step, 10_000, (0.3,)
                )
                assert (hexed(records), termination) == (hexed(reference[0]), reference[1]), (size, name)
                if fixed_step is None:
                    assert termination == flow.REACHED_END
                    assert reference[2] == failures, (size, name)
                    assert len(records) > 20
                else:
                    assert reference[2] == failures[:1]
                    assert termination == (flow.POLE_DETECTED if spikes else flow.REACHED_END)

    def test_the_step_kernels_compile_at_import(self):
        """In a fresh process, once the exact lane has run one sample of a
        partition, its first integrate call compiles nothing: the flow's
        generic text compiled as the exact lane traced it, and every
        record's state size has its step kernel from the import of flow."""
        script = textwrap.dedent("""
            import builtins
            from fractions import Fraction as QQ
            from painleve_ds import flow, lax, painleve
            from painleve_ds.reductions import REDUCTIONS

            runs = []
            for parts, record in REDUCTIONS.items():
                kappas = tuple(QQ(2 * k + 1, 7) for k in range(record.kappa_count))
                rhos = tuple(QQ(3 + k, 5) for k in range(record.rho_count))
                params = painleve.reduction_parameters(parts, kappas, rhos)
                pairs = [(0.4, 0.3), (0.7, -0.2)][: record.pair_count]
                gauges = {name: 1.0 + 0.25 * k for k, name in enumerate(record.gauge_names)}
                assert lax.verify_partition(parts, samples=1).passed
                runs.append((parts, pairs, gauges, params))

            def refuse(*args, **kwargs):
                raise AssertionError("integrate compiled")

            builtins.compile = refuse
            for parts, pairs, gauges, params in runs:
                assert flow.integrate(parts, pairs, gauges, params, 2.0, 3.0).termination == flow.REACHED_END
        """)
        src = str(Path(flow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_the_step_source_reads_back(self):
        lines = inspect.getsource(flow._step_kernel(3)).splitlines()
        assert lines[:3] == [
            "def step(f, args, t, h, y, k0, rel_tol, abs_tol):", "    y0, y1, y2, = y", "    k0_0, k0_1, k0_2, = k0",
        ]
        assert lines[3].startswith("    k1_0, k1_1, k1_2, = f(t + 0.2 * h, [y0 + h * (0.2 * k0_0), ")
        assert sum(line.count("isfinite(") for line in lines) == 18
        assert "    k6 = f(t + h, n := [n0, n1, n2, ], *args)" in lines
        # squares, not products: an overflow fails the step, where inf would read as a large error
        assert lines[-1].startswith("    return n, k6, sqrt(((e0 / (abs_tol + rel_tol * max(abs(y0), abs(n0)))) ** 2 + ")
        assert lines[-1].endswith(") ** 2) / 3)")

    def test_a_zero_divisor_at_the_start_is_a_pole(self):
        # every f the package steps is a traced text, which names its zero divisor
        def reciprocal(t, y):
            return [1 / (t - 2)]

        f = trace("reciprocal", reciprocal, ("t", "y"))[0]()
        with pytest.raises(PoleError, match="^division by zero in the reciprocal$"):
            flow._advance(f, 2.0, [0.0], 3.0, 1e-8, 1e-10, None, lambda t, y: None)


def _hand_written_slope(parts, pairs, t, params):
    """The flow's slope from the formulas it is traced from: one dual
    pass of the Hamiltonian per phase coordinate, then the record's gauge
    log-derivatives."""
    record = reduction(parts)
    flat = [x for pair in pairs for x in pair]

    def partial(i):
        seeded = [Gradient(x, int(i == j)) for j, x in enumerate(flat)]
        return painleve.hamiltonian(record.system, tuple(zip(seeded[::2], seeded[1::2])), t, params).tangent

    grad = [partial(i) for i in range(len(flat))]
    rates = record.gauge_log_derivatives(pairs, t, params)
    return (*(c for k in range(record.pair_count) for c in (grad[2 * k + 1], -grad[2 * k])),
            *(rates[name] for name in record.gauge_names))


class TestGeneratedRightHandSide:
    """One straight-line rhs(t, y, a, eta) per partition drives integrate
    and every exact lane."""

    @pytest.mark.parametrize("parts", FIVE)
    def test_equals_the_generic_path_at_exact_points(self, parts):
        record = reduction(parts)
        rhs, exact = painleve._flow(parts)
        rng = random.Random(59)
        for _ in range(5):
            pairs = tuple((random_rational(rng), random_rational(rng)) for _ in range(record.pair_count))
            t = rational_satisfying(rng, lambda x: x not in record.singular_times)
            params = reduction_parameters(
                parts,
                tuple(random_rational(rng) for _ in range(record.kappa_count)),
                tuple(random_rational(rng) for _ in range(record.rho_count)),
            )
            logs = [random_rational(rng) for _ in record.gauge_names]
            want = _hand_written_slope(parts, pairs, t, params)
            y = [c for pair in pairs for c in pair] + logs
            assert rhs(t, y, params.alpha, params.eta) == want
            split = lambda xs: [x.as_integer_ratio() for x in xs]
            eta = None if params.eta is None else params.eta.as_integer_ratio()
            rates = exact()(t.as_integer_ratio(), split(y), split(params.alpha), eta)
            assert tuple(QQ(n, d) for n, d in rates) == want

    def test_one_trace_per_partition_serves_every_lane(self, monkeypatch):
        calls = []
        original = painleve.hamiltonian

        def counted(system, *rest):
            calls.append(system)
            return original(system, *rest)

        monkeypatch.setattr(painleve, "hamiltonian", counted)
        painleve._flow.cache_clear()
        try:
            for parts in FIVE:
                assert _run(parts, t1=2.1).termination == flow.REACHED_END
                assert _run(parts, t1=2.1).termination == flow.REACHED_END
                assert lax.verify_partition(parts, samples=2).passed
                pairs, _ = _start(parts)
                painleve.gauge_log_derivatives(parts, pairs, 2.5, _params(parts))
                painleve.vector_field(reduction(parts).system, pairs, 2.5, _params(parts))
            # (3,3) and (2,2,1) both reduce to cp6, whose field reads (3,3)'s
            # flow; a trace makes one pass per phase coordinate
            assert calls == ["cp6"] * 4 + ["cp6"] * 4 + ["p6"] * 2 + ["a4"] * 4 + ["a5"] * 4
        finally:
            painleve._flow.cache_clear()

    @pytest.mark.parametrize("parts", FIVE)
    def test_steps_call_no_generic_formula(self, parts, monkeypatch):
        _run(parts, t1=2.1)  # the first call may trace
        calls = []
        count = lambda name: lambda *args: calls.append(name)
        monkeypatch.setattr(painleve, "vector_field", count("vector_field"))
        monkeypatch.setattr(painleve, "gauge_log_derivatives", count("gauge_log_derivatives"))
        monkeypatch.setattr(type(reduction(parts)), "gauge_log_derivatives", count("record"))
        assert _run(parts).termination == flow.REACHED_END
        assert calls == []

    def test_the_source_reads_back_with_shared_terms(self):
        source = inspect.getsource(painleve._flow((2, 2, 1))[0])
        assert source.startswith("def rhs(t, y, a, eta):\n    q0, p0, q1, p1, _, _, = y\n")
        assert source.splitlines()[-3].startswith("        return (")
        assert source.splitlines()[-1] == "        raise PoleError(_pole(str(err))) from None"
        # the Hamiltonian's partials and both gauge rates divide by one t(t - 1)
        assert source.count("t * (t - 1)") == 1
        assert source.count("q0 - t") == 1


class TestDenseOutput:
    def test_knot_times_reproduce_samples(self):
        traj = _run((3, 1))
        times = [s.t for s in traj.samples]
        dense = flow.dense_samples(traj, times)
        for a, b in zip(dense, traj.samples):
            assert a.t == b.t
            for (q, p), (q0, p0) in zip(a.pairs, b.pairs):
                assert abs(q - q0) < 1e-12
                assert abs(p - p0) < 1e-12

    def test_interpolant_tracks_a_fine_reference(self):
        coarse = _run((2, 2), rel_tol=1e-8, abs_tol=1e-10)
        grid = [2.0 + 0.05 * k for k in range(1, 21)]
        dense = flow.dense_samples(coarse, grid)
        worst = 0.0
        for s in dense:
            ref = _run((2, 2), t1=s.t, rel_tol=1e-12, abs_tol=1e-13)
            worst = max(
                worst,
                abs(s.pairs[0][0] - ref.final.pairs[0][0]),
                abs(s.pairs[0][1] - ref.final.pairs[0][1]),
            )
        assert worst < 1e-6

    def test_out_of_span_rejected(self):
        traj = _run((2, 2))
        with pytest.raises(ValueError, match="span"):
            flow.dense_samples(traj, [1.5])

    def test_reversed_trajectory_interpolates(self):
        # one sample per requested time, in the order asked, each as it is
        # alone, on a backward trajectory and on a forward one
        for t0, t1 in ((3.0, 2.0), (2.0, 3.0)):
            traj = _run((2, 2), t0=t0, t1=t1)
            for grid in ([2.25, 2.75], [2.5, 2.2, 2.9], [2.9, 2.5, 2.9, 2.2]):
                dense = flow.dense_samples(traj, iter(grid))
                assert [s.t for s in dense] == grid
                assert [s.pairs for s in dense] == [flow.dense_samples(traj, [t])[0].pairs for t in grid]

    def test_a_one_knot_trajectory_gives_its_one_state(self):
        traj = _run((2, 2), t0=2.0, t1=2.0)
        assert traj._times == (2.0,)
        assert flow.dense_samples(traj, (t for t in [2.0, 2.0])) == [traj.final, traj.final]
        assert flow.dense_samples(traj, []) == []
        with pytest.raises(ValueError, match="^time 2.5 outside the integrated span$"):
            flow.dense_samples(traj, [2.0, 2.5])


class TestPersistence:
    def test_csv_header_lists_pairs_then_gauges(self):
        assert flow.csv_header(_run((2, 2))) == "t,q1,p1,w1"
        assert flow.csv_header(_run((3, 3))) == "t,q1,p1,q2,p2,w3"
        assert flow.csv_header(_run((2, 2, 1))) == "t,q1,p1,q2,p2,phi3,phi34"

    def test_rows_follow_requested_grid(self):
        traj = _run((2, 2))
        for grid in ([2.0, 2.5, 3.0], [2.5, 2.2, 2.9]):
            rows = list(flow.csv_rows(traj, times=grid))
            assert len(rows) == 1 + len(grid)
            assert rows[0] == "t,q1,p1,w1"
            assert all(len(r.split(",")) == 4 for r in rows[1:])
            assert [float(r.split(",")[0]) for r in rows[1:]] == grid

    def test_metadata_shape(self):
        meta = flow.metadata(_run((4, 1)))
        assert set(meta) == {
            "system", "partition", "params", "tolerances", "termination", "samples",
        }
        assert meta["system"] == "a5"
        assert meta["partition"] == [4, 1]
        assert meta["termination"] == flow.REACHED_END
        assert set(meta["params"]) == {"alpha", "eta"}


class TestCorrectnessMonitors:
    @pytest.mark.parametrize("parts", FIVE)
    def test_residual_stays_small_along_trajectories(self, parts):
        report = flow.residual_along(_run(parts))
        assert report["max_residual"] <= 1e-6

    @pytest.mark.parametrize("parts", FIVE)
    def test_parameter_work_is_once_per_trajectory(self, parts, monkeypatch):
        # the constants are found once; the stored slopes supply every
        # rate, so no sample runs the parameter map
        traj = _run(parts)
        calls = {"reduction_parameters": 0, "reduction_constants": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(lax, "reduction_parameters")
        counting(painleve, "reduction_parameters")
        counting(flow, "reduction_constants")
        report = flow.residual_along(traj)
        monkeypatch.undo()
        assert report["max_residual"] <= 1e-6
        assert calls == {"reduction_parameters": 0, "reduction_constants": 1}

    @pytest.mark.parametrize("parts", FIVE)
    def test_monitor_samples_do_no_fraction_arithmetic(self, parts, monkeypatch):
        # the constants are floats once found, so a monitor call does the
        # Fraction work of its one reduction_constants call, the same on
        # trajectories of different lengths
        runs = [_run(parts), _run(parts, rel_tol=1e-6, abs_tol=1e-8)]
        assert len(runs[0].samples) > len(runs[1].samples)
        flow.residual_along(runs[0])  # the kernels and the factored map, built once
        calls = []
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ):
            original = getattr(QQ, name)

            def counted(self, other, _original=original, _name=name):
                calls.append(_name)
                return _original(self, other)

            monkeypatch.setattr(QQ, name, counted)
        counts = []
        for traj in runs:
            report = flow.residual_along(traj)
            assert report["samples"] == len(traj.samples)
            counts.append(list(calls))
            calls.clear()
        painleve.reduction_constants(parts, runs[0].params)
        monkeypatch.undo()
        assert counts == [calls, calls]

    @pytest.mark.parametrize("parts", FIVE)
    def test_steps_and_monitor_build_no_objects(self, parts, monkeypatch):
        # integrate keeps the stepper's flat records and the monitor feeds
        # them to the generated kernel: neither builds a sample or an element
        flow.residual_along(_run(parts))  # the kernels, traced and compiled once
        built = []
        for cls in (flow.TrajectorySample, LoopElement):
            original = cls.__init__

            def counted(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        traj = _run(parts)
        report = flow.residual_along(traj)
        monkeypatch.undo()
        assert report["samples"] == len(traj.samples) > 1
        assert built == []

    @pytest.mark.parametrize("parts, kappas, rhos, pairs, gauges", [
        ((2, 2), (0.1, 0.2, 0.3, -0.6), (0.7,), ((0.4, 0.3),), {"w1": 1.0}),
        ((3, 3), (0.1, 0.2, 0.3, -0.6, 0.15, -0.15), (0.7,),
         ((0.4, 0.3), (0.7, -0.2)), {"w3": 1.0}),
    ])
    def test_float_weights_are_monitored(self, parts, kappas, rhos, pairs, gauges):
        params = reduction_parameters(parts, kappas, rhos)
        traj = flow.integrate(parts, pairs, gauges, params, 2.0, 2.5)
        assert traj.termination == flow.REACHED_END
        assert flow.residual_along(traj)["max_residual"] <= 1e-6

    def test_samples_counts_what_was_evaluated(self):
        traj = _run((2, 2))
        assert flow.residual_along(traj)["samples"] == len(traj.samples)
        # a start that is already singular stops with no slope to check
        params = _params((2, 2))
        stuck = flow.integrate((2, 2), [(2e12, 0.3)], {"w1": 1.0}, params, 2.0, 2.2)
        assert stuck.termination == flow.POLE_DETECTED
        assert flow.residual_along(stuck)["samples"] == 0

    @pytest.mark.parametrize(
        "shift, log_shift", [(1e-3, 0.0), (0.0, math.nan)], ids=["shifted-q", "nan-gauge"]
    )
    def test_corrupted_sample_is_flagged(self, shift, log_shift):
        # the monitor reads the stored flat states: corrupt state k there
        traj = _run((2, 2))
        bad = copy.deepcopy(traj)
        k = len(bad._states) // 2
        state = bad._states[k]
        state[0] += shift
        state[-1] += log_shift
        report = flow.residual_along(bad)
        # the --residual gate: a NaN fails it as surely as a large value
        assert not report["max_residual"] <= 1e-6
        assert report["at_t"] == bad._times[k]

    @pytest.mark.parametrize(
        "parts, name", [(parts, name) for parts in FIVE for name in reduction(parts).gauge_names]
    )
    def test_a_vanished_gauge_is_named_as_a_pole(self, parts, name):
        # exp(-1000.0) is 0.0: the monitor's pole check names the gauge
        record = reduction(parts)
        traj = copy.deepcopy(_run(parts))
        traj._states[len(traj._states) // 2][2 * record.pair_count + record.gauge_names.index(name)] = -1000.0
        with pytest.raises(PoleError, match=rf"^gauge variable {name} = 0$"):
            flow.residual_along(traj)

    def test_observed_order_is_five(self):
        report = flow.order_check()
        assert abs(report["slope"] - 5.0) <= 0.3
        assert report["errors"] == sorted(report["errors"], reverse=True)


# sha256 of the float lane's outputs from report's starts on [2, 3] at
# both shipped tolerances: every field of every forward and backward
# sample, the dense samples at the forward step midpoints, and both
# monitor dicts.  Floats enter as their repr, so the pin holds only while
# every float operation of the lane runs in the same order; a change that
# moves a last digit needs a new pin and a line in CHANGES.md saying why.
FLOAT_LANE_SHA256 = "a0255b80acc3a2308149c539bebec7d166b1115b820e0070e62cf16314d6dda1"


def test_float_lane_outputs_are_pinned():
    def fields(samples):
        return [[s.t, s.pairs, sorted(s.gauges.items()), s.error] for s in samples]

    runs = []
    for parts in FIVE:
        for rel_tol, abs_tol in ((1e-10, 1e-12), (1e-8, 1e-10)):
            forward = _run(parts, rel_tol=rel_tol, abs_tol=abs_tol)
            backward = flow.integrate(
                parts, forward.final.pairs, forward.final.gauges, _params(parts), 3.0, 2.0,
                rel_tol=rel_tol, abs_tol=abs_tol,
            )
            mids = [(a.t + b.t) / 2 for a, b in zip(forward.samples, forward.samples[1:])]
            runs.append({
                "parts": parts,
                "rel_tol": rel_tol,
                "termination": [forward.termination, backward.termination],
                "forward": fields(forward.samples),
                "backward": fields(backward.samples),
                "dense": fields(flow.dense_samples(forward, mids)),
                "monitor": [flow.residual_along(forward), flow.residual_along(backward)],
            })
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FLOAT_LANE_SHA256


def _outcome(call, *args):
    """repr of a call's result, or its refusal's type and message."""
    try:
        return repr(call(*args))
    except (PoleError, ValueError) as error:
        return f"{type(error).__name__}: {error}"


def _frame(parts, t):
    # (value, (tangent,)): the shape the pinned digest was taken over
    root = lax.time_root(parts, t)
    return root.value, (root.tangent,)


# sha256 of what the monitor reads besides the trajectory: the constants
# at seeded rational weights and at float weights made from float
# constants, with the refusals of weights moved off the image or not
# finite; then the root and its rate at seeded float times on both sides
# of zero, at rational times where a square root is adjoined, and the
# refusals at t = 0 and t = inf.  A change that moves a last digit or a
# message needs a new pin and a line in CHANGES.md saying why.
MONITOR_INPUTS_SHA256 = "20abfc66d3cdcba07d45814619ec072d0f29727fb943d5a1bf5a319fb9144944"


def test_monitor_inputs_are_pinned():
    constants, roots = [], []
    for parts, record in REDUCTIONS.items():
        rng = random.Random(23)
        for convert in (QQ, float) * 20:
            kappas, rhos = (tuple(map(convert, c)) for c in draw_constants(record, rng))
            params = reduction_parameters(parts, kappas, rhos)
            moved = SystemParameters((params.alpha[0] + 1e-6, *params.alpha[1:]), params.eta)
            unbounded = SystemParameters((*params.alpha[:-1], math.nan), params.eta)
            constants.append([_outcome(painleve.reduction_constants, parts, p)
                              for p in (params, moved, unbounded)])
        times = [rng.uniform(-5.0, 5.0) for _ in range(200)] + [0.0, -0.0, math.inf, -math.inf]
        if record.root.power == 2:
            times += [random_rational(rng) for _ in range(20)] + [QQ(0)]
        roots += [[parts, repr(t), _outcome(_frame, parts, t)] for t in times]
    text = json.dumps([constants, roots])
    assert hashlib.sha256(text.encode()).hexdigest() == MONITOR_INPUTS_SHA256
