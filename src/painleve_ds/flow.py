"""Floating-point trajectories for the five reduced Hamiltonian systems.

An embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients) with
proportional-integral step control drives the canonical flow, one
straight-line step per state size, each record's compiled on import.  The
gauge variables of the partition ride along through their log-derivative
equations, integrated as logs relative to the starting value so any
nonzero start is allowed and no sign is lost.  Time is the independent
variable throughout: the explicit time dependence of the Hamiltonian is
differenced only by the stepper, never frozen, and the along-trajectory
zero-curvature residual is the correctness monitor (the Hamiltonian is
not conserved, so there is nothing energy-based to check).

Near a singularity the trajectory stops and says why: non-finite times
and an interval through a fixed singular time are rejected up front, a
state within DENOMINATOR_FLOOR (1e-12) of a fixed singular time, the
start included, stops the run with the pole flag, movable poles are
flagged when the state leaves the 1e12 ball, a step size collapsing
without either is reported as underflow, and a run that uses up its step
budget says so.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .lax import _residual_kernel, _residual_values, _root_and_rate
from .painleve import SystemParameters, _flow, reduction_constants, require_weights
from .reductions import REDUCTIONS, reduction
from .scalars import PoleError
from .tracing import _compile

DENOMINATOR_FLOOR = 1e-12  # the least distance |t - s| from a fixed singular time s
STATE_CEILING = 1e12
LOG_GAUGE_CEILING = 690.0  # exp overflows just above this; a gauge there is gone

REACHED_END = "reached_end"
POLE_DETECTED = "pole_detected"
STEP_UNDERFLOW = "step_underflow"
STEP_BUDGET = "step_budget_exhausted"
MAX_STEPS = 200_000  # attempted steps before a run stops with STEP_BUDGET

ORDER_STEP_SIZES = (1e-2, 5e-3, 2.5e-3)  # the fixed steps of order_check

# Dormand-Prince 5(4) tableau; E = b5 - b4 gives the error weights
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@functools.cache
def _step_kernel(size):
    """One Dormand-Prince step on ``size`` components in straight lines:
    step(f, args, t, h, y, k0, rel_tol, abs_tol) -> (y_new, k6, error).
    Stage i's state is y_j + h * (a_i0 * k0_j + ...) per component, and its
    slope f(t + c_i * h, state, *args) must be finite (else PoleError).
    The error is the root mean square of h * (e_0 * k0_j + ...) over
    abs_tol + rel_tol * max(|y_j|, |y_new_j|), summed from the left; a
    square past the float range raises OverflowError, a failed step."""
    components = range(size)
    names = lambda prefix: "".join(f"{prefix}{j}, " for j in components)
    # the nonzero weights of a row, from the left: _A[6] and _E hold a zero
    weighted = lambda row, j: " + ".join(f"{w!r} * k{i}_{j}" for i, w in enumerate(row) if w)

    lines = [f"{names('y')}= y", f"{names('k0_')}= k0"]
    for i in range(1, 7):
        when = "t + h" if _C[i] == 1.0 else f"t + {_C[i]!r} * h"
        states = [f"y{j} + h * ({weighted(_A[i], j)})" for j in components]
        if i < 6:
            lines.append(f"{names(f'k{i}_')}= f({when}, [{', '.join(states)}], *args)")
        else:  # the fifth-order solution is y_new, and its slope the next k0
            lines += [f"n{j} = {state}" for j, state in zip(components, states)]
            lines += [f"k6 = f({when}, n := [{names('n')}], *args)", f"{names('k6_')}= k6"]
        finite = " and ".join(f"isfinite(k{i}_{j})" for j in components)
        lines.append(f"if not ({finite}): raise PoleError('non-finite derivative')")
    lines += [f"e{j} = h * ({weighted(_E, j)})" for j in components]
    squares = " + ".join(f"(e{j} / (abs_tol + rel_tol * max(abs(y{j}), abs(n{j})))) ** 2" for j in components)
    lines.append(f"return n, k6, sqrt(({squares}) / {size})")
    title, signature = f"Dormand-Prince step of {size}", "step(f, args, t, h, y, k0, rel_tol, abs_tol)"
    return _compile(title, signature, lines, isfinite=math.isfinite, sqrt=math.sqrt, PoleError=PoleError)


# every record's state size compiles here, once, so that no integrate call does
for _size in {2 * record.pair_count + len(record.gauge_names) for record in REDUCTIONS.values()}:
    _step_kernel(_size)

_SAFETY = 0.9
_PI_ALPHA = 0.17  # proportional exponent for order 5
_PI_BETA = 0.04  # integral exponent
_GROW_CAP = 5.0
_SHRINK_CAP = 0.2


@dataclass(frozen=True)
class TrajectorySample:
    """One accepted point: time, canonical pairs, gauge values, and the
    normalized local error estimate of the step that produced it."""

    t: float
    pairs: tuple
    gauges: dict
    error: float


@dataclass
class Trajectory:
    """An integration run: the accepted steps as the stepper returns them,
    time, flat state, slope and normalized error in four columns, with the
    state's log-gauges relative to _gauge_start.  ``samples`` builds every
    TrajectorySample on its first read, and ``final`` only the last."""

    partition: tuple
    system: str
    params: SystemParameters
    gauge_names: tuple
    rel_tol: float
    abs_tol: float
    termination: str = REACHED_END
    _times: tuple = field(default=(), repr=False)
    _states: tuple = field(default=(), repr=False)
    _slopes: tuple = field(default=(), repr=False)
    _errors: tuple = field(default=(), repr=False)
    _gauge_start: tuple = field(default=(), repr=False)

    @functools.cached_property
    def samples(self) -> list:
        return list(map(self._sample, self._times, self._states, self._errors))

    @property
    def final(self) -> TrajectorySample:
        return self._sample(self._times[-1], self._states[-1], self._errors[-1])

    def _split(self, y) -> tuple:
        """The pairs and the gauge values of a flat state."""
        n = len(y) - len(self.gauge_names)
        gauges = {
            name: start * math.exp(log)
            for name, start, log in zip(self.gauge_names, self._gauge_start, y[n:])
        }
        return tuple(zip(y[0:n:2], y[1:n:2])), gauges

    def _sample(self, t, y, error) -> TrajectorySample:
        return TrajectorySample(t, *self._split(y), error)


# -- generic embedded stepper ------------------------------------------


def _advance(f, t0, y0, t_end, rel_tol, abs_tol, fixed_step, guard, args=()):
    """Drive y' = f(t, y, *args) from t0 to t_end; returns (records, termination).

    records is a list of (t, y, slope, error_norm); guard(t, y) returns a
    termination string when the state has left the admissible region.
    Each step is one call of the state size's ``_step_kernel``.  f may
    raise (a pole inside a stage; at the start its PoleError propagates),
    a slope may be non-finite, and the error estimate may overflow;
    adaptive mode shrinks the step and retries, fixed mode gives up with
    the pole flag.  After MAX_STEPS attempted steps the run stops with the
    step-budget flag.
    """
    direction = 1.0 if t_end >= t0 else -1.0
    t, y = t0, list(y0)
    step = _step_kernel(len(y))

    bad = guard(t, y)
    if bad:
        return [(t, y, None, 0.0)], bad
    slope = f(t, y, *args)
    if not all(map(math.isfinite, slope)):
        raise PoleError("non-finite derivative")
    records = [(t, y, slope, 0.0)]
    if t_end == t0:
        return records, REACHED_END

    if fixed_step is not None:
        h = direction * abs(fixed_step)
    else:
        h = direction * min(0.05, abs(t_end - t0) / 100.0)
    error_prev = 1.0

    for _ in range(MAX_STEPS):
        if direction * (t_end - t) <= 0:
            return records, REACHED_END
        terminal = direction * (t + h - t_end) >= 0
        if terminal:
            h = t_end - t
        if not terminal and abs(h) < 1e-14 * max(1.0, abs(t)):
            return records, STEP_UNDERFLOW

        try:
            y_new, slope_new, error = step(f, args, t, h, y, slope, rel_tol, abs_tol)
        except (PoleError, OverflowError):
            if fixed_step is not None:
                return records, POLE_DETECTED
            h *= 0.5
            continue

        if fixed_step is None and error > 1.0:
            factor = max(_SHRINK_CAP, _SAFETY * error ** (-_PI_ALPHA))
            h *= min(factor, 1.0)
            continue

        t = t_end if terminal else t + h
        y = y_new
        slope = slope_new  # first-same-as-last
        records.append((t, y, slope, error))
        bad = guard(t, y)
        if bad:
            return records, bad
        if fixed_step is None:
            floor = max(error, 1e-10)
            factor = _SAFETY * floor ** (-_PI_ALPHA) * error_prev ** _PI_BETA
            h *= min(_GROW_CAP, max(_SHRINK_CAP, factor))
            error_prev = floor
    return records, STEP_BUDGET


# -- the five systems ---------------------------------------------------


def _check_interval(record, t0, t_end):
    for name, value in (("t0", t0), ("t1", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"integration time {name} = {value} is not finite")
    lo, hi = min(t0, t_end), max(t0, t_end)
    for s in record.singular_times:
        if lo <= s <= hi:
            raise PoleError(
                f"integration interval [{lo}, {hi}] contains the fixed "
                f"singular time t = {s:g}"
            )


def _system_guard(record):
    singular = record.singular_times
    n = 2 * record.pair_count

    def guard(t, y):
        if any(abs(t - s) < DENOMINATOR_FLOOR for s in singular):
            return POLE_DETECTED
        # a NaN fails each <= test; the log-gauges meet the tighter bound only
        if not all(map(STATE_CEILING.__ge__, map(abs, y[:n]))):
            return POLE_DETECTED
        if not all(map(LOG_GAUGE_CEILING.__ge__, map(abs, y[n:]))):
            return POLE_DETECTED
        return None

    return guard


def integrate(
    system,
    pairs,
    gauges,
    params: SystemParameters,
    t0,
    t_end,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    fixed_step: float | None = None,
) -> Trajectory:
    """Float trajectory of one partition's canonical flow plus gauges.

    system is a partition or a system id, as ``reductions.reduction``
    takes it (cp6 means its (3,3) realization).  gauges maps each of the
    partition's gauge names to a nonzero starting value; every start
    coordinate must be finite.  The interval [t0, t_end] must be finite and
    avoid the fixed singular times; movable poles and an exhausted step
    budget (MAX_STEPS) terminate the trajectory with a flag rather than an
    exception.
    """
    record = reduction(system)
    parts = record.parts
    _check_interval(record, t0, t_end)
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"relative tolerance rel_tol = {rel_tol} must be finite and >= 0")
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise ValueError(f"absolute tolerance abs_tol = {abs_tol} must be finite and > 0")
    if fixed_step is not None and not (math.isfinite(fixed_step) and fixed_step != 0):
        raise ValueError(f"step fixed_step = {fixed_step} must be finite and nonzero")
    names = record.gauge_names
    gauge_start = []
    for name in names:
        if name not in gauges:
            raise ValueError(f"missing starting value for gauge {name}")
        value = float(gauges[name])
        if not math.isfinite(value):
            raise ValueError(f"gauge {name} must start finite, not {value}")
        if value == 0.0:
            raise PoleError(f"gauge {name} must start nonzero")
        gauge_start.append(value)
    pair_count = record.pair_count
    if len(pairs) != pair_count:
        raise ValueError(f"{parts} carries {pair_count} canonical pair(s)")
    start = [float(c) for qp in pairs for c in qp]
    for k, value in enumerate(start):
        if not math.isfinite(value):
            raise ValueError(f"coordinate {'qp'[k % 2]}{k // 2 + 1} must start finite, not {value}")
    require_weights(record, params)

    t0 = float(t0)
    t_end = float(t_end)
    y0 = start + [0.0] * len(names)
    # converted once, so the right-hand side does float work only
    alpha = tuple(float(a) for a in params.alpha)
    eta = None if params.eta is None else float(params.eta)

    records, termination = _advance(
        _flow(parts)[0], t0, y0, t_end, rel_tol, abs_tol, fixed_step,
        _system_guard(record), (alpha, eta),
    )

    # the fields in order: the stepper's records enter as four columns
    return Trajectory(
        parts, record.system, params, names, rel_tol, abs_tol, termination,
        *zip(*records), tuple(gauge_start),
    )


# -- dense output --------------------------------------------------------


def _hermite(t, t0, y0, f0, t1, y1, f1):
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return [
        h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
        for a, fa, b, fb in zip(y0, f0, y1, f1)
    ]


def dense_samples(trajectory: Trajectory, times) -> list:
    """Cubic Hermite interpolation of the trajectory at each requested time, in order.

    Times must lie inside the span the trajectory actually covered (it
    may have stopped early at a pole).
    """
    knots, times = trajectory._times, list(times)
    if len(knots) == 1:
        for t in times:
            if t != knots[0]:
                raise ValueError(f"time {t} outside the integrated span")
        return [trajectory.final for _ in times]
    forward = knots[-1] >= knots[0]
    lo, hi = (knots[0], knots[-1]) if forward else (knots[-1], knots[0])
    out = [None] * len(times)
    index = 0
    for k in sorted(range(len(times)), key=times.__getitem__, reverse=not forward):
        t = times[k]
        if not lo <= t <= hi:
            raise ValueError(f"time {t} outside the integrated span [{lo}, {hi}]")
        while index + 2 < len(knots) and (
            knots[index + 1] < t if forward else knots[index + 1] > t
        ):
            index += 1
        y = _hermite(
            t,
            knots[index],
            trajectory._states[index],
            trajectory._slopes[index],
            knots[index + 1],
            trajectory._states[index + 1],
            trajectory._slopes[index + 1],
        )
        out[k] = trajectory._sample(t, y, float("nan"))
    return out


# -- persistence ----------------------------------------------------------


def csv_header(trajectory: Trajectory) -> str:
    pair_count = reduction(trajectory.partition).pair_count
    columns = ["t"]
    for i in range(1, pair_count + 1):
        columns += [f"q{i}", f"p{i}"]
    columns += list(trajectory.gauge_names)
    return ",".join(columns)


def csv_rows(trajectory: Trajectory, times=None):
    """Header plus one row per accepted step (or per requested time)."""
    yield csv_header(trajectory)
    samples = (
        trajectory.samples if times is None else dense_samples(trajectory, times)
    )
    for s in samples:
        cells = [repr(s.t)]
        for q, p in s.pairs:
            cells += [repr(q), repr(p)]
        cells += [repr(s.gauges[name]) for name in trajectory.gauge_names]
        yield ",".join(cells)


def metadata(trajectory: Trajectory) -> dict:
    """JSON-ready sidecar describing the run."""
    from .reporting import jsonable

    return {
        "system": trajectory.system,
        "partition": list(trajectory.partition),
        "params": {
            "alpha": jsonable(trajectory.params.alpha),
            "eta": jsonable(trajectory.params.eta),
        },
        "tolerances": {"rel": trajectory.rel_tol, "abs": trajectory.abs_tol},
        "termination": trajectory.termination,
        "samples": len(trajectory._times),
    }


# -- correctness monitors -------------------------------------------------


def residual_along(trajectory: Trajectory) -> dict:
    """Max zero-curvature residual magnitude over the trajectory's steps.

    The float image of the exact identity, evaluated with the stored
    step slopes standing in for the vector field: small values certify
    that the stored states and stored rates satisfy the flow-coupled
    identity together, so a corrupted state shows up immediately; a NaN
    makes max_residual NaN, at the first such step's t.  Each step is one
    call of ``lax._residual_values``, as ``lax.zero_curvature_residual``
    makes it, on the stored state with each gauge restored, the stored
    slope, and the root of ``lax._root_and_rate``, its constraint outputs
    left out: no sample, Gradient, Fraction or dict is built per step, and
    none runs the parameter map.  A step without a slope (a singular
    start) is skipped; "samples" counts the steps evaluated.
    """
    parts = trajectory.partition
    record = reduction(parts)
    kappas, rhos = reduction_constants(parts, trajectory.params)
    # found exactly once, then floats, as integrate treats the weights
    kappas = tuple(float(k) for k in kappas)
    rhos = tuple(float(r) for r in rhos)
    n = 2 * record.pair_count
    constraints = len(_residual_kernel(parts)[0])
    starts = trajectory._gauge_start
    worst = 0.0
    worst_t = trajectory._times[0]
    evaluated = 0
    for t, y, slope in zip(trajectory._times, trajectory._states, trajectory._slopes):
        if slope is None:
            continue
        evaluated += 1
        gauges = [start * math.exp(log) for start, log in zip(starts, y[n:])]
        root, rate = _root_and_rate(record, t)
        values = _residual_values(record, [*y[:n], *gauges], slope, t, root, rate, kappas, rhos)
        magnitudes = list(map(abs, values[constraints:]))
        magnitude = math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)
        # a NaN compares false either way: it takes the worst place and keeps it
        if not (magnitude <= worst or math.isnan(worst)):
            worst, worst_t = magnitude, t
    return {
        "partition": list(parts),
        "samples": evaluated,
        "max_residual": worst,
        "at_t": worst_t,
    }


def order_check() -> dict:
    """Observed convergence order on a problem with a known solution.

    A frequency-8 rotation: y = (cos 8t, -sin 8t) on [2, 3].  The
    frequency puts the global errors squarely between the float floor
    and the coarse-step regime for the three ORDER_STEP_SIZES, so the
    log-log fit reads off the genuine asymptotic order.  Returns the
    fitted slope together with the raw errors.
    """

    def f(t, y):
        return [8.0 * y[1], -8.0 * y[0]]

    start = [math.cos(16.0), -math.sin(16.0)]
    exact = [math.cos(24.0), -math.sin(24.0)]
    errors = []
    for h in ORDER_STEP_SIZES:
        records, termination = _advance(f, 2.0, start, 3.0, 1e-12, 1e-12, h, lambda t, y: None)
        assert termination == REACHED_END
        errors.append(max(abs(a - b) for a, b in zip(records[-1][1], exact)))
    logs_h = [math.log(h) for h in ORDER_STEP_SIZES]
    logs_e = [math.log(e) for e in errors]
    n = len(ORDER_STEP_SIZES)
    mean_h = sum(logs_h) / n
    mean_e = sum(logs_e) / n
    slope = sum((a - mean_h) * (b - mean_e) for a, b in zip(logs_h, logs_e)) / sum(
        (a - mean_h) ** 2 for a in logs_h
    )
    return {"step_sizes": list(ORDER_STEP_SIZES), "errors": errors, "slope": slope}
