"""The three workloads: their inputs, kept here as data, and the calls each times.

Each workload has a home lane, timed as ``wall_s`` and traced.  After
it, an untraced repetition runs a canary: the other two lanes at a small
size, so every end-to-end metric is measured on every workload.  Inputs
are made from the workload seed alone; the package only ever receives
these generated inputs, through the public entry points
``verify_partition``, ``check_*``, ``reduction_parameters``,
``integrate``, ``residual_along`` and ``flow.dense_samples``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from time import perf_counter

from painleve_ds import flow, lax, painleve, weyl

# (parts, canonical pairs, gauge names), in the order `report` visits them.
# Kappa count is sum(parts) and rho count len(parts) - 1.
PARTITIONS = (
    ((3, 3), 2, ("w3",)),
    ((2, 2, 1), 2, ("phi3", "phi34")),
    ((2, 2), 1, ("w1",)),
    ((3, 1), 2, ("phi12",)),
    ((4, 1), 2, ("phi12",)),
)

# `report` defaults: 100 samples per exact suite, 25 conjugation points,
# 1000 weight-normalization samples.
REPORT_SAMPLES = 100
CANARY_SAMPLES = 20

# `report`'s start and interval; starts are jittered around it by the seed.
START = ((0.4, 0.3), (0.7, -0.2))
JITTER = 0.005
T0, T1 = 2.0, 3.0
# (rel_tol, abs_tol, starts per partition): `report`'s numerics, then the
# `integrate` CLI default.  Three to two keeps p50 and p90 of the call
# times inside a cluster of like trajectories, not on the edge between two.
TOLERANCES = ((1e-10, 1e-12, 3), (1e-8, 1e-10, 2))
CANARY_TOLERANCES = ((1e-8, 1e-10, 1),)
# acceptance criterion 8 bounds
RESIDUAL_BOUND = 1e-6
ROUND_TRIP_BOUND = 1e-6
REACHED_END = "reached_end"
# chained reference for the traced accuracy metrics
REFERENCE_TOLERANCE = (1e-13, 1e-15)

LANES = {"lax-exact": "lax", "weyl-exact": "weyl", "float-flow": "float"}


def label(parts) -> str:
    return "".join(str(p) for p in parts)


def kappas_of(parts):
    return tuple(Fraction(2 * k + 1, 7) for k in range(sum(parts)))


def rhos_of(parts):
    return tuple(Fraction(3 + k, 5) for k in range(len(parts) - 1))


def probe():
    """Time a fixed slice of pure-Python Fraction work, about a millisecond.

    Timed next to every call in an untraced repetition: its time says
    how fast the host ran just then (see README, "Steadiness").
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 3) * Fraction(7, i)
    return perf_counter() - start


class Clock:
    """Times each call into the package.

    Traced, it opens a suite span around each call.  Untraced, it times
    the host probe just before and just after each call, outside the
    call's own time, and keeps their mean with it.
    """

    def __init__(self, recorder=None):
        self.times: dict = {}
        self.probes: dict = {}
        self.probe_s = 0.0
        self.recorder = recorder

    def call(self, metric, fn, *args, **kwargs):
        if self.recorder is not None:
            with self.recorder.span("suite." + metric):
                return self._timed(metric, fn, args, kwargs)
        before = probe()
        try:
            return self._timed(metric, fn, args, kwargs)
        finally:
            after = probe()
            self.probe_s += before + after
            self.probes.setdefault(metric, []).append((before + after) / 2)

    def _timed(self, metric, fn, args, kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times.setdefault(metric, []).append(perf_counter() - start)

    def host_probe(self):
        """The probe time that, applied to the whole, matches the per-call
        probes: sum(t) / sum(t / probe) over every call timed."""
        pairs = [
            (t, p) for metric, ts in self.times.items()
            for t, p in zip(ts, self.probes.get(metric, ()))
        ]
        return sum(t for t, _ in pairs) / sum(t / p for t, p in pairs) if pairs else None


class Tally:
    """Operations attempted and failed, and a digest of each exact report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.errors: list = []

    def raised(self, what, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def digest(self, key, body):
        text = json.dumps(body, sort_keys=True).encode()
        self.digests[key] = hashlib.sha256(text).hexdigest()


# -- lane inputs (set-up) and lane runs (timed) ---------------------------


def exact_sizes(scale):
    samples = max(1, round(REPORT_SAMPLES * scale))
    return {
        "samples": samples,
        "conjugation": max(1, samples // 4),
        "normalization": 10 * samples,
    }


def float_starts(seed, tolerances):
    """Seeded starts near `report`'s: (parts, pairs, gauges, tolerance) rows."""
    rng = random.Random(seed)
    rows = []
    for parts, pair_count, names in PARTITIONS:
        gauges = {name: 1.0 + 0.25 * k for k, name in enumerate(names)}
        for rel_tol, abs_tol, starts in tolerances:
            for _ in range(starts):
                pairs = tuple(
                    (q + rng.uniform(-JITTER, JITTER), p + rng.uniform(-JITTER, JITTER))
                    for q, p in START[:pair_count]
                )
                rows.append((parts, pairs, gauges, (rel_tol, abs_tol)))
    return rows


def prepare(lane, seed, scale, canary=False):
    """A lane's inputs at `scale` times `report`'s size, or at canary size."""
    if lane == "float":
        if canary:
            return float_starts(seed, CANARY_TOLERANCES)
        return float_starts(
            seed, [(r, a, max(1, round(n * scale))) for r, a, n in TOLERANCES]
        )
    return exact_sizes(CANARY_SAMPLES / REPORT_SAMPLES if canary else scale)


def run_lax(seed, sizes, clock, tally):
    samples = sizes["samples"]
    for parts, _, _ in PARTITIONS:
        metric = f"verify_{label(parts)}_s"
        try:
            report = clock.call(metric, lax.verify_partition, parts, samples=samples, seed=seed)
        except Exception as exc:  # a suite that raises is a failed operation
            tally.raised(metric, exc)
            continue
        body = report.to_json_dict()
        tally.attempted += body["samples"]
        tally.failed += len(body["failures"]) or (0 if body["passed"] else 1)
        tally.digest(f"{metric}/{samples}/seed{seed}", body)


def run_weyl(seed, sizes, clock, tally):
    suites = (
        ("relations_s", weyl.check_relations, sizes["samples"]),
        ("equivariance_s", weyl.check_equivariance, sizes["samples"]),
        ("conjugation_s", weyl.check_conjugation, sizes["conjugation"]),
        ("normalization_s", painleve.check_normalization, sizes["normalization"]),
    )
    for metric, suite, samples in suites:
        try:
            report = clock.call(metric, suite, samples=samples, seed=seed)
        except Exception as exc:  # e.g. the RuntimeError at RETRY_CAP
            tally.raised(metric, exc)
            continue
        body = report.to_json_dict()
        tally.attempted += len(body["checks"])
        tally.failed += sum(1 for check in body["checks"] if not check["pass"])
        tally.digest(f"{metric}/{samples}/seed{seed}", body)


def run_float(starts, clock, tally, stats):
    """Forward, back, monitor and dense output for every start.

    stats collects what the trace reports about the trajectories: step
    counts and sizes, the worst residual and round trip, and the forward
    trajectories themselves for the accuracy reference.
    """
    params_of = {}
    for parts, pairs, gauges, (rel_tol, abs_tol) in starts:
        try:
            if parts not in params_of:
                params_of[parts] = clock.call(
                    "reduction_parameters", painleve.reduction_parameters,
                    parts, kappas_of(parts), rhos_of(parts),
                )
            params = params_of[parts]
            forward = clock.call(
                "integrate", flow.integrate, parts, pairs, gauges, params, T0, T1,
                rel_tol=rel_tol, abs_tol=abs_tol,
            )
            backward = clock.call(
                "integrate", flow.integrate, parts, forward.final.pairs, forward.final.gauges,
                params, T1, T0, rel_tol=rel_tol, abs_tol=abs_tol,
            )
            monitor = clock.call("residual_along", flow.residual_along, forward)
            times = [(a.t + b.t) / 2 for a, b in zip(forward.samples, forward.samples[1:])]
            clock.call("dense_samples", flow.dense_samples, forward, times)
        except Exception as exc:  # e.g. the step-budget RuntimeError
            tally.raised(f"trajectory {label(parts)}", exc)
            continue
        round_trip = max(
            abs(a - b) for end, start in zip(backward.final.pairs, pairs) for a, b in zip(end, start)
        )
        tally.attempted += 1
        if not (
            forward.termination == REACHED_END
            and backward.termination == REACHED_END
            and monitor["max_residual"] <= RESIDUAL_BOUND
            and round_trip <= ROUND_TRIP_BOUND
        ):
            tally.failed += 1
        for trajectory in (forward, backward):
            ts = [s.t for s in trajectory.samples]
            steps = [abs(b - a) for a, b in zip(ts, ts[1:])]
            stats["steps_accepted"] = stats.get("steps_accepted", 0) + len(steps)
            if steps:
                stats["h_min"] = min(stats.get("h_min", steps[0]), *steps)
                stats["h_max"] = max(stats.get("h_max", steps[0]), *steps)
        stats["monitor_samples"] = stats.get("monitor_samples", 0) + monitor["samples"]
        stats["max_residual"] = max(stats.get("max_residual", 0.0), monitor["max_residual"])
        stats["round_trip_max"] = max(stats.get("round_trip_max", 0.0), round_trip)
        stats.setdefault("forward", []).append((parts, params, forward, (rel_tol, abs_tol)))


def run_lane(lane, seed, inputs, clock, tally, stats):
    if lane == "lax":
        run_lax(seed, inputs, clock, tally)
    elif lane == "weyl":
        run_weyl(seed, inputs, clock, tally)
    else:
        run_float(inputs, clock, tally, stats)


def reference_errors(forwards):
    """Worst global error at step points and at dense-output step midpoints.

    The reference is chained through every step point and midpoint of the
    run's trajectory at REFERENCE_TOLERANCE, three orders tighter than the
    tightest run tolerance, so it lands exactly on the times compared.
    """
    rel_tol, abs_tol = REFERENCE_TOLERANCE
    step_err = dense_err = 0.0

    def gap(a, b):
        return max(abs(x - y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))

    for parts, params, forward, _ in forwards:
        samples = forward.samples
        mids = [(a.t + b.t) / 2 for a, b in zip(samples, samples[1:])]
        dense = flow.dense_samples(forward, mids)
        ref = samples[0]
        for before, mid, after, interpolated in zip(samples, mids, samples[1:], dense):
            at_mid = flow.integrate(
                parts, ref.pairs, ref.gauges, params, before.t, mid,
                rel_tol=rel_tol, abs_tol=abs_tol,
            ).final
            ref = flow.integrate(
                parts, at_mid.pairs, at_mid.gauges, params, mid, after.t,
                rel_tol=rel_tol, abs_tol=abs_tol,
            ).final
            dense_err = max(dense_err, gap(interpolated.pairs, at_mid.pairs))
            step_err = max(step_err, gap(after.pairs, ref.pairs))
    return step_err, dense_err
