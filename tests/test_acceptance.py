"""Acceptance gate: every primary criterion at its stated scale.

Each criterion is one test, so the verbose run shows one pass/fail line
per criterion; the body also prints a summary line for -s runs.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as QQ

from painleve_ds.flow import integrate, order_check, residual_along
from painleve_ds.heisenberg import (
    Partition,
    build_heisenberg,
    compute_N,
    gradation_type,
    verify_heisenberg,
)
from painleve_ds.lax import (
    canonical_to_ds,
    constraint_residuals,
    sample_point,
    verify_partition,
)
from painleve_ds.painleve import check_normalization, reduction_parameters
from painleve_ds.reductions import reduction
from painleve_ds.scalars import is_zero_scalar
from painleve_ds.weyl import check_conjugation, check_equivariance, check_relations

FIVE = [(2, 2), (3, 1), (4, 1), (2, 2, 1), (3, 3)]

KNOWN_SCALE = {(2, 2): 2, (3, 1): 3, (4, 1): 8, (2, 2, 1): 4, (3, 3): 3}
KNOWN_TYPE = {
    (2, 2): (1, 0, 1, 0),
    (3, 1): (1, 1, 0, 1),
    (4, 1): (2, 2, 1, 1, 2),
    (2, 2, 1): (2, 0, 1, 1, 0),
    (3, 3): (1, 0, 1, 0, 1, 0),
}


def _line(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def _partitions_of(m, cap=None):
    cap = cap if cap is not None else m
    if m == 0:
        yield ()
        return
    for first in range(min(m, cap), 0, -1):
        for rest in _partitions_of(m - first, first):
            yield (first,) + rest


def test_criterion_1_zero_curvature_exact_100_samples():
    worst = 0.0
    for parts in FIVE:
        started = time.monotonic()
        report = verify_partition(parts, samples=100, seed=0)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert report.passed, (parts, report.failures[:1])
        assert elapsed < 60.0, (parts, elapsed)
    _line(1, True, f"zero curvature exact at 100 points x 5 partitions "
                   f"(slowest {worst:.1f}s < 60s)")


def test_criterion_2_constraint_identities_on_100_states():
    for parts in FIVE:
        rng = random.Random(2)
        for _ in range(100):
            point = sample_point(parts, rng)
            state = canonical_to_ds(
                parts, point["pairs"], point["t"], point["gauges"],
                point["kappas"], point["rhos"], root=point["root"],
            )
            for name, residual in constraint_residuals(state).items():
                assert is_zero_scalar(residual), (parts, name)
    _line(2, True, "constraint identities exact on 100 states x 5 partitions")


def test_criterion_3_weyl_group_relations_at_100_points():
    report = check_relations(samples=100, seed=0)
    _line(3, report.passed,
          "involution, braid and commutation relations exact at 100 points")


def test_criterion_4_equivariance_at_100_points():
    report = check_equivariance(samples=100, seed=0)
    _line(4, report.passed,
          "all six reflections intertwine the flow exactly at 100 points")


def test_criterion_5_heisenberg_construction():
    assert tuple(compute_N(Partition(p)) for p in FIVE) == (2, 3, 8, 4, 3)
    for parts in FIVE:
        data = build_heisenberg(Partition(parts))
        assert gradation_type(data) == KNOWN_TYPE[parts]
        assert compute_N(Partition(parts)) == KNOWN_SCALE[parts]
    swept = 0
    for m in range(2, 8):
        for parts in _partitions_of(m):
            assert verify_heisenberg(Partition(parts)).passed, parts
            swept += 1
    _line(5, True, f"scales and gradation types match; "
                   f"{swept} partitions of 2 <= m <= 7 verified")


def test_criterion_6_weight_normalization_symbolic_and_1000_samples():
    report = check_normalization(samples=1000, seed=0)
    _line(6, report.passed,
          "weight sums are identically one, symbolically and at 1000 samples")


def test_criterion_7_gauge_bridge_at_25_points():
    report = check_conjugation(samples=25, seed=0)
    _line(7, report.passed,
          "gauge conjugation reproduces the reflected Lax matrix at 25 points")


def test_criterion_8_numerics():
    order = order_check()
    assert abs(order["slope"] - 5.0) <= 0.3, order
    for parts in FIVE:
        record = reduction(parts)
        kappas = tuple(QQ(2 * k + 1, 7) for k in range(record.kappa_count))
        rhos = tuple(QQ(3 + k, 5) for k in range(record.rho_count))
        params = reduction_parameters(parts, kappas, rhos)
        pairs = [(0.4, 0.3), (0.7, -0.2)][: record.pair_count]
        gauges = {n: 1.0 + 0.25 * k for k, n in enumerate(record.gauge_names)}
        forward = integrate(parts, pairs, gauges, params, 2.0, 3.0,
                            rel_tol=1e-10, abs_tol=1e-12)
        assert forward.termination == "reached_end", parts
        assert residual_along(forward)["max_residual"] <= 1e-6, parts
        back = integrate(parts, forward.final.pairs, forward.final.gauges,
                         params, 3.0, 2.0, rel_tol=1e-10, abs_tol=1e-12)
        drift = max(
            abs(c - c0)
            for got, want in zip(back.final.pairs, pairs)
            for c, c0 in zip(got, want)
        )
        drift = max(drift, max(
            abs(back.final.gauges[n] - g0) for n, g0 in gauges.items()
        ))
        assert drift <= 1e-6, (parts, drift)
    _line(8, True, f"order slope {order['slope']:.2f}; residuals and round "
                   f"trips within 1e-6 on [2,3] for all five systems")


def test_criterion_9_reports_are_byte_identical():
    args = [
        sys.executable, "-m", "painleve_ds", "report",
        "--samples", "10", "--seed", "123",
        "--bridge-samples", "5", "--normalization-samples", "50",
    ]
    first = subprocess.run(args, capture_output=True, text=True, timeout=600)
    second = subprocess.run(args, capture_output=True, text=True, timeout=600)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["pass"] is True
    _line(9, True, "same-seed reports byte-identical across two runs")
