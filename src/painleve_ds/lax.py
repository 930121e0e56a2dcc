"""Lax pairs for the five partition reductions, verified exactly.

Each supported partition carries a pair of loop-algebra matrices (M, B):
M encodes the similarity-reduced dressing data, B the single surviving
hierarchy flow.  Written in the canonical Hamiltonian coordinates, the
compatibility condition

    dM/dt - theta(B_t) + [M, B_t] = 0,      B_t = (d tau/dt) B

is an exact identity, where t is the Painleve time, tau the hierarchy
time (an algebraic function of t, adjoined as a root symbol), and theta
the gradation derivation of the partition's Heisenberg subalgebra.
dM/dt is the total derivative along the Hamiltonian flow together with
the multiplier flows of the gauge variables.

This module assembles M and B from the reduced-variable presentation,
maps canonical to reduced coordinates, and evaluates the compatibility
residual either exactly (rational points, root symbols adjoined) or in
floating point (along numeric trajectories).  The partition-specific
formulas live in each partition's record in ``reductions``; the
functions here dispatch through it once.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Mapping

from .loop import LoopElement, apply_theta, bracket
from .painleve import gauge_log_derivatives, reduction_parameters, vector_field
from .reductions import reduction
from .reporting import SampleReport, jsonable
from .sampling import nonzero_rational, random_rational, rational_avoiding, rational_satisfying
from .scalars import (
    Extension,
    Gradient,
    PoleError,
    QQ,
    is_rational,
    is_zero_scalar,
    tangent_of,
    value_of,
)


# ---------------------------------------------------------------------------
# Hierarchy time: tau is an algebraic function of t, realised through one
# root symbol per partition.


def time_root(parts, t) -> Gradient:
    """The partition's root symbol at time t, with d(root)/dt as its one partial.

    The root satisfies root**power = base(t).  At rational t it is adjoined
    exactly over QQ; at float t it is the real root, or the principal
    square root of a negative base.  Implicit differentiation of the
    relation gives the tangent root * base'(t) / (power * base(t)) in
    either ring.
    """
    record = reduction(parts)
    relation = record.root
    power = relation.power
    exact = is_rational(t)
    if exact:
        t = QQ(t)
    try:
        base = relation.base(t)
    except ZeroDivisionError:
        base = 0
    if not 0 < abs(base) < math.inf:
        raise PoleError(f"{record.parts} root needs a finite nonzero base at t = {t}")
    if exact:
        root = Extension(relation.symbol, power, base).root()
    elif power == 2:
        root = math.sqrt(base) if base > 0 else cmath.sqrt(complex(base))
    else:  # odd power: the real root
        root = math.copysign(abs(base) ** (1 / power), base)
    return Gradient(root, (root * relation.base_rate(t) / (power * base),))


# ---------------------------------------------------------------------------
# Reduced-variable states.


@dataclass(frozen=True)
class DSState:
    """Reduced (dressing) coordinates of one partition at fixed time.

    variables holds the w/phi coordinates named as in the reduced
    presentation; tau is the hierarchy time the state was built with.
    kappas and rhos are the first integrals of the reduction (plain
    constants).
    """

    partition: tuple
    variables: Mapping[str, object]
    tau: object
    kappas: tuple
    rhos: tuple


def canonical_to_ds(partition, pairs, t, gauges, kappas, rhos, root=None) -> DSState:
    """Reduced coordinates of a canonical point; gauge variables must be supplied.

    Variables not fixed by the canonical point are recovered from the
    constraint identities, so the output satisfies them exactly.  root
    defaults to the value of ``time_root(partition, t)``.
    """
    record = reduction(partition)
    for name in record.gauge_names:
        if is_zero_scalar(value_of(gauges[name])):
            raise PoleError(f"gauge variable {name} = 0")
    if root is None:
        root = time_root(record.parts, t).value
    tau = record.tau(t, root)
    kappas = tuple(kappas)
    rhos = tuple(rhos)
    variables = record.to_ds(pairs, gauges, t, tau, root, kappas, rhos)
    return DSState(record.parts, variables, tau, kappas, rhos)


def constraint_residuals(state: DSState) -> dict:
    """Left minus right of each constraint identity; zero on valid states."""
    return reduction(state.partition).constraints(state)


# ---------------------------------------------------------------------------
# Matrix assembly.


def _diagonal(values) -> dict:
    return {(0, i, i): value for i, value in enumerate(values)}


def lax_matrices(state: DSState) -> tuple:
    """Assemble (M, B) from a reduced state.

    Every M carries the kappa differences on its diagonal and kappa_0 as
    its central coefficient; the record supplies the other entries.
    """
    record = reduction(state.partition)
    rank = sum(record.parts) - 1
    k = state.kappas
    m_entries, b_entries, b_diagonal = record.matrices(state)
    kappa_steps = [k[(i + 1) % len(k)] - k[i] for i in range(len(k))]
    m = LoopElement(rank, {**m_entries, **_diagonal(kappa_steps)}, c_k=k[0])
    b = LoopElement(rank, {**b_entries, **_diagonal(b_diagonal)})
    return m, b


# ---------------------------------------------------------------------------
# Zero-curvature residual.


def zero_curvature_residual(
    partition, pairs, t, gauges, kappas, rhos, root=None,
    pair_rates=None, gauge_rates=None,
) -> LoopElement:
    """R = dM/dt - theta(B_t) + [M, B_t]; identically zero on valid data.

    One forward pass along the single direction d/dt computes dM/dt
    exactly: the canonical pair tangents are seeded with the Hamiltonian
    vector field, each gauge tangent with gauge times its multiplier
    log-derivative, t with 1, and the root is ``time_root(partition, t)``
    unless given as a one-direction Gradient.

    pair_rates and gauge_rates override the flow-derived tangents, which
    lets stored trajectory slopes stand in for the vector field; the
    residual then measures how far the stored data is from satisfying
    the flow-coupled identity.  The parameter map runs only when one of
    them is missing.
    """
    record = reduction(partition)
    parts = record.parts
    if root is None:
        root = time_root(parts, t)
    if pair_rates is None or gauge_rates is None:
        params = reduction_parameters(parts, kappas, rhos)
    if pair_rates is None:
        pair_rates = vector_field(record.system, pairs, t, params)
    if gauge_rates is None:
        dlogs = gauge_log_derivatives(parts, pairs, t, params)
        gauge_rates = {name: g * dlogs[name] for name, g in gauges.items()}

    seeded_pairs = tuple(
        (Gradient(q, (dq,)), Gradient(p, (dp,))) for (q, p), (dq, dp) in zip(pairs, pair_rates)
    )
    seeded_gauges = {name: Gradient(g, (gauge_rates[name],)) for name, g in gauges.items()}
    state = canonical_to_ds(
        parts, seeded_pairs, Gradient(t, (1,)), seeded_gauges, kappas, rhos, root=root
    )
    m, b = lax_matrices(state)

    m_value = m.map_scalars(value_of)
    m_dot = m.map_scalars(tangent_of)
    b_t = b.map_scalars(value_of).scale(tangent_of(state.tau))
    return m_dot - apply_theta(record.gradation, b_t) + bracket(m_value, b_t)


def residual_magnitude(element: LoopElement) -> float:
    """Max absolute value over all coefficients: rational, float or complex."""
    values = [*element.entries.values(), element.c_k]
    return max(abs(complex(v)) for v in values)


def _worst_entry(element: LoopElement) -> dict:
    if element.entries:
        (deg, i, j), value = next(iter(element.entries.items()))
        return {"entry": [i, j, deg], "residual": repr(value)}
    return {"entry": ["K"], "residual": repr(element.c_k)}


# ---------------------------------------------------------------------------
# Randomized verification.


def sample_point(partition, rng: random.Random) -> dict:
    """Random admissible rational data for one verification sample."""
    record = reduction(partition)
    t = rational_satisfying(rng, lambda x: x not in (0, 1))
    pairs = []
    for _ in range(record.pair_count):
        q = random_rational(rng)
        p = nonzero_rational(rng)
        pairs.append((q, p))
    if record.pair_count == 2 and pairs[1][0] == pairs[0][0]:
        pairs[1] = (rational_avoiding(rng, (pairs[0][0],)), pairs[1][1])
    gauges = {name: nonzero_rational(rng) for name in record.gauge_names}
    kappas = tuple(random_rational(rng) for _ in range(record.kappa_count))
    rhos = tuple(random_rational(rng) for _ in range(record.rho_count))
    return {
        "pairs": tuple(pairs),
        "t": t,
        "gauges": gauges,
        "kappas": kappas,
        "rhos": rhos,
    }


def _examine_point(parts, point):
    """The failing constraint or zero-curvature entry and its residual; None when clean."""
    for name, residual in constraint_residuals(canonical_to_ds(parts, **point)).items():
        if not is_zero_scalar(residual):
            return {"entry": ["constraint", name], "residual": repr(residual)}
    residual = zero_curvature_residual(parts, **point)
    if not residual.is_zero():
        return _worst_entry(residual)
    return None


def verify_partition(partition, samples: int = 100, seed: int = 0) -> SampleReport:
    """Exact zero-curvature plus constraint check at random rational points."""
    record = reduction(partition)
    rng = random.Random(seed)
    report = SampleReport("zero-curvature " + record.label, samples)
    for index in range(samples):
        point = sample_point(record.parts, rng)
        bad = _examine_point(record.parts, point)
        if bad is not None:
            report.failures.append({"sample_index": index, **jsonable({"point": point, **bad})})
    return report
