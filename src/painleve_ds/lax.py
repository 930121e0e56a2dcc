"""Lax pairs for the five partition reductions, verified exactly.

Each supported partition carries a pair of loop-algebra matrices (M, B):
M encodes the similarity-reduced dressing data, B the single surviving
hierarchy flow.  Written in the canonical Hamiltonian coordinates, the
compatibility condition

    dM/dt - theta(B_t) + [M, B_t] = 0,      B_t = (d tau/dt) B

is an exact identity, where t is the Painleve time, tau the hierarchy
time (an algebraic function of t, carried by one root symbol), and theta
the gradation derivation of the partition's Heisenberg subalgebra.
dM/dt is the total derivative along the Hamiltonian flow together with
the multiplier flows of the gauge variables.

This module assembles M and B from the reduced-variable presentation,
maps canonical to reduced coordinates, and evaluates the compatibility
residual either exactly (rational points and roots, sqrt(6) adjoined
for (3,1)) or in floating point (along numeric trajectories).  The
partition-specific formulas live in each partition's record in
``reductions``; the functions here dispatch through it once.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .loop import LoopElement, apply_theta, bracket
from .painleve import gauge_log_derivatives, reduction_parameters, vector_field
from .reductions import REDUCTIONS, reduction
from .reporting import SampleReport, jsonable
from .sampling import (
    draw_constants, nonzero_rational, random_rational, rational_avoiding, rational_satisfying,
)
from .scalars import (
    Extension,
    ExtScalar,
    Gradient,
    PoleError,
    QQ,
    is_rational,
    is_zero_scalar,
    tangent_of,
    value_of,
)
from .tracing import RATIONAL, Traced, compile_kernel, rational


# ---------------------------------------------------------------------------
# Hierarchy time: tau is an algebraic function of t, realised through one
# root symbol per partition.


def time_root(parts, t) -> Gradient:
    """The partition's root symbol at time t, with d(root)/dt as its one partial.

    root**power = base(t).  At rational t a square root is adjoined over QQ
    and a cube root refused: exact samples draw it and pass ``root=``.  At
    float t it is the real root, or the principal root of a negative base.
    Both come from one call of the relation's traced (base, base') kernel.
    """
    root, rate = _root_and_rate(reduction(parts), QQ(t) if is_rational(t) else t)
    return Gradient(root, (rate,))


def _root_and_rate(record, t) -> tuple:
    """(root, d(root)/dt) at a float or Fraction t, the rate as
    ``RootRelation.along_t`` gives it, from one call of the relation's
    (base, base') kernel: the monitor's per-step root, with no Gradient."""
    relation = record.root
    power = relation.power
    try:
        base, slope = relation.kernel(t)
    except ZeroDivisionError:
        base = 0
    if not 0 < abs(base) < math.inf:
        raise PoleError(f"{record.parts} root needs a finite nonzero base at t = {t}")
    if type(t) is QQ:
        if power != 2:
            raise ValueError(f"{record.label} adjoins no exact root of power {power} at rational"
                             f" t = {t}: draw {relation.symbol}, compute t from it and pass root=")
        root = Extension(relation.symbol, base).root()
    elif power == 2:
        root = math.sqrt(base) if base > 0 else cmath.sqrt(complex(base))
    else:  # odd power: the real root
        root = math.copysign(abs(base) ** (1 / power), base)
    return root, root * slope / (power * base)


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


def _check_poles(record, t, gauges):
    """Refuse a zero gauge, and a time the record's coordinate map excludes."""
    for name in record.gauge_names:
        if is_zero_scalar(value_of(gauges[name])):
            raise PoleError(f"gauge variable {name} = 0")
    for excluded in record.excluded_times:
        if is_zero_scalar(value_of(t) - excluded):
            raise PoleError(f"{record.label} coordinate map excludes t = {excluded}")


def canonical_to_ds(partition, pairs, t, gauges, kappas, rhos, root=None) -> DSState:
    """Reduced coordinates of a canonical point; gauge variables must be supplied.

    Variables not fixed by the canonical point are recovered from the
    constraint identities, so the output satisfies them exactly.  root
    defaults to the value of ``time_root(partition, t)``.
    """
    record = reduction(partition)
    _check_poles(record, t, gauges)
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


def _assemble_residual(parts, pairs, t, gauges, kappas, rhos, root) -> LoopElement:
    """R from one-direction Gradient inputs: the code the kernel is traced from."""
    state = canonical_to_ds(parts, pairs, t, gauges, kappas, rhos, root=root)
    m, b = lax_matrices(state)
    b_t = b.map_scalars(value_of).scale(tangent_of(state.tau))
    theta = apply_theta(reduction(parts).gradation, b_t)
    return m.map_scalars(tangent_of) - theta + bracket(m.map_scalars(value_of), b_t)


@functools.cache
def _residual_kernel(parts):
    """(entry keys, kernel, exact) from one trace of the generic assembly:
    exact() is the kernel over integer pairs, and exact("u", "du") that
    kernel graded by the parity of a square root, each compiled on its
    first call (see ``tracing.compile_kernel``).  The leaves are the pairs, gauges and
    root with their rates as the one partial, t with partial 1, the kappas
    and the rhos; a kernel returns R's entries in key order, then K."""
    record = reduction(parts)
    leaf = functools.partial(Traced, {})
    dual = lambda name: Gradient(leaf(name), (leaf("d" + name),))
    pairs = tuple((dual(f"q{i}"), dual(f"p{i}")) for i in range(record.pair_count))
    gauges = {name: dual(f"g[{name!r}]") for name in record.gauge_names}
    kappas = tuple(leaf(f"k{j}") for j in range(record.kappa_count))
    rhos = tuple(leaf(f"r{j}") for j in range(record.rho_count))
    res = _assemble_residual(parts, pairs, Gradient(leaf("t"), (1,)), gauges, kappas, rhos, dual("u"))
    names = "".join(f"(q{i}, p{i}), " for i in range(record.pair_count))
    unpack = [
        f"{names}= pairs",
        names.replace("q", "dq").replace("p", "dp") + "= rates",
        "".join(f"k{j}, " for j in range(record.kappa_count)) + "= k",
        "".join(f"r{j}, " for j in range(record.rho_count)) + "= r",
    ]
    generic, exact = compile_kernel(
        f"zero curvature of {record.label}", "residual(pairs, rates, g, dg, t, u, du, k, r)", unpack,
        "(" + "{}, " * (len(res.entries) + 1) + ")", [*res.entries.values(), res.c_k],
    )
    return tuple(res.entries), generic(), exact


def zero_curvature_residual(
    partition, pairs, t, gauges, kappas, rhos, root=None,
    pair_rates=None, gauge_rates=None,
) -> LoopElement:
    """R = dM/dt - theta(B_t) + [M, B_t]; identically zero on valid data.

    dM/dt is the derivative along d/dt: the pair rates are the
    Hamiltonian vector field, each gauge rate is gauge times its
    multiplier log-derivative, t has rate 1, and the root is
    ``time_root(partition, t)`` unless given as a one-direction Gradient.
    R is computed by code generated once per partition from the generic
    assembly; the value checks run on each call's own data.  When every
    input is an int or a Fraction, t tested first, that code runs over
    integer pairs; so it does when the root and its rate are ``ExtScalar``
    multiples of one square root and every other input is rational.

    pair_rates and gauge_rates override the flow-derived rates, so that
    stored trajectory slopes can stand in for the vector field; R then
    measures how far the stored data is from the flow-coupled identity.
    The parameter map runs only when one of them is missing.
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

    _check_poles(record, t, gauges)
    keys, kernel, exact = _residual_kernel(parts)
    u, du = value_of(root), tangent_of(root)
    odd, roots, ext = (), (u, du), ()
    if type(u) is type(du) is ExtScalar and u.ext == du.ext and not (u.coeffs[0] or du.coeffs[0]):
        odd, roots = ("u", "du"), (u.coeffs[1], du.coeffs[1])  # multiples of one sqrt(b)
    if type(t) in RATIONAL and rational(
        chain(roots, kappas, rhos, gauges.values(), gauge_rates.values(), *pairs, *pair_rates)
    ):
        kernel, ext, (u, du) = exact(*odd), ((u.ext,) if odd else ()), roots
    try:
        *values, c_k = kernel(pairs, pair_rates, gauges, gauge_rates, t, u, du, kappas, rhos, *ext)
    except ZeroDivisionError:
        raise PoleError("division by zero in the zero-curvature residual") from None
    return LoopElement(sum(parts) - 1, dict(zip(keys, values)), c_k)


def _worst_entry(element: LoopElement) -> dict:
    if element.entries:
        (deg, i, j), value = next(iter(element.entries.items()))
        return {"entry": [i, j, deg], "residual": repr(value)}
    return {"entry": ["K"], "residual": repr(element.c_k)}


# ---------------------------------------------------------------------------
# Randomized verification.


def sample_point(partition, rng: random.Random) -> dict:
    """Random admissible rational data for one verification sample: the root
    is drawn and t computed from it, or a constant root adjoined to a drawn t."""
    record = reduction(partition)
    time = record.root.time
    if time is None:
        t = rational_satisfying(rng, lambda x: x not in (0, 1))
        root = time_root(record.parts, t).value
    else:
        root = rational_satisfying(rng, lambda x: x != 0 and time(x) not in (0, 1))
        t = time(root)
    pairs = [(random_rational(rng), nonzero_rational(rng)) for _ in range(record.pair_count)]
    if record.pair_count == 2 and pairs[1][0] == pairs[0][0]:
        pairs[1] = (rational_avoiding(rng, (pairs[0][0],)), pairs[1][1])
    gauges = {name: nonzero_rational(rng) for name in record.gauge_names}
    kappas, rhos = draw_constants(record, rng)
    return dict(pairs=tuple(pairs), t=t, root=root, gauges=gauges, kappas=kappas, rhos=rhos)


def _examine_point(record, point):
    """The failing constraint or zero-curvature entry and its residual; None when clean."""
    for name, residual in constraint_residuals(canonical_to_ds(record.parts, **point)).items():
        if not is_zero_scalar(residual):
            return {"entry": ["constraint", name], "residual": repr(residual)}
    root = record.root.along_t(point["root"], point["t"])
    residual = zero_curvature_residual(record.parts, **{**point, "root": root})
    if not residual.is_zero():
        return _worst_entry(residual)
    return None


ZERO_CURVATURE = {
    parts: ("zero-curvature " + record.label, functools.partial(sample_point, parts),
            functools.partial(_examine_point, record))
    for parts, record in REDUCTIONS.items()
}


def verify_partition(partition, samples: int = 100, seed: int = 0) -> SampleReport:
    """Exact zero-curvature plus constraint check at random rational points:
    every failing sample is listed, and a pole is an error."""
    if samples < 1:
        raise ValueError(f"a suite needs at least one sample, got {samples}")
    label, draw, examine = ZERO_CURVATURE[reduction(partition).parts]
    rng = random.Random(seed)
    report = SampleReport(label, samples)
    for index in range(samples):
        point = draw(rng)
        bad = examine(point)
        if bad is not None:
            report.failures.append({"sample_index": index, **jsonable({"point": point, **bad})})
    return report
