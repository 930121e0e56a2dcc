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
``reductions``; the functions here dispatch through it once.  The exact
claim runs them only to be traced: one kernel per partition gives a
sample its constraints, R's entries and K.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .loop import LoopElement, apply_theta, bracket
from .painleve import flow_slope, reduction_parameters
from .reductions import REDUCTIONS, reduction
from .reporting import SampleReport, jsonable
from .sampling import SCALE, draw_constants, random_rational, rational_satisfying, scaled_rational
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
from .tracing import RATIONAL, rational, trace


# ---------------------------------------------------------------------------
# Hierarchy time: tau is an algebraic function of t, realised through one
# root symbol per partition.


def time_root(parts, t) -> Gradient:
    """The partition's root symbol at time t, with d(root)/dt as its tangent.

    root**power = base(t).  At rational t a square root is adjoined over QQ
    and a cube root refused: exact samples draw it and pass ``root=``.  At
    float t it is the real root, or the principal root of a negative base.
    Both come from one call of the relation's traced (base, base') kernel.
    """
    root, rate = _root_and_rate(reduction(parts), QQ(t) if is_rational(t) else t)
    return Gradient(root, rate)


def _root_and_rate(record, t, root=None) -> tuple:
    """(root, d(root)/dt) at a float or rational t, an int t taken as a
    Fraction: the rate is root * base'(t) / (power * base(t)), from one
    call of the relation's (base, base') kernel, so a constant base has
    rate 0.  A drawn root is taken as given, else adjoined at rational t."""
    relation = record.root
    power = relation.power
    if type(t) is int:
        t = QQ(t)
    try:
        base, slope = relation.kernel(t)
    except PoleError:
        base = 0
    if not 0 < abs(base) < math.inf:
        raise PoleError(f"{record.parts} root needs a finite nonzero base at t = {t}")
    if root is None:
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
    """Refuse a zero gauge, given in record order, and a time the record's map excludes."""
    for name, gauge in zip(record.gauge_names, gauges):
        if is_zero_scalar(value_of(gauge)):
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
    _check_poles(record, t, [gauges[name] for name in record.gauge_names])
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


def _assemble_residual(parts, pairs, t, gauges, kappas, rhos, root) -> tuple:
    """(constraints, R) from Gradient inputs: the code the kernel is traced from."""
    state = canonical_to_ds(parts, pairs, t, gauges, kappas, rhos, root=root)
    m, b = lax_matrices(state)
    b_t = b.map_scalars(value_of).scale(tangent_of(state.tau))
    theta = apply_theta(reduction(parts).gradation, b_t)
    return constraint_residuals(state), m.map_scalars(tangent_of) - theta + bracket(m.map_scalars(value_of), b_t)


@functools.cache
def _residual_kernel(parts):
    """(constraint names, entry keys, kernel, exact) from one trace of the
    generic assembly, ``residual``: each constraint's left minus right,
    R's entries, then K.  exact() and exact("u", "du") are its texts over
    integer pairs, plain and graded by a square root's parity."""
    record = reduction(parts)
    n, found = 2 * record.pair_count, []

    def residual(y, dy, t, u, du, k, r):
        y = [Gradient(x, dx) for x, dx in zip(y, dy)]
        gauges = dict(zip(record.gauge_names, y[n:]))
        constraints, res = _assemble_residual(parts, tuple(zip(y[:n:2], y[1:n:2])), Gradient(t, 1), gauges, k, r,
                                              Gradient(u, du))
        found.extend((tuple(constraints), tuple(res.entries)))
        return [*map(value_of, constraints.values()), *res.entries.values(), res.c_k]

    y = (*(f"{c}{i}" for i in range(n // 2) for c in "qp"), *(f"g{j}" for j, _ in enumerate(record.gauge_names)))
    shape = (y, tuple("d" + name for name in y), "t", "u", "du", tuple(f"k{j}" for j in range(record.kappa_count)),
             tuple(f"r{j}" for j in range(record.rho_count)))
    generic, exact = trace(f"zero curvature of {record.label}", residual, shape,
                           pole="division by zero in the zero-curvature residual")
    return (*found, generic(), exact)


def _residual_values(record, y, slope, t, u, du, kappas, rhos) -> tuple:
    """``_residual_kernel``'s outputs, the constraints, R's entries, then K,
    after the pole checks, from y and the flow's slope there: each pair
    rate as it is and each gauge's rate its log-rate times the gauge.  The
    kernel runs over integer pairs when t, tested first, and every input is
    an int or a Fraction, graded when u and du are odd ``ExtScalar``s, or
    zero, of one extension.  A zero divisor is a PoleError."""
    n = 2 * record.pair_count
    _check_poles(record, t, y[n:])
    dy = [*slope[:n], *map(operator.mul, y[n:], slope[n:])]
    _, _, kernel, exact = _residual_kernel(record.parts)
    ext = ()
    if type(t) in RATIONAL:
        odd, roots = (), (u, du)
        if type(u) is type(du) is ExtScalar and u.ext == du.ext and (u.odd or not u.c) and (du.odd or not du.c):
            odd, roots = ("u", "du"), (u.c, du.c)  # multiples of one sqrt(b)
        if rational(chain(roots, kappas, rhos, y, dy)):
            kernel, ext, (u, du) = exact(*odd), ((u.ext,) if odd else ()), roots
    return kernel(y, dy, t, u, du, kappas, rhos, *ext)


def _on_flow(record, pairs, t, gauges, kappas, rhos, root) -> tuple:
    """``_residual_values`` at the root and its rate, root = (u, du), with
    the rates of the partition's flow, read through ``painleve.flow_slope``."""
    y = [*chain(*pairs), *(gauges[name] for name in record.gauge_names)]
    slope = flow_slope(record.parts, t, y, reduction_parameters(record.parts, kappas, rhos))
    return _residual_values(record, y, slope, t, *root, kappas, rhos)


def zero_curvature_residual(partition, pairs, t, gauges, kappas, rhos, root=None) -> LoopElement:
    """R = dM/dt - theta(B_t) + [M, B_t]; identically zero on valid data.

    dM/dt is the derivative along d/dt: the pair rates are the
    Hamiltonian vector field, each gauge rate is gauge times its
    multiplier log-derivative, t has rate 1, and the root is
    ``time_root(partition, t)`` unless given as a Gradient.
    The rates come from the partition's flow through
    ``painleve.flow_slope``, and R from code generated once per partition
    from the generic assembly, through ``_residual_values``, the call the
    trajectory monitor makes too on its stored slopes; the value
    checks run on each call's own data.  The constraint outputs are left out.
    """
    record = reduction(partition)
    if root is None:
        root = time_root(record.parts, t)
    names, keys, _, _ = _residual_kernel(record.parts)
    values = _on_flow(record, pairs, t, gauges, kappas, rhos, (value_of(root), tangent_of(root)))
    return LoopElement(sum(record.parts) - 1, dict(zip(keys, values[len(names):])), values[-1])


# ---------------------------------------------------------------------------
# Randomized verification.


def sample_point(partition, rng: random.Random) -> dict:
    """Random admissible rational data for one verification sample: the root
    is drawn and t computed from it, or a constant root adjoined to a drawn t."""
    record = reduction(partition)
    time = record.root.time
    if time is None:
        t, _ = scaled_rational(rng, (0, SCALE))
        root = time_root(record.parts, t).value
    else:
        root = rational_satisfying(rng, lambda x: x != 0 and time(x) not in (0, 1))
        t = time(root)
    pairs = [(random_rational(rng), scaled_rational(rng, (0,))[0]) for _ in range(record.pair_count)]
    if record.pair_count == 2 and pairs[1][0] == pairs[0][0]:
        pairs[1] = (scaled_rational(rng, (pairs[0][0] * SCALE,))[0], pairs[1][1])
    gauges = {name: scaled_rational(rng, (0,))[0] for name in record.gauge_names}
    kappas, rhos = draw_constants(record, rng)
    return dict(pairs=tuple(pairs), t=t, root=root, gauges=gauges, kappas=kappas, rhos=rhos)


def _examine_point(record, point):
    """The first failing constraint or zero-curvature entry, (row, col,
    degree) or K, and its residual, from one kernel call; None when clean."""
    values = _on_flow(record, **{**point, "root": _root_and_rate(record, point["t"], point["root"])})
    bad = next((k for k, value in enumerate(values) if not is_zero_scalar(value)), None)
    if bad is None:
        return None
    names, keys, _, _ = _residual_kernel(record.parts)
    entries = [*(["constraint", name] for name in names), *([i, j, deg] for deg, i, j in keys), ["K"]]
    return {"entry": entries[bad], "residual": repr(values[bad])}


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
