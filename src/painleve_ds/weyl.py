"""Birational symmetries of the coupled sixth-Painleve system.

Six reflections act on the phase space by rational canonical shifts, on
the six affine weights by the degree-six cyclic Cartan action (both
neighbours gain alpha_i, alpha_i itself negates), and on the extra weight
eta by eta -> eta + (-1)^i alpha_i.  The eta shift is not optional: each
reflection is conjugation of the Lax pair by a unipotent gauge factor,
which moves the integration constants by kappa_i -> kappa_i + 3 alpha_i
while fixing the rho constant, and the parameter map of the reduction
carries that move precisely to the stated eta shift.  With eta held fixed
the third reflection is not even an involution; RESOLUTIONS.md works the
algebra out.

The gauge side lives here too: the unipotent factors for the coupled
sixth Lax pair, the induced motion of the gauge variable w3, and the
conjugation residual that ties the two pictures together exactly.
"""

from __future__ import annotations

import random

from .lax import canonical_to_ds, lax_matrices, time_root
from .loop import LoopElement, apply_theta, bracket, chevalley
from .painleve import SystemParameters, reduction_parameters, vector_field
from .reductions import reduction
from .reporting import CheckReport
from .sampling import (
    first_witness,
    nonzero_rational,
    random_rational,
    rational_avoiding,
)
from .scalars import (
    QQ,
    Gradient,
    PoleError,
    is_zero_scalar,
    tangent_of,
    value_of,
)

GENERATORS = (0, 1, 2, 3, 4, 5)

# the reduction whose Lax pair carries the gauge picture of the reflections
CP6 = reduction((3, 3))

# pairs (i, j) with i < j that are not neighbours on the 6-cycle
NON_ADJACENT = tuple(
    (i, j)
    for i in GENERATORS
    for j in GENERATORS
    if i < j and (j - i) not in (1, 5)
)


def _require_nonzero(denominator, description):
    if is_zero_scalar(value_of(denominator)):
        raise PoleError(f"reflection pole: {description} = 0")
    return denominator


def _shifted_weights(alpha, index):
    out = list(alpha)
    gain = alpha[index]
    out[(index - 1) % 6] = out[(index - 1) % 6] + gain
    out[(index + 1) % 6] = out[(index + 1) % 6] + gain
    out[index] = -gain
    return tuple(out)


def apply_generator(index, pairs, params: SystemParameters, t):
    """One reflection on (pairs, params); t never moves.

    Scalars pass through generically, so gradients can ride along for
    Jacobian-vector products.  Vanishing reflection denominators raise
    :class:`PoleError` naming the denominator.
    """
    if index not in GENERATORS:
        raise ValueError(f"generator index out of range: {index}")
    (q1, p1), (q2, p2) = pairs
    alpha = params.alpha
    gain = alpha[index]
    if is_zero_scalar(gain):
        return pairs, params
    eta = params.eta
    sign = 1 if index % 2 == 0 else -1
    out_params = SystemParameters(
        alpha=_shifted_weights(alpha, index), eta=eta + sign * gain
    )
    if index == 0:
        gap = _require_nonzero(q1 - q2, "q1 - q2")
        out = ((q1, p1 - gain / gap), (q2, p2 + gain / gap))
    elif index == 1:
        _require_nonzero(p1, "p1")
        out = ((q1 + gain / p1, p1), (q2, p2))
    elif index == 2:
        gap = _require_nonzero(q1 - t, "q1 - t")
        out = ((q1, p1 - gain / gap), (q2, p2))
    elif index == 3:
        action = q1 * p1 + q2 * p2
        d_p = _require_nonzero(action + eta, "q1*p1 + q2*p2 + eta")
        d_q = _require_nonzero(
            action - gain + eta, "q1*p1 + q2*p2 - alpha3 + eta"
        )
        out = (
            (q1 + gain * q1 / d_q, p1 - gain * p1 / d_p),
            (q2 + gain * q2 / d_q, p2 - gain * p2 / d_p),
        )
    elif index == 4:
        gap = _require_nonzero(q2 - 1, "q2 - 1")
        out = ((q1, p1), (q2, p2 - gain / gap))
    else:
        _require_nonzero(p2, "p2")
        out = ((q1, p1), (q2 + gain / p2, p2))
    return out, out_params


def apply_word(word, pairs, params: SystemParameters, t):
    """Left-to-right composition; a singular step reports its prefix."""
    letters = tuple(word)
    for cut, index in enumerate(letters, start=1):
        try:
            pairs, params = apply_generator(index, pairs, params, t)
        except PoleError as err:
            prefix = ",".join(str(i) for i in letters[:cut])
            raise PoleError(f"word singular after prefix ({prefix}): {err}") from err
    return pairs, params


# -- group relations ---------------------------------------------------


def relation_words():
    """The defining relations, as (name, word) pairs of expected identities."""
    words = [(f"r{i}^2", (i, i)) for i in GENERATORS]
    for i in GENERATORS:
        j = (i + 1) % 6
        words.append((f"braid({i},{j})", (i, j, i, j, i, j)))
    for i, j in NON_ADJACENT:
        words.append((f"commute({i},{j})", (i, j, i, j)))
    return tuple(words)


def sample_weyl_point(rng: random.Random):
    """Random rational point with unit-sum weights, clear of every pole.

    The reflections are symmetries of the coupled system only on the
    locus where the six weights sum to one (both reduction parameter
    maps land there identically); off that locus the group relations
    still hold but equivariance with the flow does not.  The draw also
    avoids each generator's pole denominator so that any single
    reflection is defined at the returned point.
    """
    q1 = random_rational(rng)
    q2 = rational_avoiding(rng, (q1, QQ(1)))
    p1 = nonzero_rational(rng)
    p2 = nonzero_rational(rng)
    t = rational_avoiding(rng, (QQ(0), QQ(1), q1))
    tail = tuple(random_rational(rng) for _ in range(5))
    alpha = (QQ(1) - sum(tail),) + tail
    action = q1 * p1 + q2 * p2
    eta = rational_avoiding(rng, (-action, alpha[3] - action))
    return ((q1, p1), (q2, p2)), SystemParameters(alpha=alpha, eta=eta), t


def _witness(point, **failed):
    """A failing Weyl point as a report witness: where, at which weights, and what failed."""
    pairs, params, t = point
    return {"point": {"pairs": pairs, "t": t}, "alpha": params.alpha, "eta": params.eta, **failed}


def check_relations(samples: int = 100, seed: int = 0) -> CheckReport:
    """Exact identity checks for every defining relation at random points."""
    rng = random.Random(seed)
    report = CheckReport("weyl-relations")
    for name, word in relation_words():

        def examine(point):
            img_pairs, img_params = apply_word(word, *point)
            if img_pairs == point[0] and img_params == point[1]:
                return None
            return _witness(point, image_pairs=img_pairs)

        witness = first_witness(rng, samples, sample_weyl_point, examine, f"word {word}")
        report.add(name, witness is None, witness)
    return report


# -- equivariance ------------------------------------------------------


def equivariance_residual(index, pairs, params: SystemParameters, t):
    """Jacobian-vector product of a reflection against the flow, minus the
    flow at the image: identically zero exactly when the reflection maps
    solutions to solutions.

    One forward pass along d/dt: phase coordinates are seeded with the
    Hamiltonian vector field and the time coordinate with 1, so
    reflections whose formulas mention t explicitly contribute their time
    derivative.
    """
    flows = vector_field("cp6", pairs, t, params)
    lifted = tuple(
        (Gradient(q, (fq,)), Gradient(p, (fp,))) for (q, p), (fq, fp) in zip(pairs, flows)
    )
    out_pairs, out_params = apply_generator(index, lifted, params, Gradient(t, (QQ(1),)))
    # the weights never carry a partial, so out_params is already plain
    image = tuple((value_of(q), value_of(p)) for q, p in out_pairs)
    target = vector_field("cp6", image, t, out_params)
    residual = []
    for (q, p), (fq, fp) in zip(out_pairs, target):
        residual.append(tangent_of(q) - fq)
        residual.append(tangent_of(p) - fp)
    return tuple(residual)


def check_equivariance(samples: int = 100, seed: int = 0) -> CheckReport:
    """Exact vector-field equivariance for every reflection.

    Dr_i applied to the flow, compared with the flow at the image point
    and parameters: both sides must agree coefficient by coefficient."""
    rng = random.Random(seed)
    report = CheckReport("weyl-equivariance")
    for index in GENERATORS:

        def examine(point):
            residual = equivariance_residual(index, *point)
            if all(is_zero_scalar(r) for r in residual):
                return None
            return _witness(point, residual=residual)

        witness = first_witness(rng, samples, sample_weyl_point, examine, f"reflection r{index}")
        report.add(f"flow equivariance of r{index}", witness is None, witness)
    return report


# -- gauge picture for the coupled sixth Lax pair ----------------------


def gauge_function(index, pairs, t, w3, params: SystemParameters, u):
    """Denominator of the unipotent gauge coefficient for one reflection.

    u is the coupled sixth reduction's cube root, u**3 = 1/t: the returned
    scalar is an element of u's ring, and a plain rational for r2 and r3,
    whose formulas need no root.
    """
    if index not in GENERATORS:
        raise ValueError(f"generator index out of range: {index}")
    third = u * u * t  # t^(1/3)
    two_thirds = u * t  # t^(2/3)
    (q1, p1), (q2, p2) = pairs
    if index == 0:
        return w3 * (q2 - q1) / (3 * two_thirds)
    if index == 1:
        return -two_thirds * p1 / w3
    if index == 2:
        return w3 * (q1 - t) / (3 * t)
    if index == 3:
        return (q1 * p1 + q2 * p2 + params.eta) / w3
    if index == 4:
        return w3 * (1 - q2) / (3 * third)
    return -third * p2 / w3


def reflected_gauge(index, pairs, params: SystemParameters, w3):
    """Image of the gauge variable w3 under one reflection.

    Solved from the conjugation identity: only the third reflection moves
    it, by the same ratio that rescales q1 inversely (w3*q1 is invariant).
    """
    if index != 3:
        return w3
    (q1, p1), (q2, p2) = pairs
    action = q1 * p1 + q2 * p2
    d_p = _require_nonzero(action + params.eta, "q1*p1 + q2*p2 + eta")
    return w3 * (d_p - params.alpha[3]) / d_p


def conjugation_residual(index, pairs, t, w3, kappas, rhos) -> LoopElement:
    """Gauge-conjugated M minus M at the reflected point; exactly zero.

    The conjugation is by exp(x) with x = (alpha_i/phi_i) f_i; x squares
    to zero in the evaluation representation, so the adjoint series stops
    at second order, and the grade-operator inhomogeneity is theta(x).
    The central coefficient moves through the bracket cocycle, matching
    the kappa_i -> kappa_i + 3 alpha_i shift of the constants.
    """
    u = time_root(CP6.parts, t).value
    params = reduction_parameters(CP6.parts, kappas, rhos)
    state = canonical_to_ds(CP6.parts, pairs, t, {"w3": w3}, kappas, rhos, root=u)
    m, _ = lax_matrices(state)
    phi = gauge_function(index, pairs, t, w3, params, u)
    if is_zero_scalar(value_of(phi)):
        raise PoleError(f"gauge function phi_{index} = 0")
    x = chevalley(5, index, "f").scale(params.alpha[index] / phi)
    bridge = (
        m
        + bracket(x, m)
        + bracket(x, bracket(x, m)).scale(QQ(1, 2))
        + apply_theta(CP6.gradation, x)
    )
    new_pairs, _ = apply_generator(index, pairs, params, t)
    new_kappas = tuple(
        k + 3 * params.alpha[index] if j == index else k
        for j, k in enumerate(kappas)
    )
    new_w3 = reflected_gauge(index, pairs, params, w3)
    new_state = canonical_to_ds(
        CP6.parts, new_pairs, t, {"w3": new_w3}, new_kappas, rhos, root=u
    )
    return lax_matrices(new_state)[0] - bridge


def check_conjugation(samples: int = 25, seed: int = 0) -> CheckReport:
    """Exact gauge-conjugation bridge for every reflection.

    The unipotent conjugate of M, with the grade-operator inhomogeneity,
    must equal M rebuilt at the reflected point and shifted constants;
    the comparison includes the central coefficients."""
    rng = random.Random(seed)
    report = CheckReport("gauge-conjugation")

    def draw(rng):
        pairs, _, t = sample_weyl_point(rng)
        w3 = nonzero_rational(rng)
        kappas = tuple(random_rational(rng) for _ in range(CP6.kappa_count))
        rhos = tuple(random_rational(rng) for _ in range(CP6.rho_count))
        return pairs, t, w3, kappas, rhos

    for index in GENERATORS:

        def examine(point):
            pairs, t, w3, kappas, rhos = point
            if conjugation_residual(index, pairs, t, w3, kappas, rhos).is_zero():
                return None
            return {"point": {"pairs": pairs, "t": t, "w3": w3}, "kappas": kappas, "rhos": rhos}

        witness = first_witness(rng, samples, draw, examine, f"the r{index} bridge")
        report.add(f"conjugation bridge of r{index}", witness is None, witness)
    return report
