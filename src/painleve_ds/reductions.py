"""One record per partition: every fact about one similarity reduction.

Each partition of the matrix size is one regular conjugacy class of the
Weyl group and one similarity reduction of its Drinfeld-Sokolov
hierarchy, and yields one Painleve system.  Its :class:`Reduction` holds
the target system, the gauge variables, the pair count and the fixed
singular times; the root relation that links the Painleve time t to the
hierarchy time tau; the parameter map from integration constants to
affine weights and the marks of their sum; and the four formula blocks
the generic entry points in ``lax`` and ``painleve`` dispatch through:
the map to reduced coordinates, the constraint identities, the entries of
the Lax matrices (M, B) and the gauge log-derivatives, which ``painleve``
traces into the partition's flow.

Formula blocks run over any scalar type: rationals, root extensions,
gradients and floats.  The registry lists the records in ``report`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, ClassVar

from .heisenberg import Partition, build_heisenberg
from .loop import GradationSpec
from .scalars import QQ, Gradient, tangent_of, value_of
from .tracing import trace


@dataclass(frozen=True)
class LinearForm:
    """Exact affine-linear expression in the integration constants."""

    const: Fraction
    kappa: tuple[Fraction, ...]
    rho: tuple[Fraction, ...]

    def __call__(self, kappas, rhos):
        """The form at any scalars, zero coefficients skipped; rational
        constants take ``painleve``'s integer rows instead."""
        acc = self.const
        for c, x in chain(zip(self.kappa, kappas), zip(self.rho, rhos)):
            if c:
                acc = acc + c * x
        return acc


def _form(const, kappa, rho):
    return LinearForm(QQ(const), tuple(QQ(c) for c in kappa), tuple(QQ(c) for c in rho))


@dataclass(frozen=True)
class RootRelation:
    """root**power = base(t): the symbol carrying hierarchy time."""

    symbol: str
    power: int
    base: Callable
    time: Callable | None = None  # t from the root; None for a constant root

    @cached_property
    def kernel(self) -> Callable:
        """``kernel(t)``: (base(t), base'(t)) as straight-line code, traced
        from one pass of ``base`` along d/dt on this relation's first use;
        it runs on any scalar t, and a zero divisor raises PoleError."""
        def base(t):
            dual = self.base(Gradient(t, 1))
            return value_of(dual), tangent_of(dual)

        return trace(f"base of {self.symbol}**{self.power}", base, ("t",))[0]()


@dataclass(frozen=True)
class Reduction:
    """The record of one partition's reduction.

    Each partition below is one subclass: it sets the facts as class
    attributes and overrides the formula blocks, so everything about a
    partition sits in one class body.  Counts that follow from the
    partition are derived, not stored.  Every record defines four formula
    blocks: ``to_ds(pairs, gauges, t, tau, root, kappas, rhos)``, the
    reduced variables by name; ``constraints(state)``, each identity's
    left minus right by name; ``matrices(state)``, the M and B entries
    keyed (degree, row, col) and the B diagonal; and
    ``gauge_log_derivatives(pairs, t, params)``, d log(gauge)/dt by name.
    A state is a ``lax.DSState``.
    """

    parts: ClassVar[tuple]
    system: ClassVar[str]  # the target Hamiltonian system
    gauge_names: ClassVar[tuple]  # supplied, nonzero; only d log/dt is fixed
    pair_count: ClassVar[int]
    singular_times: ClassVar[tuple]
    root: ClassVar[RootRelation]
    alpha: ClassVar[tuple]  # one LinearForm per affine weight
    eta: ClassVar[LinearForm | None] = None
    excluded_times: ClassVar[tuple] = ()  # refused by the coordinate map

    @property
    def kappa_count(self) -> int:
        return sum(self.parts)

    @property
    def rho_count(self) -> int:
        return len(self.parts) - 1

    @property
    def weight_count(self) -> int:
        return len(self.alpha)

    @property
    def marks(self) -> tuple:
        """Each weight's coefficient in the weight sum, which is one."""
        return (1,) * self.weight_count

    @property
    def label(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @cached_property
    def gradation(self) -> GradationSpec:
        """The partition's gradation, built on first use."""
        return build_heisenberg(Partition(self.parts)).gradation

    def tau(self, t, root):
        """Hierarchy time in terms of the Painleve time and the root symbol."""
        return root


def _coroot_diagonal(coeffs) -> list:
    # Diagonal of sum c_i alpha_i^vee over the non-affine simple coroots.
    diag = [coeffs[0]]
    for left, right in zip(coeffs, coeffs[1:]):
        diag.append(right - left)
    diag.append(-coeffs[-1])
    return diag


# Coefficients of the parameter forms.  The alpha0 rows of the coupled
# fourth and fifth systems complete the leftover weight, so that the
# weight sum is identically one.
_th = QQ(1, 3)
_qu = QQ(1, 4)
_ha = QQ(1, 2)
_ei = QQ(1, 8)


class _CoupledSixth33(Reduction):
    """(3,3): coupled sixth Painleve; u = t^(-1/3) is the hierarchy time."""

    parts = (3, 3)
    system = "cp6"
    gauge_names = ("w3",)
    pair_count = 2
    singular_times = (0.0, 1.0)
    excluded_times = (1,)  # u**3 = 1/t would make tau**3 - 1 vanish
    root = RootRelation("u", 3, lambda t: 1 / t, lambda u: 1 / (u * u * u))
    alpha = (
        _form(_th, (-2 * _th, _th, 0, 0, 0, _th), (0,)),
        _form(0, (_th, -2 * _th, _th, 0, 0, 0), (0,)),
        _form(_th, (0, _th, -2 * _th, _th, 0, 0), (0,)),
        _form(0, (0, 0, _th, -2 * _th, _th, 0), (0,)),
        _form(_th, (0, 0, 0, _th, -2 * _th, _th), (0,)),
        _form(0, (_th, 0, 0, 0, _th, -2 * _th), (0,)),
    )
    # eta = rho + half the sum of the odd weights
    eta = _form(0, (_th, -_th, _th, -_th, _th, -_th), (QQ(1),))

    def to_ds(self, pairs, gauges, t, tau, root, kappas, rhos):
        (q1, p1), (q2, p2) = pairs
        w3 = gauges["w3"]
        k0, k1, k2, k3, k4, k5 = kappas
        (rho1,) = rhos
        v = {}
        v["w3"] = w3
        v["w1"] = q1 * tau * tau * w3
        v["w5"] = q2 * tau * w3
        v["phi1"] = 3 * p1 / (tau * tau * w3)
        v["phi5"] = 3 * p2 / (tau * w3)
        ksum = k0 - k1 + k2 - k3 + k4 - k5
        v["phi3"] = -(v["w1"] * v["phi1"] + v["w5"] * v["phi5"] + ksum + 3 * rho1) / w3
        return v

    def constraints(self, state):
        v, k = state.variables, state.kappas
        ksum = k[0] - k[1] + k[2] - k[3] + k[4] - k[5]
        return {
            "ladder": (
                v["w1"] * v["phi1"] + v["w3"] * v["phi3"] + v["w5"] * v["phi5"] + ksum + 3 * state.rhos[0]
            ),
        }

    def matrices(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        w1, w3, w5 = v["w1"], v["w3"], v["w5"]
        f1, f3, f5 = v["phi1"], v["phi3"], v["phi5"]
        (rho1,) = state.rhos
        m = {
            (0, 0, 1): f1, (0, 1, 2): w3 - tau * w1, (0, 2, 3): f3,
            (0, 3, 4): w5 - tau * w3, (0, 4, 5): f5, (1, 5, 0): w1 - tau * w5,
            (0, 0, 2): tau, (0, 2, 4): tau, (1, 4, 0): tau,
            (0, 1, 3): 1, (0, 3, 5): 1, (1, 5, 1): 1,
        }
        u1 = (w3 * f3 + w5 * f5 - 2 * w1 * f1 - 2 * k[0] + 2 * k[1] + k[2] - k[3] + k[4] - k[5]) / (3 * tau)
        u2 = -(w1 * f1 + k[0] - k[1] + rho1) / tau
        u3 = (2 * w5 * f5 - w1 * f1 - w3 * f3 - k[0] + k[1] - k[2] + k[3] + 2 * k[4] - 2 * k[5]) / (3 * tau)
        u4 = (w5 * f5 + k[4] - k[5] + rho1) / tau
        denom = tau * tau * tau - 1
        x1 = (tau * tau * f1 + tau * f5 + f3) / denom
        x3 = (tau * tau * f3 + tau * f1 + f5) / denom
        x5 = (tau * tau * f5 + tau * f3 + f1) / denom
        b = {
            (0, 0, 1): x1, (0, 1, 2): -w1, (0, 2, 3): x3, (0, 3, 4): -w3,
            (0, 4, 5): x5, (1, 5, 0): -w5,
            (0, 0, 2): 1, (0, 2, 4): 1, (1, 4, 0): 1,
        }
        return m, b, _coroot_diagonal([u1 + w1 * x1, u2, u3 + w3 * x3, u4, w5 * x5])

    def gauge_log_derivatives(self, pairs, t, params):
        (q1, p1), (q2, p2) = pairs
        a, eta = params.alpha, params.eta
        value = (
            -(q1 - 1) * (q1 - t) * p1
            - (q2 - 1) * (q2 - t) * p2
            - a[1] * q1
            - a[5] * q2
            + (a[1] + a[2] - a[3] - a[4] + 2 * eta) * t / 3
            - (a[1] + a[2] + 2 * a[3] - a[4] - 4 * eta) / 3
        )
        return {"w3": value / (t * (t - 1))}


class _CoupledSixth221(Reduction):
    """(2,2,1): coupled sixth Painleve; s = sqrt(t) is the hierarchy time."""

    parts = (2, 2, 1)
    system = "cp6"
    gauge_names = ("phi3", "phi34")
    pair_count = 2
    singular_times = (0.0, 1.0)
    root = RootRelation("s", 2, lambda t: t, lambda s: s * s)
    alpha = (
        _form(_ha, (-2 * _qu, _qu, 0, 0, _qu), (0, 0)),
        _form(0, (_qu, 0, 0, _qu, -2 * _qu), (0, 0)),
        _form(_qu, (0, 0, _qu, -2 * _qu, _qu), (0, 0)),
        _form(0, (0, 0, -_qu, _qu, 0), (_ha, -_ha)),
        _form(_qu, (0, _qu, -_qu, 0, 0), (-_ha, _ha)),
        _form(0, (_qu, -2 * _qu, _qu, 0, 0), (0, 0)),
    )
    eta = _form(0, (_qu, -_qu, 0, _qu, -_qu), (_ha, 0))

    def to_ds(self, pairs, gauges, t, tau, root, kappas, rhos):
        (q1, p1), (q2, p2) = pairs
        phi3 = gauges["phi3"]
        phi34 = gauges["phi34"]
        k0, k1, k2, k3, k4 = kappas
        rho1, rho2 = rhos
        v = {}
        v["phi3"] = phi3
        v["phi34"] = phi34
        v["w4"] = -q1 * phi3 / (t * phi34)
        v["phi4"] = -4 * t * phi34 * p1 / phi3
        v["w1"] = -q2 * phi3 / (tau * phi34)
        v["phi1"] = -4 * tau * phi34 * p2 / phi3
        ladder = v["w1"] * v["phi1"] + v["w4"] * v["phi4"]
        v["phi12"] = 2 * tau * (ladder + k0 - k1 + k3 - k4 + 2 * rho1) / phi3
        v["phi2"] = -2 * (ladder + k0 - k1 + k2 - k4 + 2 * rho2) / phi34
        return v

    def constraints(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        rho1, rho2 = state.rhos
        ladder = v["w1"] * v["phi1"] + v["w4"] * v["phi4"]
        return {
            "short_ladder": v["phi2"] * v["phi34"] + 2 * (ladder + k[0] - k[1] + k[2] - k[4] + 2 * rho2),
            "long_ladder": v["phi3"] * v["phi12"] - 2 * tau * (ladder + k[0] - k[1] + k[3] - k[4] + 2 * rho1),
        }

    def matrices(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        w1, w4 = v["w1"], v["w4"]
        f1, f2, f3, f4 = v["phi1"], v["phi2"], v["phi3"], v["phi4"]
        f12, f34 = v["phi12"], v["phi34"]
        rho1, rho2 = state.rhos
        m = {
            (0, 0, 1): f1, (0, 1, 2): f2 - w1 * f12, (0, 2, 3): f3 + w4 * f34,
            (0, 3, 4): f4, (1, 4, 0): 2 * (w1 - tau * w4),
            (0, 0, 2): f12, (0, 1, 3): 2 * (w4 - tau * w1), (0, 2, 4): f34,
            (0, 0, 3): 2 * tau, (1, 3, 0): 2 * tau,
            (0, 1, 4): 2, (1, 4, 1): 2,
        }
        ladder = w1 * f1 + w4 * f4 + k[0] - k[1] + k[3] - k[4] + 2 * rho1
        u2 = -(w1 * f1 + k[0] - k[1] + rho1) / (2 * tau)
        u3 = (w4 * f4 + k[3] - k[4] + rho1) / (2 * tau)
        denom = 2 * (tau * tau - 1) * f3
        x1 = ((tau * f1 + f4) * f3 + ladder * f34) / denom
        x4 = ((f1 + tau * f4) * f3 + tau * ladder * f34) / denom
        x12 = ladder / f3
        b = {
            (0, 0, 1): x1, (0, 1, 2): -w1 * x12, (0, 2, 3): f3 / (2 * tau),
            (0, 3, 4): x4, (1, 4, 0): -w4,
            (0, 0, 2): x12, (0, 1, 3): -w1,
            (0, 0, 3): 1, (1, 3, 0): 1,
        }
        return m, b, _coroot_diagonal([u2 + w1 * x1, u2, u3, w4 * x4])

    def gauge_log_derivatives(self, pairs, t, params):
        (q1, p1), (q2, p2) = pairs
        a, eta = params.alpha, params.eta
        first = (
            -q1 * (q1 - t) * p1
            - q2 * (q2 - t) * p2
            - a[1] * q1
            - a[5] * q2
            + (1 + 2 * a[2] - 2 * a[3] - 2 * a[4] - 2 * a[5] + 6 * eta) * t / 4
            - (1 + 2 * a[2] + 2 * a[3] - 2 * a[4] - 2 * a[5] + 2 * eta) / 4
        )
        second = -(q1 - t) * p1 - (q2 - t) * p2 - eta
        return {
            "phi3": first / (t * (t - 1)),
            "phi34": second / (t * (t - 1)),
        }


class _Sixth22(Reduction):
    """(2,2): sixth Painleve; s = sqrt(t) is the hierarchy time."""

    parts = (2, 2)
    system = "p6"
    gauge_names = ("w1",)
    pair_count = 1
    singular_times = (0.0, 1.0)
    root = RootRelation("s", 2, lambda t: t, lambda s: s * s)
    alpha = (
        _form(_ha, (0, _ha, -2 * _ha, _ha), (0,)),
        _form(0, (0, -_ha, 0, _ha), (QQ(1),)),
        _form(0, (_ha, 0, _ha, -2 * _ha), (0,)),
        _form(_ha, (-2 * _ha, _ha, 0, _ha), (0,)),
        _form(0, (0, -_ha, 0, _ha), (QQ(-1),)),
    )
    marks = (1, 1, 2, 1, 1)  # the middle weight is written once and counts twice

    def to_ds(self, pairs, gauges, t, tau, root, kappas, rhos):
        ((q, p),) = pairs
        w1 = gauges["w1"]
        k0, k1, k2, k3 = kappas
        (rho1,) = rhos
        v = {}
        v["w1"] = w1
        v["w3"] = q * w1 / tau
        v["phi3"] = 2 * tau * p / w1
        ksum = k0 - k1 + k2 - k3 + 2 * rho1
        v["phi1"] = -(v["w3"] * v["phi3"] + ksum) / w1
        return v

    def constraints(self, state):
        v, k = state.variables, state.kappas
        ksum = k[0] - k[1] + k[2] - k[3] + 2 * state.rhos[0]
        return {"ladder": v["w1"] * v["phi1"] + v["w3"] * v["phi3"] + ksum}

    def matrices(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        w1, w3 = v["w1"], v["w3"]
        f1, f3 = v["phi1"], v["phi3"]
        (rho1,) = state.rhos
        m = {
            (0, 0, 1): f1, (0, 1, 2): w3 - tau * w1, (0, 2, 3): f3,
            (1, 3, 0): w1 - tau * w3,
            (0, 0, 2): tau, (1, 2, 0): tau, (0, 1, 3): 1, (1, 3, 1): 1,
        }
        ksum = k[0] - k[1] + k[2] - k[3] + 2 * rho1
        denom = (tau * tau - 1) * w1
        x1 = ((w1 - tau * w3) * f3 - ksum * tau) / denom
        x3 = ((tau * w1 - w3) * f3 - ksum) / denom
        u1 = (w1 * x3 - (k[0] - k[1] + rho1)) / tau
        u2 = (w3 * f3 + k[2] - k[3] + rho1) / tau
        b = {
            (0, 0, 1): x1, (0, 1, 2): -w1, (0, 2, 3): x3, (1, 3, 0): -w3,
            (0, 0, 2): 1, (1, 2, 0): 1,
        }
        return m, b, _coroot_diagonal([u1, u2, w3 * x3])

    def gauge_log_derivatives(self, pairs, t, params):
        ((q, p),) = pairs
        a = params.alpha
        value = (
            -(q - 1) * (q - t) * p
            - a[2] * q
            + (1 + 2 * a[1] - 2 * a[3] - 4 * a[4]) * t / 4
            - (1 - 2 * a[1] - 4 * a[2] - 2 * a[3]) / 4
        )
        return {"w1": value / (t * (t - 1))}


class _CoupledFourth31(Reduction):
    """(3,1): coupled fourth Painleve; r = sqrt(6) and tau = -t r / 3."""

    parts = (3, 1)
    system = "a4"
    gauge_names = ("phi12",)
    pair_count = 2
    singular_times = ()
    root = RootRelation("r", 2, lambda t: 6)
    alpha = (
        _form(_th, (_th, 0, 0, -_th), (QQ(1),)),
        _form(0, (0, 0, _th, -_th), (QQ(-1),)),
        _form(0, (0, _th, -2 * _th, _th), (0,)),
        _form(_th, (_th, -2 * _th, _th, 0), (0,)),
        _form(_th, (-2 * _th, _th, 0, _th), (0,)),
    )

    def tau(self, t, root):
        return -t * root / 3

    def to_ds(self, pairs, gauges, t, tau, root, kappas, rhos):
        (q1, p1), (q2, p2) = pairs
        phi12 = gauges["phi12"]
        k0, k1, k2, k3 = kappas
        (rho1,) = rhos
        v = {}
        v["phi12"] = phi12
        v["w2"] = -root * q1 / phi12
        v["phi2"] = -root * phi12 * p1 / 2
        v["phi1"] = root * q2
        v["phi0"] = -root * p2
        v["phi23"] = 3 * tau - v["phi0"] - v["phi1"]
        v["phi3"] = (2 * v["w2"] * v["phi2"] - 2 * (k2 - k3 - 3 * rho1)) / phi12
        return v

    def constraints(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        return {
            "ladder": 2 * v["w2"] * v["phi2"] - v["phi3"] * v["phi12"] - 2 * (k[2] - k[3] - 3 * state.rhos[0]),
            "trace": v["phi0"] + v["phi1"] + v["phi23"] - 3 * tau,
        }

    def matrices(self, state):
        v, tau = state.variables, state.tau
        w2 = v["w2"]
        f0, f1, f2, f3 = v["phi0"], v["phi1"], v["phi2"], v["phi3"]
        f12, f23 = v["phi12"], v["phi23"]
        m = {
            (0, 0, 1): f1 + w2 * f12, (0, 1, 2): f2, (0, 2, 3): f3 - w2 * f23,
            (1, 3, 0): f0,
            (0, 0, 2): f12, (0, 1, 3): f23, (1, 2, 0): -2 * w2,
            (0, 0, 3): 2, (1, 1, 0): 2, (1, 3, 1): 2,
        }
        a0 = -(f1 - tau) / 2
        a1 = (f0 - tau) / 2
        a2 = w2 * f12 / 2
        b = {
            (0, 1, 2): f12 / 2, (0, 2, 3): -w2,
            (0, 0, 1): 1, (0, 1, 3): 1, (1, 3, 0): 1,
        }
        return m, b, [a1 - a0, a2 - a1, -a2, a0]

    def gauge_log_derivatives(self, pairs, t, params):
        (q1, p1), (q2, p2) = pairs
        # one division, last, so an integer t beside rational pairs stays exact
        return {"phi12": (3 * (p1 + p2) - 2 * t) / 3}


class _CoupledFifth41(Reduction):
    """(4,1): coupled fifth Painleve; v = sqrt(-2t) is the hierarchy time."""

    parts = (4, 1)
    system = "a5"
    gauge_names = ("phi12",)
    pair_count = 2
    singular_times = (0.0,)
    root = RootRelation("v", 2, lambda t: -2 * t, lambda v: -v * v / 2)
    alpha = (
        _form(2 * _ei, (_ei, 0, 0, _ei, -2 * _ei), (0,)),
        _form(2 * _ei, (-2 * _ei, _ei, 0, 0, _ei), (0,)),
        _form(2 * _ei, (_ei, -2 * _ei, _ei, 0, 0), (0,)),
        _form(_ei, (0, _ei, -2 * _ei, _ei, 0), (0,)),
        _form(0, (0, 0, _ei, -_ei, 0), (-_ha,)),
        _form(_ei, (0, 0, 0, -_ei, _ei), (_ha,)),
    )

    def to_ds(self, pairs, gauges, t, tau, root, kappas, rhos):
        (q1, p1), (q2, p2) = pairs
        phi12 = gauges["phi12"]
        k0, k1, k2, k3, k4 = kappas
        (rho1,) = rhos
        v = {}
        v["phi12"] = phi12
        v["phi0"] = 4 * tau * q1
        v["phi1"] = 8 * p1 / tau
        v["phi2"] = tau * phi12 * (q2 - q1)
        v["phi34"] = 32 * p2 / (tau * phi12)
        v["phi23"] = 4 * tau - v["phi0"]
        v["phi4"] = 4 * tau - v["phi1"] - phi12 * v["phi34"] / 4
        v["phi3"] = (
            16 * (-k2 + k3 + 4 * rho1)
            - (v["phi0"] - 4 * tau) * phi12 * v["phi34"]
            - 4 * v["phi2"] * v["phi34"]
        ) / (4 * phi12)
        return v

    def constraints(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        return {
            "ladder": (
                (v["phi0"] - 4 * tau) * v["phi12"] * v["phi34"]
                + 4 * v["phi3"] * v["phi12"]
                + 4 * v["phi2"] * v["phi34"]
                - 16 * (-k[2] + k[3] + 4 * state.rhos[0])
            ),
            "trace_even": 4 * v["phi1"] + 4 * v["phi4"] + v["phi12"] * v["phi34"] - 16 * tau,
            "trace_odd": v["phi0"] + v["phi23"] - 4 * tau,
        }

    def matrices(self, state):
        v, tau, k = state.variables, state.tau, state.kappas
        f0, f1, f2, f3, f4 = v["phi0"], v["phi1"], v["phi2"], v["phi3"], v["phi4"]
        f12, f23, f34 = v["phi12"], v["phi23"], v["phi34"]
        (rho1,) = state.rhos
        m = {
            (0, 0, 1): f1, (0, 1, 2): f2, (0, 2, 3): f3, (0, 3, 4): f4,
            (1, 4, 0): f0,
            (0, 0, 2): f12, (0, 1, 3): f23, (0, 2, 4): f34,
            (0, 0, 3): 4, (0, 1, 4): 4, (1, 3, 0): 4, (1, 4, 1): 4,
        }
        c = 16 * (k[0] - k[1] + k[2] - k[4] - 2 * rho1)
        core = f0 * (4 * f1 + f12 * f34)
        u0 = ((f0 - 4 * tau) * (4 * f1 + f12 * f34) + 4 * f2 * f34 + 16 * tau * tau + c) / (64 * tau)
        u2 = (core + 4 * (f2 - tau * f12) * f34 - 16 * tau * tau + c) / (64 * tau)
        u3 = (core + 4 * f2 * f34 - 16 * tau * tau + c) / (64 * tau)
        a1 = (f0 - 2 * tau) / 4
        b = {
            (0, 1, 2): f12 / 4, (0, 2, 3): f34 / 4,
            (0, 0, 1): 1, (0, 1, 3): 1, (0, 3, 4): 1, (1, 4, 0): 1,
        }
        return m, b, [a1 - u0, u2 - a1, u3 - u2, -u3, u0]

    def gauge_log_derivatives(self, pairs, t, params):
        (q1, p1), (q2, p2) = pairs
        a = params.alpha
        value = (
            -q1 * p1
            - q2 * p2
            - t * q2
            + (3 * t - 1 + 2 * a[1] + 2 * a[3] + 2 * a[5]) / 4
        )
        return {"phi12": value / t}


# the registry, in report order
REDUCTIONS = {
    r.parts: r
    for r in (_CoupledSixth33(), _CoupledSixth221(), _Sixth22(), _CoupledFourth31(), _CoupledFifth41())
}


def reduction(partition) -> Reduction:
    """The record of a partition, given as a tuple, a ``Partition`` or its
    text, or of a system id: the first record in report order that reduces
    to it, so cp6 means (3,3)."""
    if isinstance(partition, str):
        for record in REDUCTIONS.values():
            if record.system == partition:
                return record
        partition = Partition.parse(partition)
    parts = tuple(partition.parts) if isinstance(partition, Partition) else tuple(partition)
    if parts not in REDUCTIONS:
        supported = "; ".join(r.label for r in REDUCTIONS.values())
        raise ValueError(f"no Lax pair implemented for partition {parts!r} (supported: {supported})")
    return REDUCTIONS[parts]
