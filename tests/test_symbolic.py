"""Zero curvature proved symbolically for all five reductions.

The exact suites check the identity at random rational points.  Here the
same formula code runs over sympy expressions: symbols for the pairs,
gauges, kappas and rhos, and the root written out as a function of a
positive time t.  Every matrix entry and the central coordinate of the
residual then reduce to 0, so the identity holds for all data, not only
at the sampled points.
"""

from itertools import chain

import pytest

sp = pytest.importorskip("sympy")

from painleve_ds.lax import _residual_values, zero_curvature_residual  # noqa: E402
from painleve_ds.painleve import gauge_log_derivatives, reduction_parameters  # noqa: E402
from painleve_ds.reductions import REDUCTIONS  # noqa: E402
from painleve_ds.scalars import Gradient  # noqa: E402

t = sp.Symbol("t", positive=True)

ROOTS = {
    (3, 3): t ** sp.Rational(-1, 3),
    (2, 2, 1): sp.sqrt(t),
    (2, 2): sp.sqrt(t),
    (3, 1): sp.sqrt(6),
    (4, 1): sp.sqrt(-2 * t),
}


def _symbols(record):
    """Symbolic pairs, gauges (in record order), kappas and rhos, and the root."""
    root = ROOTS[record.parts]
    pairs = tuple(
        (sp.Symbol(f"q{i}"), sp.Symbol(f"p{i}")) for i in range(1, record.pair_count + 1)
    )
    gauges = {name: sp.Symbol(name) for name in record.gauge_names}
    kappas = sp.symbols(f"kappa0:{record.kappa_count}")
    rhos = sp.symbols(f"rho1:{record.rho_count + 1}")
    return pairs, gauges, kappas, rhos, Gradient(root, sp.diff(root, t))


def _vanishes(value) -> bool:
    return sp.expand(sp.numer(sp.together(value))) == 0


@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_root_satisfies_the_record_relation(parts):
    relation = REDUCTIONS[parts].root
    root = ROOTS[parts]
    assert sp.simplify(root**relation.power - relation.base(t)) == 0


@pytest.mark.parametrize("parts", list(REDUCTIONS))
def test_zero_curvature_is_an_identity(parts):
    record = REDUCTIONS[parts]
    pairs, gauges, kappas, rhos, root = _symbols(record)
    residual = zero_curvature_residual(parts, pairs, t, gauges, kappas, rhos, root=root)
    assert all(_vanishes(v) for v in (*residual.entries.values(), residual.c_k))


def test_off_flow_rates_leave_a_nonzero_entry():
    # the pairs stand still while the gauges keep the flow's rates
    record = REDUCTIONS[(2, 2)]
    pairs, gauges, kappas, rhos, root = _symbols(record)
    dlogs = gauge_log_derivatives(record.parts, pairs, t, reduction_parameters(record.parts, kappas, rhos))
    y = [*chain(*pairs), *gauges.values()]
    still = [0] * (2 * record.pair_count) + [dlogs[name] for name in gauges]
    values = _residual_values(record, y, still, t, root.value, root.tangent, kappas, rhos)
    assert not all(_vanishes(v) for v in values)
