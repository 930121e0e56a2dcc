"""Spans around calls into painleve_ds, and the per-layer metrics built from them.

A shim is installed over every ``painleve_ds.*`` module attribute bound to
a traced public function, which catches both cross-module imports and
calls through a module's own globals; ``ExtScalar.inverse`` is shimmed on
its class.  Nothing in the package changes.  A target that is missing, or
cannot be found under its name in any package module, is reported as
absent and its metrics read 0; the run goes on.

Spans are kept in memory as (id, parent, name, tag, start, end, error)
and written out when the repetition ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "painleve_ds"


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.active = True
        self._stack: list = []
        self._next = 0

    @contextmanager
    def span(self, name, tag=None):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = None
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, tag, start, end, error))

    def wrap(self, fn, name, tagger):
        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name, tagger(args, kwargs) if tagger else None):
                return fn(*args, **kwargs)

        shim.__wrapped__ = fn
        return shim

    def write(self, path, run_id):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, tag, start, end, error in self.spans:
                handle.write(json.dumps({
                    "run": run_id, "id": sid, "parent": parent, "name": name,
                    "tag": tag, "start": start, "end": end, "error": error,
                }) + "\n")


# -- taggers: which lane, degree or partition a call belongs to -----------


def _argument(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _lane(t):
    return "float" if isinstance(getattr(t, "value", t), (float, complex)) else "exact"


def _lane_at(index):
    return lambda args, kwargs: _lane(_argument(args, kwargs, index, "t"))


def _vector_field_tag(args, kwargs):
    pairs = _argument(args, kwargs, 1, "pairs")
    return f"{_lane(_argument(args, kwargs, 2, 't'))}:{len(pairs)}"


def _inverse_tag(args, kwargs):
    value = args[0]
    try:
        if value.is_rational_value():
            return "rational"
        return "deg%d" % math.prod(value.ext.powers)
    except (AttributeError, TypeError):
        return "unknown"


def _partition_tag(args, kwargs):
    return repr(_argument(args, kwargs, 0, "partition"))


# (module, qualified name, span name, tagger)
TARGETS = (
    ("scalars", "ExtScalar.inverse", "scalars.ext_inverse", _inverse_tag),
    ("heisenberg", "build_heisenberg", "heisenberg.build", _partition_tag),
    ("loop", "bracket", "loop.bracket", None),
    ("loop", "apply_theta", "loop.apply_theta", None),
    ("lax", "canonical_to_ds", "lax.canonical_to_ds", None),
    ("lax", "lax_matrices", "lax.lax_matrices", None),
    ("lax", "zero_curvature_residual", "lax.zero_curvature_residual", _lane_at(2)),
    ("lax", "verify_partition", "lax.verify_partition", None),
    ("painleve", "hamiltonian", "painleve.hamiltonian", None),
    ("painleve", "vector_field", "painleve.vector_field", _vector_field_tag),
    ("painleve", "gauge_log_derivatives", "painleve.gauge_log_derivatives", _lane_at(2)),
    ("painleve", "reduction_parameters", "painleve.reduction_parameters", None),
    ("painleve", "check_normalization", "painleve.check_normalization", None),
    ("weyl", "apply_generator", "weyl.apply_generator", None),
    ("weyl", "equivariance_residual", "weyl.equivariance", None),
    ("weyl", "conjugation_residual", "weyl.conjugation", None),
    ("weyl", "check_relations", "weyl.check_relations", None),
    ("weyl", "check_equivariance", "weyl.check_equivariance", None),
    ("weyl", "check_conjugation", "weyl.check_conjugation", None),
    ("sampling", "random_rational", "sampling.draw", None),
    ("sampling", "rational_satisfying", "sampling.rational_satisfying", None),
    ("sampling", "nonzero_rational", "sampling.nonzero_rational", None),
    ("sampling", "rational_avoiding", "sampling.rational_avoiding", None),
    ("flow", "integrate", "flow.integrate", None),
    ("flow", "residual_along", "flow.residual_along", None),
    ("flow", "dense_samples", "flow.dense_samples", None),
)


def _package_modules():
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("__"):  # __main__ would run the CLI
            importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _lookup(owner, qualname):
    *outer, attr = qualname.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    value = getattr(owner, attr, None) if owner is not None else None
    return (owner, attr, value) if callable(value) else None


def _locate(modules, module, qualname):
    """Where the target lives: its own module first, then any package module."""
    home = sys.modules.get(f"{PACKAGE}.{module}")
    found = _lookup(home, qualname) if home is not None else None
    for candidate in modules:
        if found is not None:
            break
        hit = _lookup(candidate, qualname)
        if hit is not None and getattr(hit[2], "__module__", "").startswith(PACKAGE):
            found = hit
    return found


def install(recorder):
    """Shim every target; returns the span names whose target is absent."""
    modules = _package_modules()
    absent = []
    for module, qualname, name, tagger in TARGETS:
        found = _locate(modules, module, qualname)
        if found is None:
            absent.append(name)
            continue
        owner, attr, fn = found
        shim = recorder.wrap(fn, name, tagger)
        if isinstance(owner, type):
            setattr(owner, attr, shim)
            continue
        for candidate in modules:
            for key, value in list(vars(candidate).items()):
                if value is fn:
                    setattr(candidate, key, shim)
    return absent


def hamiltonian_floor(repeats=20000):
    """Median µs of one plain-float cp6 Hamiltonian: the floor for the RHS."""
    import dataclasses

    from painleve_ds import painleve

    from lanes import kappas_of, rhos_of

    exact = painleve.reduction_parameters((3, 3), kappas_of((3, 3)), rhos_of((3, 3)))
    params = dataclasses.replace(
        exact, alpha=tuple(float(a) for a in exact.alpha), eta=float(exact.eta)
    )
    pairs = ((0.4, 0.3), (0.7, -0.2))
    rounds = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(repeats // 5):
            painleve.hamiltonian("cp6", pairs, 2.5, params)
        rounds.append((perf_counter() - start) / (repeats // 5) * 1e6)
    return statistics.median(rounds)


# -- per-layer metrics ------------------------------------------------------


def _p50(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


class _Index:
    def __init__(self, spans):
        self.by_id = {}
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        covered = defaultdict(float)
        for span in spans:
            sid, parent, name = span[0], span[1], span[2]
            self.by_id[sid] = span
            self.by_name[name].append(span)
            if parent is not None:
                self.children[parent].append(span)
                covered[parent] += span[5] - span[4]
        self.self_time = {sid: s[5] - s[4] - covered[sid] for sid, s in self.by_id.items()}

    def pick(self, name, tag=None):
        spans = self.by_name.get(name, [])
        if tag is None:
            return spans
        return [s for s in spans if s[3] is not None and s[3].startswith(tag)]

    def calls(self, name, tag=None):
        return len(self.pick(name, tag))

    def self_s(self, name, tag=None):
        return sum(self.self_time[s[0]] for s in self.pick(name, tag))

    def durations(self, name, tag=None):
        return [s[5] - s[4] for s in self.pick(name, tag)]

    def parent_name(self, span):
        parent = self.by_id.get(span[1])
        return parent[2] if parent else None


def _rhs_durations(index):
    """One float RHS inside integrate: a vector_field span plus the
    gauge_log_derivatives span that follows it."""
    out = []
    for integrate in index.by_name.get("flow.integrate", []):
        kids = sorted(index.children.get(integrate[0], []), key=lambda s: s[4])
        for k, kid in enumerate(kids):
            if kid[2] != "painleve.vector_field":
                continue
            duration = kid[5] - kid[4]
            if k + 1 < len(kids) and kids[k + 1][2] == "painleve.gauge_log_derivatives":
                duration += kids[k + 1][5] - kids[k + 1][4]
            out.append(duration)
    return out


def layer_metrics(spans, stats):
    """Per-layer values from one traced repetition, keyed by metric name."""
    ix = _Index(spans)
    us, ms = 1e6, 1e3
    m = {}

    m["scalars.ext_inverse.calls"] = ix.calls("scalars.ext_inverse")
    m["scalars.ext_inverse.self_s"] = ix.self_s("scalars.ext_inverse")
    m["scalars.ext_inverse.deg2_us"] = _p50(ix.durations("scalars.ext_inverse", "deg2")) * us
    m["scalars.ext_inverse.deg3_us"] = _p50(ix.durations("scalars.ext_inverse", "deg3")) * us
    m["scalars.ext_inverse.pole_errors"] = sum(
        1 for s in ix.pick("scalars.ext_inverse") if s[6] == "PoleError"
    )

    builds = ix.pick("heisenberg.build")
    m["heisenberg.build.calls"] = len(builds)
    m["heisenberg.build.self_s"] = ix.self_s("heisenberg.build")
    m["heisenberg.build.us"] = _p50(ix.durations("heisenberg.build")) * us
    m["heisenberg.build.useful_ratio"] = _ratio(len({s[3] for s in builds}), len(builds))

    m["loop.bracket.calls"] = ix.calls("loop.bracket")
    m["loop.bracket.self_s"] = ix.self_s("loop.bracket")
    m["loop.bracket.us_p50"] = _p50(ix.durations("loop.bracket")) * us
    m["loop.apply_theta.calls"] = ix.calls("loop.apply_theta")
    m["loop.apply_theta.self_s"] = ix.self_s("loop.apply_theta")

    for name in ("lax.canonical_to_ds", "lax.lax_matrices"):
        m[f"{name}.calls"] = ix.calls(name)
        m[f"{name}.self_s"] = ix.self_s(name)
        m[f"{name}.us_p50"] = _p50(ix.durations(name)) * us
    zcr = "lax.zero_curvature_residual"
    m[f"{zcr}.calls"] = ix.calls(zcr)
    m[f"{zcr}.self_s"] = ix.self_s(zcr)
    m[f"{zcr}.exact_ms_p50"] = _p50(ix.durations(zcr, "exact")) * ms
    m[f"{zcr}.float_us_p50"] = _p50(ix.durations(zcr, "float")) * us

    vf = "painleve.vector_field"
    for lane in ("exact", "float"):
        m[f"{vf}.{lane}.calls"] = ix.calls(vf, lane)
        m[f"{vf}.{lane}.self_s"] = ix.self_s(vf, lane)
        m[f"{vf}.{lane}.us_p50"] = _p50(ix.durations(vf, lane)) * us
    fields = ix.pick(vf)
    passes = sum(
        1 for s in ix.pick("painleve.hamiltonian") if ix.parent_name(s) == vf
    )
    pair_total = sum(int(s[3].rsplit(":", 1)[1]) for s in fields if s[3])
    m["painleve.hamiltonian.per_vector_field"] = _ratio(passes, len(fields))
    m["painleve.hamiltonian.per_pair"] = _ratio(passes, pair_total)
    m["painleve.hamiltonian.floor_us"] = stats.get("hamiltonian_floor_us", 0.0)
    gauge = "painleve.gauge_log_derivatives"
    m[f"{gauge}.calls"] = ix.calls(gauge)
    m[f"{gauge}.self_s"] = ix.self_s(gauge)
    m[f"{gauge}.us_p50"] = _p50(ix.durations(gauge)) * us
    m["painleve.reduction_parameters.calls"] = ix.calls("painleve.reduction_parameters")
    m["painleve.reduction_parameters.self_s"] = ix.self_s("painleve.reduction_parameters")

    m["weyl.apply_generator.calls"] = ix.calls("weyl.apply_generator")
    m["weyl.apply_generator.self_s"] = ix.self_s("weyl.apply_generator")
    for check in ("equivariance", "conjugation"):
        tried = ix.pick(f"weyl.{check}")
        m[f"weyl.{check}.attempts"] = len(tried)
        m[f"weyl.{check}.pole_rejects"] = sum(1 for s in tried if s[6] == "PoleError")

    draws = ix.pick("sampling.draw")
    m["sampling.draws"] = len(draws)
    in_rejection = sum(1 for s in draws if ix.parent_name(s) == "sampling.rational_satisfying")
    accepted = sum(1 for s in ix.pick("sampling.rational_satisfying") if s[6] is None)
    m["sampling.rejects"] = in_rejection - accepted
    m["sampling.self_s"] = sum(
        ix.self_s(name) for name in ix.by_name if name.startswith("sampling.")
    )

    rhs = _rhs_durations(ix)
    steps = stats.get("steps_accepted", 0)
    m["flow.integrate.calls"] = ix.calls("flow.integrate")
    m["flow.steps_accepted"] = steps
    m["flow.rhs_evals"] = len(rhs)
    m["flow.rhs_per_accepted_step"] = _ratio(len(rhs), steps)
    m["flow.rhs_us_p50"] = _p50(rhs) * us
    m["flow.stepper.self_s"] = ix.self_s("flow.integrate")
    m["flow.h_min"] = stats.get("h_min", 0.0)
    m["flow.h_max"] = stats.get("h_max", 0.0)
    m["flow.residual_along.self_s"] = ix.self_s("flow.residual_along")
    m["flow.residual_along.us_per_sample"] = (
        _ratio(sum(ix.durations("flow.residual_along")), stats.get("monitor_samples", 0)) * us
    )
    m["flow.dense_samples.self_s"] = ix.self_s("flow.dense_samples")
    m["flow.max_residual"] = stats.get("max_residual", 0.0)
    m["flow.round_trip_max"] = stats.get("round_trip_max", 0.0)
    return m


def suite_coverage(spans, wall):
    """Share of the timed phase covered by the top-level suite spans."""
    top = sum(s[5] - s[4] for s in spans if s[1] is None and s[2].startswith("suite."))
    return _ratio(top, wall)


# metrics that rest on a span beyond those named after it
_DEPENDENTS = {
    "sampling.draw": ("sampling.draws", "sampling.rejects"),
    "sampling.rational_satisfying": ("sampling.rejects",),
    "painleve.hamiltonian": ("painleve.hamiltonian.",),
    "painleve.vector_field": ("painleve.hamiltonian.per_", "flow.rhs"),
    "painleve.gauge_log_derivatives": ("flow.rhs_us_p50",),
    "flow.integrate": ("flow.rhs", "flow.stepper."),
}


def absent_metrics(absent_spans, names):
    """Metric names that rest on a span whose target is absent."""
    prefixes = [p for span in absent_spans for p in (span + ".",) + _DEPENDENTS.get(span, ())]
    return sorted(n for n in names if n.startswith(tuple(prefixes)))
