"""Command-line front end: construction, verification, symmetry, integration.

Every verification subcommand is exact and fully determined by its seed;
rationals cross the boundary as "p/q" strings so no parse-time rounding
contaminates the arithmetic.  Floats are accepted only where they belong,
as integration initial data and tolerances.  JSON output is emitted with
sorted keys and fixed indentation, so identical configuration and seed
produce byte-identical reports.

A config file may supply any long option as a `key = value` line with
`#` comments; explicit command-line flags override it, duplicate keys
warn and keep the last value, and malformed lines are reported with
their line number.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import flow
from .heisenberg import Partition, build_heisenberg, compute_N, gradation_type, verify_heisenberg
from .lax import verify_partition
from .painleve import SystemParameters, check_normalization, reduction_parameters
from .reductions import REDUCTIONS, reduction
from .reporting import jsonable
from .scalars import PoleError
from .weyl import (
    GENERATORS,
    apply_word,
    check_conjugation,
    check_equivariance,
    check_relations,
)


class UsageError(Exception):
    """Bad arguments or config values; maps to exit code 2."""


class ConfigError(Exception):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")


# -- value parsing -------------------------------------------------------


_EXPECTED = {Fraction: "a rational like 3/4", float: "a number", int: "an integer"}


def _number(text, what, kind=float):
    try:
        return kind(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what}: expected {_EXPECTED[kind]}, got {text!r}")


def _numbers(text, what, kind=float, count=None):
    pieces = text.split(",")
    if count is not None and len(pieces) != count:
        raise UsageError(f"{what}: expected {count} comma-separated values, got {len(pieces)}")
    return tuple(_number(p, what, kind) for p in pieces)


def _supported_reduction(text):
    try:
        return reduction(Partition.parse(text))
    except ValueError as exc:
        raise UsageError(f"--partition: {exc}")


def _word(text):
    try:
        letters = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--word: expected generator indices like 0,1,0, got {text!r}")
    for letter in letters:
        if letter not in GENERATORS:
            raise UsageError(f"--word: generator index out of range: {letter}")
    if not letters:
        raise UsageError("--word: empty word")
    return letters


# -- config files --------------------------------------------------------


def load_config(path) -> dict:
    """key = value lines with # comments; duplicates warn, last one wins."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"--config: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(path, lineno, f"expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key:
            raise ConfigError(path, lineno, "empty key")
        if key in values:
            print(
                f"warning: {path}:{lineno}: duplicate key {key!r} overrides earlier value",
                file=sys.stderr,
            )
        values[key] = value
    return values


def _resolved(args, key, fallback=None):
    """CLI flag if given, else config value, else the fallback."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if key in config:
        return config[key]
    return fallback


def _emit_json(document, stream=None):
    print(json.dumps(document, sort_keys=True, indent=2), file=stream or sys.stdout)


# -- subcommands ---------------------------------------------------------


def _cmd_heisenberg(args) -> int:
    raw = _resolved(args, "partition")
    if raw is None:
        raise UsageError("heisenberg: --partition is required")
    try:
        partition = Partition.parse(raw)
    except ValueError as exc:
        raise UsageError(f"--partition: {exc}")
    data = build_heisenberg(partition)
    report = verify_heisenberg(partition)
    generators = [(f"lambda_{i + 1}", lam) for i, lam in enumerate(data.lambdas)]
    generators += [(f"h_{j + 1}", h) for j, h in enumerate(data.h_elements)]
    document = {
        "partition": list(partition.parts),
        "N": compute_N(partition),
        "s": list(gradation_type(data)),
        "generators": [{"name": name, "matrix": g.render()} for name, g in generators],
        "checks": report.to_json_dict()["checks"],
    }
    if _resolved(args, "json", False):
        _emit_json(document)
    else:
        print(f"partition {raw}: N = {document['N']}, s = ({', '.join(str(v) for v in document['s'])})")
        for entry in document["generators"]:
            print(f"{entry['name']}:")
            for line in entry["matrix"].splitlines():
                print(f"  {line}")
        for check in document["checks"]:
            print(("PASS " if check["pass"] else "FAIL ") + check["name"])
    return 0 if report.passed else 1


def _cmd_verify_lax(args) -> int:
    raw = _resolved(args, "partition")
    if raw is None:
        raise UsageError("verify-lax: --partition is required")
    record = _supported_reduction(raw)
    samples = _number(str(_resolved(args, "samples", 100)), "--samples", int)
    seed = _number(str(_resolved(args, "seed", 0)), "--seed", int)
    report = verify_partition(record.parts, samples=samples, seed=seed)
    body = report.to_json_dict()
    document = {
        "partition": list(record.parts),
        "samples": samples,
        "passed": body["passed"],
        "failures": body["failures"],
    }
    if _resolved(args, "json", False):
        _emit_json(document)
    else:
        count = samples - len(document["failures"])
        print(f"partition {record.label}: {count}/{samples} samples exact")
        for failure in document["failures"]:
            print(f"  sample {failure['sample_index']}: entry {failure['entry']} residual {failure['residual']}")
    return 0 if document["passed"] else 1


def _cmd_weyl(args) -> int:
    raw_word = _resolved(args, "word")
    raw_point = _resolved(args, "point")
    raw_t = _resolved(args, "t")
    raw_alphas = _resolved(args, "alphas")
    raw_eta = _resolved(args, "eta")
    missing = [
        flag
        for flag, value in (
            ("--word", raw_word),
            ("--point", raw_point),
            ("--t", raw_t),
            ("--alphas", raw_alphas),
            ("--eta", raw_eta),
        )
        if value is None
    ]
    if missing:
        raise UsageError("weyl: missing " + ", ".join(missing))
    word = _word(raw_word)
    coords = _numbers(raw_point, "--point", Fraction, count=4)
    pairs = ((coords[0], coords[1]), (coords[2], coords[3]))
    t = _number(raw_t, "--t", Fraction)
    alphas = _numbers(raw_alphas, "--alphas", Fraction, count=6)
    eta = _number(raw_eta, "--eta", Fraction)
    params = SystemParameters(alpha=alphas, eta=eta)
    try:
        image_pairs, image_params = apply_word(word, pairs, params, t)
    except PoleError as exc:
        if _resolved(args, "json", False):
            _emit_json({"error": str(exc), "word": list(word)})
        else:
            print(f"singular: {exc}", file=sys.stderr)
        return 1
    document = {
        "word": list(word),
        "input": {
            "point": jsonable([c for qp in pairs for c in qp]),
            "t": jsonable(t),
            "alphas": jsonable(alphas),
            "eta": jsonable(eta),
        },
        "image": {
            "point": jsonable([c for qp in image_pairs for c in qp]),
            "alphas": jsonable(image_params.alpha),
            "eta": jsonable(image_params.eta),
        },
    }
    if _resolved(args, "json", False):
        _emit_json(document)
    else:
        img = document["image"]
        print("q1, p1, q2, p2 =", ", ".join(img["point"]))
        print("alphas =", ", ".join(img["alphas"]))
        print("eta =", img["eta"])
    return 0


def _cmd_weyl_check(args) -> int:
    samples = _number(str(_resolved(args, "samples", 100)), "--samples", int)
    seed = _number(str(_resolved(args, "seed", 0)), "--seed", int)
    bridge = _number(str(_resolved(args, "bridge_samples", 25)), "--bridge-samples", int)
    reports = {
        "relations": check_relations(samples=samples, seed=seed),
        "equivariance": check_equivariance(samples=samples, seed=seed),
        "conjugation": check_conjugation(samples=bridge, seed=seed),
    }
    passed = all(report.passed for report in reports.values())
    document = {name: report.to_json_dict() for name, report in reports.items()}
    document["pass"] = passed
    if _resolved(args, "json", False):
        _emit_json(document)
    else:
        for name, report in reports.items():
            good = sum(1 for c in report.checks if c.passed)
            print(f"{name}: {good}/{len(report.checks)} checks pass")
            for check in report.checks:
                if not check.passed:
                    print(f"  FAIL {check.name}")
    return 0 if passed else 1


def _trajectory_params(args, record):
    raw_kappas = _resolved(args, "kappas")
    raw_rhos = _resolved(args, "rhos")
    raw_alphas = _resolved(args, "alphas")
    raw_eta = _resolved(args, "eta")
    if raw_kappas is not None:
        kappas = _numbers(raw_kappas, "--kappas", Fraction, count=record.kappa_count)
        if raw_rhos is None:
            raise UsageError("integrate: --kappas needs --rhos")
        rhos = _numbers(raw_rhos, "--rhos", Fraction, count=record.rho_count)
        return reduction_parameters(record.parts, kappas, rhos)
    if raw_alphas is not None:
        alphas = _numbers(raw_alphas, "--alphas", Fraction, count=record.weight_count)
        eta = _number(raw_eta, "--eta", Fraction) if raw_eta is not None else None
        if record.eta is not None and eta is None:
            raise UsageError("integrate: the coupled sixth system needs --eta")
        return SystemParameters(alpha=alphas, eta=eta)
    raise UsageError("integrate: supply --kappas/--rhos or --alphas [--eta]")


def _cmd_integrate(args) -> int:
    raw_system = _resolved(args, "partition") or _resolved(args, "system")
    if raw_system is None:
        raise UsageError("integrate: --system (or --partition) is required")
    try:
        record = reduction(flow.resolve_partition(raw_system))
    except ValueError as exc:
        raise UsageError(f"integrate: {exc}")
    params = _trajectory_params(args, record)

    raw_point = _resolved(args, "point")
    if raw_point is None:
        raise UsageError("integrate: --point is required")
    pair_count = record.pair_count
    coords = _numbers(raw_point, "--point", count=2 * pair_count)
    pairs = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(pair_count))

    names = record.gauge_names
    raw_gauges = _resolved(args, "gauges")
    if raw_gauges is None:
        gauges = {name: 1.0 for name in names}
    else:
        values = _numbers(raw_gauges, "--gauges", count=len(names))
        gauges = dict(zip(names, values))

    t0 = _number(str(_resolved(args, "t0")), "--t0") if _resolved(args, "t0") is not None else None
    t1 = _number(str(_resolved(args, "t1")), "--t1") if _resolved(args, "t1") is not None else None
    if t0 is None or t1 is None:
        raise UsageError("integrate: --t0 and --t1 are required")
    rel_tol = _number(str(_resolved(args, "rel_tol", 1e-8)), "--rel-tol")
    abs_tol = _number(str(_resolved(args, "abs_tol", 1e-10)), "--abs-tol")
    raw_fixed = _resolved(args, "fixed_step")
    fixed = _number(str(raw_fixed), "--fixed-step") if raw_fixed is not None else None
    raw_grid = _resolved(args, "sample_at")
    grid = list(_numbers(raw_grid, "--sample-at")) if raw_grid is not None else None
    as_json = _resolved(args, "json", False)

    try:
        trajectory = flow.integrate(
            record.parts, pairs, gauges, params, t0, t1,
            rel_tol=rel_tol, abs_tol=abs_tol, fixed_step=fixed,
        )
        rows = list(flow.csv_rows(trajectory, times=grid))
    except (PoleError, ValueError) as exc:
        if as_json:
            _emit_json({"error": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = flow.metadata(trajectory)
    failures = 0
    if trajectory.termination != flow.REACHED_END:
        print(f"error: {trajectory.termination} before t1", file=sys.stderr)
        failures += 1
    if _resolved(args, "residual", False):
        tolerance = _number(str(_resolved(args, "residual_tol", 1e-6)), "--residual-tol")
        try:
            monitor = flow.residual_along(trajectory)
        except ValueError as exc:
            if as_json:
                _emit_json({"error": str(exc)})
            else:
                print(f"error: {exc}", file=sys.stderr)
            return 1
        meta["residual"] = monitor
        meta["residual"]["tolerance"] = tolerance
        meta["residual"]["pass"] = monitor["max_residual"] <= tolerance
        if not meta["residual"]["pass"]:
            failures += 1

    out_path = _resolved(args, "out")
    if as_json:
        header, *body = rows
        _emit_json({
            "metadata": meta,
            "header": header.split(","),
            "rows": [row.split(",") for row in body],
        })
    elif out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
        with open(out_path + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote {len(rows) - 1} rows to {out_path} (metadata: {out_path}.json)")
    else:
        for row in rows:
            print(row)
        if meta.get("residual"):
            print(f"max Lax residual: {meta['residual']['max_residual']:.3e}", file=sys.stderr)
    return 1 if failures else 0


def _report_numerics(seed) -> dict:
    order = flow.order_check()
    trajectories = {}
    for record in REDUCTIONS.values():
        parts = record.parts
        kappas = tuple(Fraction(2 * k + 1, 7) for k in range(record.kappa_count))
        rhos = tuple(Fraction(3 + k, 5) for k in range(record.rho_count))
        params = reduction_parameters(parts, kappas, rhos)
        pairs = ((0.4, 0.3), (0.7, -0.2))[: record.pair_count]
        gauges = {name: 1.0 + 0.25 * k for k, name in enumerate(record.gauge_names)}
        forward = flow.integrate(parts, pairs, gauges, params, 2.0, 3.0, rel_tol=1e-10, abs_tol=1e-12)
        backward = flow.integrate(
            parts, forward.final.pairs, forward.final.gauges, params, 3.0, 2.0,
            rel_tol=1e-10, abs_tol=1e-12,
        )
        round_trip = max(
            abs(a - b)
            for qp0, qp1 in zip(backward.final.pairs, pairs)
            for a, b in zip(qp0, qp1)
        )
        monitor = flow.residual_along(forward)
        trajectories[record.label] = {
            "termination": forward.termination,
            "round_trip": round_trip,
            "max_residual": monitor["max_residual"],
            "pass": (
                forward.termination == flow.REACHED_END
                and round_trip <= 1e-6
                and monitor["max_residual"] <= 1e-6
            ),
        }
    slope_ok = abs(order["slope"] - 5.0) <= 0.3
    return {
        "order": {"slope": order["slope"], "errors": order["errors"], "pass": slope_ok},
        "trajectories": trajectories,
        "pass": slope_ok and all(t["pass"] for t in trajectories.values()),
    }


def _cmd_report(args) -> int:
    samples = _number(str(_resolved(args, "samples", 100)), "--samples", int)
    seed = _number(str(_resolved(args, "seed", 0)), "--seed", int)
    bridge = _number(str(_resolved(args, "bridge_samples", 25)), "--bridge-samples", int)
    norm_samples = _number(str(_resolved(args, "normalization_samples", 1000)), "--normalization-samples", int)

    heisenberg_block = {}
    for record in REDUCTIONS.values():
        partition = Partition(record.parts)
        data = build_heisenberg(partition)
        report = verify_heisenberg(partition)
        heisenberg_block[record.label] = {
            "N": compute_N(partition),
            "s": list(gradation_type(data)),
            "pass": report.passed,
        }

    lax_block = {}
    for record in REDUCTIONS.values():
        report = verify_partition(record.parts, samples=samples, seed=seed)
        body = report.to_json_dict()
        lax_block[record.label] = {
            "samples": samples,
            "passed": body["passed"],
            "failures": body["failures"],
        }

    weyl_block = {
        "relations": check_relations(samples=samples, seed=seed).to_json_dict(),
        "equivariance": check_equivariance(samples=samples, seed=seed).to_json_dict(),
        "conjugation": check_conjugation(samples=bridge, seed=seed).to_json_dict(),
    }
    normalization = check_normalization(samples=norm_samples, seed=seed).to_json_dict()
    numerics = _report_numerics(seed)

    passed = (
        all(block["pass"] for block in heisenberg_block.values())
        and all(block["passed"] for block in lax_block.values())
        and all(block["pass"] for block in weyl_block.values())
        and normalization["pass"]
        and numerics["pass"]
    )
    document = {
        "seed": seed,
        "samples": samples,
        "heisenberg": heisenberg_block,
        "lax": lax_block,
        "weyl": weyl_block,
        "normalization": normalization,
        "numerics": numerics,
        "pass": passed,
    }
    out_path = _resolved(args, "out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(("PASS" if passed else "FAIL") + f": report written to {out_path}")
    else:
        _emit_json(document)
    return 0 if passed else 1


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-ds",
        description="Exact verification and numerics for loop-algebra Painleve reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file; flags given here override it")
        p.add_argument("--json", action="store_true", default=None, help="machine-readable output")

    p = sub.add_parser("heisenberg", help="construct and verify one partition's subalgebra")
    common(p)
    p.add_argument("--partition", help="partition such as 2,2,1")
    p.set_defaults(handler=_cmd_heisenberg)

    p = sub.add_parser("verify-lax", help="exact zero-curvature suite for one partition")
    common(p)
    p.add_argument("--partition", help="one of " + "; ".join(r.label for r in REDUCTIONS.values()))
    p.add_argument("--samples", help="sample count (default 100)")
    p.add_argument("--seed", help="sampling seed (default 0)")
    p.set_defaults(handler=_cmd_verify_lax)

    p = sub.add_parser("weyl", help="apply a reflection word to a point")
    common(p)
    p.add_argument("--word", help="generator indices, e.g. 0,1,0")
    p.add_argument("--point", help="q1,p1,q2,p2 as rationals")
    p.add_argument("--t", help="time as a rational")
    p.add_argument("--alphas", help="six weights a0,...,a5 as rationals")
    p.add_argument("--eta", help="extra weight as a rational")
    p.set_defaults(handler=_cmd_weyl)

    p = sub.add_parser("weyl-check", help="exact symmetry-group verification")
    common(p)
    p.add_argument("--samples", help="points per relation/generator (default 100)")
    p.add_argument("--seed", help="sampling seed (default 0)")
    p.add_argument("--bridge-samples", dest="bridge_samples", help="conjugation points (default 25)")
    p.set_defaults(handler=_cmd_weyl_check)

    p = sub.add_parser("integrate", help="float trajectory of one system")
    common(p)
    p.add_argument("--system", help="p6, a4, a5, cp6, or a partition like 2,2,1")
    p.add_argument("--partition", help="partition (overrides --system)")
    p.add_argument("--point", help="initial q,p per pair, comma-separated floats")
    p.add_argument("--gauges", help="initial gauge values in declared order (default all 1)")
    p.add_argument("--kappas", help="integration constants as rationals (with --rhos)")
    p.add_argument("--rhos", help="residual-grade constants as rationals")
    p.add_argument("--alphas", help="weights as rationals (alternative to --kappas)")
    p.add_argument("--eta", help="extra weight, needed by the coupled sixth system")
    p.add_argument("--t0", help="start time")
    p.add_argument("--t1", help="end time")
    p.add_argument("--rel-tol", dest="rel_tol", help="relative tolerance (default 1e-8)")
    p.add_argument("--abs-tol", dest="abs_tol", help="absolute tolerance (default 1e-10)")
    p.add_argument("--fixed-step", dest="fixed_step", help="disable adaptivity, use this step")
    p.add_argument("--sample-at", dest="sample_at", help="dense-output times, comma-separated")
    p.add_argument("--out", help="CSV path; writes a .json metadata sidecar next to it")
    p.add_argument("--residual", action="store_true", default=None,
                   help="monitor the along-trajectory Lax residual")
    p.add_argument("--residual-tol", dest="residual_tol", help="failure threshold (default 1e-6)")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("report", help="run every suite, emit one JSON document")
    common(p)
    p.add_argument("--samples", help="samples per exact suite (default 100)")
    p.add_argument("--seed", help="sampling seed (default 0)")
    p.add_argument("--bridge-samples", dest="bridge_samples", help="conjugation points (default 25)")
    p.add_argument("--normalization-samples", dest="normalization_samples",
                   help="weight-sum samples (default 1000)")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config_path = getattr(args, "config", None)
        args._config = load_config(config_path) if config_path else {}
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
