"""Command-line front end: construction, verification, symmetry, integration.

Every verification subcommand is exact and fully determined by its seed;
rationals cross the boundary as "p/q" strings so no parse-time rounding
contaminates the arithmetic.  Floats are accepted only where they belong,
as integration initial data and tolerances.  JSON output is emitted with
sorted keys and fixed indentation, so identical configuration and seed
produce byte-identical reports.

A config file gives long options of the chosen subcommand as `key = value`
lines with `#` comments.  They become that subcommand's defaults for a
second parse, so they pass the same argparse `type=` as flags, and flags
override them.  Unknown keys are refused; a duplicate key warns and wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import flow
from .heisenberg import Partition, build_heisenberg, verify_heisenberg
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


# -- value parsing (argparse `type=` functions) ----------------------------


def _checked(convert, expected=None):
    """A `type=` function; its message is ``expected`` or else ``convert``'s own."""

    def parse(text):
        try:
            return convert(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            message = f"expected {expected}, got {text!r}" if expected else str(exc)
            raise argparse.ArgumentTypeError(message)

    return parse


_integer = _checked(int, "an integer")


def _positive(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} < 1")
    return value


_count = _checked(_positive, "a positive integer")
_rational = _checked(Fraction, "a rational like 3/4")
_real = _checked(float, "a number")


def _numbers(one, count=None):
    """Comma-separated values for the `type=` function ``one``; ``count`` fixes how many."""

    def parse(text):
        pieces = text.split(",")
        if count is not None and len(pieces) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated values, got {len(pieces)}")
        return tuple(one(p) for p in pieces)

    return parse


def _word(text):
    try:
        letters = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected generator indices like 0,1,0, got {text!r}")
    for letter in letters:
        if letter not in GENERATORS:
            raise argparse.ArgumentTypeError(f"generator index out of range: {letter}")
    return letters


def _counted(values, flag, count):
    """Check a list whose length depends on the chosen record."""
    if values is not None and len(values) != count:
        raise UsageError(f"{flag}: expected {count} comma-separated values, got {len(values)}")
    return values


# -- config files --------------------------------------------------------


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_config(path) -> dict:
    """key = value lines with # comments; duplicates warn, last one wins."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in values:
            print(
                f"warning: {path}:{lineno}: duplicate key {key!r} overrides earlier value",
                file=sys.stderr,
            )
        values[key] = value
    return values


def _config_defaults(command, subparser, path) -> dict:
    """The file's values by destination; a key is a long option of ``command``.

    Flags get their boolean here, as argparse converts only typed defaults.
    """
    defaults = {}
    for key, value in load_config(path).items():
        action = subparser._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"{path}: unknown key {key!r} for {command}")
        if action.nargs == 0:
            if value.lower() not in _BOOLEANS:
                raise UsageError(f"{path}: {key}: expected true/false/yes/no/1/0, got {value!r}")
            value = _BOOLEANS[value.lower()]
        defaults[action.dest] = value
    return defaults


def _emit_json(document):
    print(json.dumps(document, sort_keys=True, indent=2))


def _write(path, text, mode="w"):
    """Write one output file; a path that cannot be written is a usage error."""
    try:
        with open(path, mode, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc}")


def _check_writable(*paths):
    """Fail before any work if an output cannot be written; change no file."""
    for path in paths:
        existed = os.path.exists(path)
        _write(path, "", mode="a")  # append mode truncates nothing
        if not existed:
            os.remove(path)


def _fail(args, exc, prefix="error", **extra) -> int:
    """A computation that failed: JSON on stdout or a line on stderr, exit code 1."""
    if args.json:
        _emit_json({"error": str(exc), **extra})
    else:
        print(f"{prefix}: {exc}", file=sys.stderr)
    return 1


def _heisenberg_suite(partition):
    """The subalgebra, its check report, and its N and gradation type s."""
    data = build_heisenberg(partition)
    report = verify_heisenberg(partition)
    return data, report, {"N": data.scale, "s": list(data.s_vector)}


def _lax_block(record, samples, seed) -> dict:
    body = verify_partition(record.parts, samples=samples, seed=seed).to_json_dict()
    return {"samples": samples, "passed": body["passed"], "failures": body["failures"]}


def _weyl_reports(samples, seed, bridge) -> dict:
    return {
        "relations": check_relations(samples=samples, seed=seed),
        "equivariance": check_equivariance(samples=samples, seed=seed),
        "conjugation": check_conjugation(samples=bridge, seed=seed),
    }


# -- subcommands ---------------------------------------------------------


def _cmd_heisenberg(args) -> int:
    data, report, block = _heisenberg_suite(args.partition)
    generators = [(f"lambda_{i + 1}", lam) for i, lam in enumerate(data.lambdas)]
    generators += [(f"h_{j + 1}", h) for j, h in enumerate(data.h_elements)]
    document = {
        "partition": list(args.partition.parts),
        **block,
        "generators": [{"name": name, "matrix": g.render()} for name, g in generators],
        "checks": report.to_json_dict()["checks"],
    }
    if args.json:
        _emit_json(document)
    else:
        print(f"partition {args.partition}: N = {document['N']}, s = ({', '.join(str(v) for v in document['s'])})")
        for entry in document["generators"]:
            print(f"{entry['name']}:")
            for line in entry["matrix"].splitlines():
                print(f"  {line}")
        for check in document["checks"]:
            print(("PASS " if check["pass"] else "FAIL ") + check["name"])
    return 0 if report.passed else 1


def _cmd_verify_lax(args) -> int:
    record = args.partition
    document = {"partition": list(record.parts), **_lax_block(record, args.samples, args.seed)}
    if args.json:
        _emit_json(document)
    else:
        count = args.samples - len(document["failures"])
        print(f"partition {record.label}: {count}/{args.samples} samples exact")
        for failure in document["failures"]:
            print(f"  sample {failure['sample_index']}: entry {failure['entry']} residual {failure['residual']}")
    return 0 if document["passed"] else 1


def _cmd_weyl(args) -> int:
    pairs = tuple(zip(args.point[::2], args.point[1::2]))
    params = SystemParameters(alpha=args.alphas, eta=args.eta)
    try:
        image_pairs, image_params = apply_word(args.word, pairs, params, args.t)
    except PoleError as exc:
        return _fail(args, exc, "singular", word=list(args.word))
    document = {
        "word": list(args.word),
        "input": {
            "point": jsonable(list(args.point)),
            "t": jsonable(args.t),
            "alphas": jsonable(args.alphas),
            "eta": jsonable(args.eta),
        },
        "image": {
            "point": jsonable([c for qp in image_pairs for c in qp]),
            "alphas": jsonable(image_params.alpha),
            "eta": jsonable(image_params.eta),
        },
    }
    if args.json:
        _emit_json(document)
    else:
        img = document["image"]
        print("q1, p1, q2, p2 =", ", ".join(img["point"]))
        print("alphas =", ", ".join(img["alphas"]))
        print("eta =", img["eta"])
    return 0


def _cmd_weyl_check(args) -> int:
    reports = _weyl_reports(args.samples, args.seed, args.bridge_samples)
    document = {name: report.to_json_dict() for name, report in reports.items()}
    document["pass"] = all(report.passed for report in reports.values())
    if args.json:
        _emit_json(document)
    else:
        for name, report in reports.items():
            good = sum(1 for c in report.checks if c.passed)
            print(f"{name}: {good}/{len(report.checks)} checks pass")
            for check in report.checks:
                if not check.passed:
                    print(f"  FAIL {check.name}")
    return 0 if document["pass"] else 1


def _trajectory_params(args, record):
    constants = [flag for flag in ("--kappas", "--rhos") if getattr(args, flag[2:]) is not None]
    weights = [flag for flag in ("--alphas", "--eta") if getattr(args, flag[2:]) is not None]
    if constants and weights:
        raise UsageError(f"integrate: give {'/'.join(constants)} or {'/'.join(weights)}, not both")
    if args.kappas is not None:
        kappas = _counted(args.kappas, "--kappas", record.kappa_count)
        if args.rhos is None:
            raise UsageError("integrate: --kappas needs --rhos")
        rhos = _counted(args.rhos, "--rhos", record.rho_count)
        return reduction_parameters(record.parts, kappas, rhos)
    if args.alphas is not None:
        alphas = _counted(args.alphas, "--alphas", record.weight_count)
        if record.eta is not None and args.eta is None:
            raise UsageError("integrate: the coupled sixth system needs --eta")
        if record.eta is None and args.eta is not None:
            raise UsageError(f"integrate: the {record.system} system takes no --eta")
        return SystemParameters(alpha=alphas, eta=args.eta)
    raise UsageError("integrate: supply --kappas/--rhos or --alphas [--eta]")


def _cmd_integrate(args) -> int:
    if args.json and args.out:
        raise UsageError("integrate: --json and --out cannot be combined")
    if args.out:
        _check_writable(args.out, args.out + ".json")
    record = args.system
    params = _trajectory_params(args, record)
    coords = _counted(args.point, "--point", 2 * record.pair_count)
    pairs = tuple(zip(coords[::2], coords[1::2]))
    names = record.gauge_names
    values = _counted(args.gauges, "--gauges", len(names)) or [1.0] * len(names)
    gauges = dict(zip(names, values))

    try:
        trajectory = flow.integrate(
            record.parts, pairs, gauges, params, args.t0, args.t1,
            rel_tol=args.rel_tol, abs_tol=args.abs_tol, fixed_step=args.fixed_step,
        )
        rows = list(flow.csv_rows(trajectory, times=args.sample_at))
    except (PoleError, ValueError) as exc:
        return _fail(args, exc)

    meta = flow.metadata(trajectory)
    failed = trajectory.termination != flow.REACHED_END
    if failed:
        print(f"error: {trajectory.termination} before t1", file=sys.stderr)
    if args.residual:
        try:
            monitor = flow.residual_along(trajectory)
        except ValueError as exc:
            return _fail(args, exc)
        passed = monitor["samples"] >= 1 and monitor["max_residual"] <= args.residual_tol
        meta["residual"] = {**monitor, "tolerance": args.residual_tol, "pass": passed}
        failed = failed or not passed

    if args.json:
        header, *body = rows
        _emit_json({
            "metadata": meta,
            "header": header.split(","),
            "rows": [row.split(",") for row in body],
        })
    elif args.out:
        _write(args.out, "\n".join(rows) + "\n")
        _write(args.out + ".json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
        print(f"wrote {len(rows) - 1} rows to {args.out} (metadata: {args.out}.json)")
    else:
        for row in rows:
            print(row)
        if meta.get("residual"):
            print(f"max Lax residual: {meta['residual']['max_residual']:.3e}", file=sys.stderr)
    return 1 if failed else 0


def _report_numerics() -> dict:
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
    if args.out:
        _check_writable(args.out)
    samples, seed = args.samples, args.seed
    heisenberg_block = {}
    for record in REDUCTIONS.values():
        _, report, block = _heisenberg_suite(Partition(record.parts))
        heisenberg_block[record.label] = {**block, "pass": report.passed}
    lax_block = {record.label: _lax_block(record, samples, seed) for record in REDUCTIONS.values()}
    weyl_block = {
        name: report.to_json_dict()
        for name, report in _weyl_reports(samples, seed, args.bridge_samples).items()
    }
    normalization = check_normalization(samples=args.normalization_samples, seed=seed).to_json_dict()
    numerics = _report_numerics()

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
    if args.out:
        _write(args.out, json.dumps(document, sort_keys=True, indent=2) + "\n")
        print(("PASS" if passed else "FAIL") + f": report written to {args.out}")
    else:
        _emit_json(document)
    return 0 if passed else 1


# -- wiring ----------------------------------------------------------------


def build_parser():
    """The top-level parser and its subcommand parsers by name.

    The config file may supply a required option, so each subcommand lists
    those in its ``required`` default rather than as ``required=True``.
    """
    parser = argparse.ArgumentParser(
        prog="painleve-ds",
        description="Exact verification and numerics for loop-algebra Painleve reductions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, required=(), json_flag=True):
        p = sub.add_parser(name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="key = value file; flags given here override it")
        if json_flag:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler, required=required)
        return p

    def suite_size(p, samples_help):
        p.add_argument("--samples", type=_count, default=100, help=samples_help)
        p.add_argument("--seed", type=_integer, default=0, help="sampling seed")

    p = command("heisenberg", _cmd_heisenberg, "construct and verify one partition's subalgebra",
                required=("--partition",))
    p.add_argument("--partition", type=_checked(Partition.parse), help="partition such as 2,2,1")

    p = command("verify-lax", _cmd_verify_lax, "exact zero-curvature suite for one partition",
                required=("--partition",))
    p.add_argument("--partition", type=_checked(lambda text: reduction(Partition.parse(text))),
                   help="one of " + "; ".join(r.label for r in REDUCTIONS.values()))
    suite_size(p, "sample count")

    p = command("weyl", _cmd_weyl, "apply a reflection word to a point",
                required=("--word", "--point", "--t", "--alphas", "--eta"))
    p.add_argument("--word", type=_word, help="generator indices, e.g. 0,1,0")
    p.add_argument("--point", type=_numbers(_rational, count=4), help="q1,p1,q2,p2 as rationals")
    p.add_argument("--t", type=_rational, help="time as a rational")
    p.add_argument("--alphas", type=_numbers(_rational, count=6), help="six weights a0,...,a5 as rationals")
    p.add_argument("--eta", type=_rational, help="extra weight as a rational")

    p = command("weyl-check", _cmd_weyl_check, "exact symmetry-group verification")
    suite_size(p, "points per relation/generator")
    p.add_argument("--bridge-samples", type=_count, default=25, help="conjugation points")

    p = command("integrate", _cmd_integrate, "float trajectory of one system",
                required=("--system", "--point", "--t0", "--t1"))
    p.add_argument("--system", "--partition",
                   type=_checked(lambda text: reduction(flow.resolve_partition(text))),
                   help="p6, a4, a5, cp6, or a partition like 2,2,1")
    p.add_argument("--point", type=_numbers(_real), help="initial q,p per pair, comma-separated floats")
    p.add_argument("--gauges", type=_numbers(_real),
                   help="initial gauge values in declared order; all 1 when omitted")
    p.add_argument("--kappas", type=_numbers(_rational), help="integration constants as rationals (with --rhos)")
    p.add_argument("--rhos", type=_numbers(_rational), help="residual-grade constants as rationals")
    p.add_argument("--alphas", type=_numbers(_rational), help="weights as rationals (alternative to --kappas)")
    p.add_argument("--eta", type=_rational, help="extra weight, needed by the coupled sixth system")
    p.add_argument("--t0", type=_real, help="start time")
    p.add_argument("--t1", type=_real, help="end time")
    p.add_argument("--rel-tol", type=_real, default=1e-8, help="relative tolerance")
    p.add_argument("--abs-tol", type=_real, default=1e-10, help="absolute tolerance")
    p.add_argument("--fixed-step", type=_real, help="disable adaptivity, use this step")
    p.add_argument("--sample-at", type=_numbers(_real), help="dense-output times, comma-separated")
    p.add_argument("--out", help="CSV path; writes a .json metadata sidecar next to it")
    p.add_argument("--residual", action="store_true", help="monitor the along-trajectory Lax residual")
    p.add_argument("--residual-tol", type=_real, default=1e-6, help="failure threshold")

    p = command("report", _cmd_report, "run every suite, emit one JSON document", json_flag=False)
    suite_size(p, "samples per exact suite")
    p.add_argument("--bridge-samples", type=_count, default=25, help="conjugation points")
    p.add_argument("--normalization-samples", type=_count, default=1000, help="weight-sum samples")
    p.add_argument("--out", help="write the report here instead of stdout")

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            subparser = commands[args.command]
            subparser.set_defaults(**_config_defaults(args.command, subparser, args.config))
            args = parser.parse_args(argv)
        missing = [flag for flag in args.required if getattr(args, flag[2:].replace("-", "_")) is None]
        if missing:
            raise UsageError(f"{args.command}: missing " + ", ".join(missing))
        code = args.handler(args)
        sys.stdout.flush()
    except SystemExit as exc:  # argparse has printed help or a usage error
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
