"""Benchmark of painleve_ds: exact and float lanes, end to end and layer by layer.

    python3 bench/run.py --workload lax-exact --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout.  Each repetition runs in a fresh
interpreter (bench/rep.py), one after another, until --seconds have
passed; there are no threads and no pool, and every caller waits for its
reply.  With --trace 0 it prints every end-to-end metric; with --trace 1
it alternates untraced and traced repetitions and prints every per-layer
metric.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record (spreads,
sample counts, digests, commit, Python, nproc, load average) is written
to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lax-exact", "weyl-exact", "float-flow")
# whole run, including the last repetition, stays well inside 180 s
HARD_LIMIT_S = 150.0
# timings are scaled to a host that runs lanes.probe() in this time
PROBE_S = 1e-3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verify_22_s", "s"),
    ("verify_31_s", "s"),
    ("verify_41_s", "s"),
    ("verify_221_s", "s"),
    ("verify_33_s", "s"),
    ("relations_s", "s"),
    ("equivariance_s", "s"),
    ("conjugation_s", "s"),
    ("normalization_s", "s"),
    ("integrate_ms_p50", "ms"),
    ("integrate_ms_p90", "ms"),
    ("monitor_ms_p50", "ms"),
)

_S, _US, _MS, _N, _R = "s", "us", "ms", "count", "ratio"
PER_LAYER = (
    ("scalars.ext_inverse.calls", _N),
    ("scalars.ext_inverse.self_s", _S),
    ("scalars.ext_inverse.deg2_us", _US),
    ("scalars.ext_inverse.deg3_us", _US),
    ("scalars.ext_inverse.pole_errors", _N),
    ("heisenberg.build.calls", _N),
    ("heisenberg.build.self_s", _S),
    ("heisenberg.build.us", _US),
    ("heisenberg.build.useful_ratio", _R),
    ("loop.bracket.calls", _N),
    ("loop.bracket.self_s", _S),
    ("loop.bracket.us_p50", _US),
    ("loop.apply_theta.calls", _N),
    ("loop.apply_theta.self_s", _S),
    ("lax.canonical_to_ds.calls", _N),
    ("lax.canonical_to_ds.self_s", _S),
    ("lax.canonical_to_ds.us_p50", _US),
    ("lax.lax_matrices.calls", _N),
    ("lax.lax_matrices.self_s", _S),
    ("lax.lax_matrices.us_p50", _US),
    ("lax.zero_curvature_residual.calls", _N),
    ("lax.zero_curvature_residual.self_s", _S),
    ("lax.zero_curvature_residual.exact_ms_p50", _MS),
    ("lax.zero_curvature_residual.float_us_p50", _US),
    ("painleve.vector_field.exact.calls", _N),
    ("painleve.vector_field.exact.self_s", _S),
    ("painleve.vector_field.exact.us_p50", _US),
    ("painleve.vector_field.float.calls", _N),
    ("painleve.vector_field.float.self_s", _S),
    ("painleve.vector_field.float.us_p50", _US),
    ("painleve.hamiltonian.per_vector_field", _R),
    ("painleve.hamiltonian.per_pair", _R),
    ("painleve.hamiltonian.floor_us", _US),
    ("painleve.gauge_log_derivatives.calls", _N),
    ("painleve.gauge_log_derivatives.self_s", _S),
    ("painleve.gauge_log_derivatives.us_p50", _US),
    ("painleve.reduction_parameters.calls", _N),
    ("painleve.reduction_parameters.self_s", _S),
    ("weyl.apply_generator.calls", _N),
    ("weyl.apply_generator.self_s", _S),
    ("weyl.equivariance.attempts", _N),
    ("weyl.equivariance.pole_rejects", _N),
    ("weyl.conjugation.attempts", _N),
    ("weyl.conjugation.pole_rejects", _N),
    ("sampling.draws", _N),
    ("sampling.rejects", _N),
    ("sampling.self_s", _S),
    ("flow.integrate.calls", _N),
    ("flow.steps_accepted", _N),
    ("flow.rhs_evals", _N),
    ("flow.rhs_per_accepted_step", _R),
    ("flow.rhs_us_p50", _US),
    ("flow.stepper.self_s", _S),
    ("flow.h_min", "t"),
    ("flow.h_max", "t"),
    ("flow.residual_along.self_s", _S),
    ("flow.residual_along.us_per_sample", _US),
    ("flow.dense_samples.self_s", _S),
    ("flow.max_residual", "abs"),
    ("flow.round_trip_max", "abs"),
    ("flow.step_err_max", "abs"),
    ("flow.dense_err_max", "abs"),
    ("trace.overhead", _R),
    ("trace.coverage", _R),
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def summary(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"value": median, "n": len(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def source_digest():
    """sha256 over the package sources, standing in for a commit in a plain checkout."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_rep(args, traced, index, started_run):
    remaining = HARD_LIMIT_S - (perf_counter() - started_run)
    started = perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", repr(args.scale), "--trace", str(int(traced)),
             "--started", repr(started), "--rep", str(index)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        fail(f"repetition {index} did not finish within the run's time limit")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"repetition {index} exited with code {done.returncode}")
    rep = json.loads(done.stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = perf_counter() - started
    return rep


def collect(args):
    """Repetitions until --seconds have passed; traced runs alternate."""
    started = perf_counter()
    plain, traced = [], []
    longest = 0.0
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            rep = run_rep(args, trace, len(plain) + len(traced), started)
            (traced if trace else plain).append(rep)
            longest = max(longest, rep["elapsed_s"])
        elapsed = perf_counter() - started
        if elapsed >= args.seconds or elapsed + longest * (1 + args.trace) > HARD_LIMIT_S:
            return plain, traced


def end_to_end(plain):
    """Every end-to-end metric from the untraced repetitions.

    Each time is scaled to a host that runs the probe in PROBE_S, by the
    probe timed next to it (see README, "Steadiness"); then suites take
    the median over repetitions, and per-call metrics percentiles over
    every call of the run.  Memory is a plain median.
    """
    probes = [p for rep in plain for ps in rep["probes"].values() for p in ps]

    def scaled(pairs):
        return [t * PROBE_S / p for t, p in pairs]

    out = {
        "setup_s": summary(scaled((rep["setup_s"], rep["setup_probe"]) for rep in plain)),
        "wall_s": summary(scaled((rep["wall_s"], rep["wall_probe"]) for rep in plain)),
        "peak_rss_mb": summary([rep["peak_rss_mb"] for rep in plain]),
    }
    calls = {}
    for rep in plain:
        for key, times in rep["times"].items():
            calls.setdefault(key, []).extend(scaled(zip(times, rep["probes"][key])))
    for name, _ in END_TO_END:
        if name not in out and name in calls:
            out[name] = summary(calls[name])
    for name, key, share in (
        ("integrate_ms_p50", "integrate", 0.5),
        ("integrate_ms_p90", "integrate", 0.9),
        ("monitor_ms_p50", "residual_along", 0.5),
    ):
        if key in calls:
            ms = [t * 1e3 for t in calls[key]]
            value = percentile(ms, share)
            out[name] = summary(ms) | {"value": value, "beyond": sum(1 for v in ms if v > value)}
    out["setup_s"]["unscaled"] = statistics.median(rep["setup_s"] for rep in plain)
    out["wall_s"]["unscaled"] = statistics.median(rep["wall_s"] for rep in plain)
    return out, {"p05": percentile(probes, 0.05), "median": statistics.median(probes)}


def per_layer(plain, traced):
    out = {}
    for name, _ in PER_LAYER:
        values = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        out[name] = summary(values) if values else {"value": 0.0, "n": 0}
    walls = [rep["wall_s"] for rep in traced]
    out["trace.overhead"] = {
        "value": statistics.median(walls) / statistics.median(r["wall_s"] for r in plain),
        "n": len(walls),
    }
    out["trace.coverage"] = summary([rep["coverage"] for rep in traced])
    return out


def check_digests(reps, key):
    """Exact reports must hash the same in every repetition and every run
    of this checkout for the same workload, seed and size."""
    seen = {}
    for rep in reps:
        for suite, digest in rep["digests"].items():
            if seen.setdefault(suite, digest) != digest:
                return False, seen
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.setdefault(key, {})
    consistent = all(earlier.setdefault(s, d) == d for s, d in seen.items())
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return consistent, seen


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload size relative to `report`'s defaults (smaller for smoke tests)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "painleve_ds" / "__init__.py").is_file():
        fail(f"no painleve_ds sources under {ROOT / 'src'}; run from a checkout")
    if args.seconds <= 0 or args.scale <= 0:
        fail("--seconds and --scale must be positive")

    env = environment()
    plain, traced = collect(args)
    env["loadavg_end"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    reps = plain + traced
    consistent, digests = check_digests(
        reps, f"{args.workload}/seed={args.seed}/scale={args.scale!r}"
    )
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    probe_times = None
    if args.trace:
        metrics, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        (metrics, probe_times), units = end_to_end(plain), dict(END_TO_END)
    missing = [name for name in units if name not in metrics]
    absent_names = []
    if args.trace:
        import spans

        absent = {name for rep in traced for name in rep["absent"]}
        absent_names = spans.absent_metrics(absent, units)
    correct = consistent and failed == 0 and not missing

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": env,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "probe_s": probe_times,
        "metrics": {n: metrics[n] | {"unit": units[n]} for n in units if n in metrics},
        "absent": absent_names, "missing": missing, "digests": digests,
        "digests_consistent": consistent,
        "errors": [e for rep in reps for e in rep["errors"]],
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    for name in units:
        if name in metrics:
            m = metrics[name]
            note = " (absent)" if name in absent_names else ""
            spread = f"  spread {m['spread']:.3f} n={m['n']}" if "spread" in m else ""
            print(f"{name:48s} {m['value']:.6g} {units[name]}{spread}{note}")
    for error in record["errors"]:
        print(f"failed: {error}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": units[n]} for n in units if n in metrics},
    }))


if __name__ == "__main__":
    main()
