"""One repetition of a workload in a fresh interpreter.

Started by run.py, one at a time.  Set-up (interpreter start, import and
input generation) is timed from the parent's clock reading passed in
--started; the home lane is then timed as wall_s.  An untraced repetition
goes on to run the cross-lane canary; a traced one shims the package
first and reports per-layer metrics instead.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--rep", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SOURCE))
    import painleve_ds

    if Path(painleve_ds.__file__).resolve().parent != SOURCE / "painleve_ds":
        raise SystemExit(f"painleve_ds imported from {painleve_ds.__file__}, not from {SOURCE}")
    import lanes

    home = lanes.LANES[args.workload]
    inputs = lanes.prepare(home, args.seed, args.scale)
    setup_s = perf_counter() - args.started

    recorder = None
    record = {"setup_s": setup_s, "absent": []}
    if args.trace:
        import spans

        try:
            floor = spans.hamiltonian_floor()
        except (AttributeError, KeyError, TypeError, ValueError):
            floor = None
        recorder = spans.Recorder()
        record["absent"] = spans.install(recorder)
        if floor is None:
            record["absent"].append("painleve.hamiltonian.floor_us")

    clock = lanes.Clock(recorder)
    tally = lanes.Tally()
    stats = {}
    if recorder is None:
        record["setup_probe"] = lanes.probe()
    start = perf_counter()
    lanes.run_lane(home, args.seed, inputs, clock, tally, stats)
    record["wall_s"] = perf_counter() - start - clock.probe_s
    record["wall_probe"] = clock.host_probe()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if recorder is None:
        # a fresh canary seed per repetition spreads the canary's few
        # samples over new inputs, so its medians rest on more of them
        canary_seed = 1000 * args.seed + args.rep
        for lane in ("lax", "weyl", "float"):
            if lane != home:
                canary = lanes.prepare(lane, canary_seed, args.scale, canary=True)
                lanes.run_lane(lane, canary_seed, canary, clock, tally, {})
    else:
        recorder.active = False
        stats["hamiltonian_floor_us"] = floor or 0.0
        record["layers"] = spans.layer_metrics(recorder.spans, stats)
        record["coverage"] = spans.suite_coverage(recorder.spans, record["wall_s"])
        OUT.mkdir(exist_ok=True)
        run_id = f"{args.workload}-seed{args.seed}-rep{args.rep}"
        recorder.write(OUT / f"spans-{run_id}.jsonl", run_id)
        # accuracy against a tight reference: the first start of every
        # partition at each tolerance, outside the timed phase
        firsts = {}
        for row in stats.get("forward", []):
            firsts.setdefault((row[0], row[3]), row)
        if firsts:
            step_err, dense_err = lanes.reference_errors(list(firsts.values()))
            record["layers"]["flow.step_err_max"] = step_err
            record["layers"]["flow.dense_err_max"] = dense_err

    record.update(
        times=clock.times,
        probes=clock.probes,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        digests=tally.digests,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
