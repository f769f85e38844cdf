#!/usr/bin/env python3
"""End-to-end benchmark of the repository: three workloads, one command.

Run from the root of a source checkout::

    python3 perfbench/run.py --kernel-nominal-ms 8 --held-out-seed 90017 \\
        --workload match-cold --seed 1 --seconds 10 --trace 0

Every timing is calibrated against a reference kernel (see
``calibrate.py``) and reads as time at reference speed; the raw
wall-clock figures are printed beside it.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Answers are checked against a fresh unfiltered evaluation; a wrong answer or a
lost acknowledged commit makes the command exit non-zero.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload name -> module; why each is in the benchmark is recorded
#: beside it in ``BENCHMARK.json``.
WORKLOADS = {
    "match-cold": "match_cold",
    "serve-fabric": "serve_fabric",
    "commit-mixed": "commit_mixed",
}

#: Counts that must repeat exactly for one workload and seed; one that
#: moves means the workload depends on timing.
DETERMINISTIC = (
    "calculus.completions",
    "calculus.rule_applications",
    "cache.hits",
    "cache.round_trips",
    "wal.fsyncs",
    "wal.append_bytes",
    "replica.epochs_applied",
    "maint.flushes",
    "maint.epochs_coalesced",
)
COUNTS_DIR = os.path.join(".perfbench", "counts")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--kernel-nominal-ms",
        type=float,
        required=True,
        help="the reference kernel's nominal time; calibrated values read "
        "as time on a host where one kernel run takes this long",
    )
    parser.add_argument(
        "--held-out-seed",
        type=int,
        required=True,
        help="a seed never used while tuning a change; claims must hold on it too",
    )
    return parser.parse_args(argv)


def determinism_report(workload: str, seed: int, counts: dict) -> list:
    """Compare this run's exact counts with the last traced run of the seed.

    The counts are stored under ``.perfbench/counts`` in the working
    directory; returns the names of the counts that moved.
    """
    path = os.path.join(COUNTS_DIR, f"{workload}-{seed}.json")
    moved = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
        moved = sorted(
            name for name in counts if name in previous and previous[name] != counts[name]
        )
    os.makedirs(COUNTS_DIR, exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(counts, handle, sort_keys=True)
    os.replace(path + ".tmp", path)
    return moved


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401 - the program under test must be importable
    except ImportError as error:
        print(f"cannot import repro from {ROOT}/src: {error}", file=sys.stderr)
        return 2

    import importlib

    from calibrate import Calibrator
    from common import environment_notes
    from spans import Tracer

    workload = importlib.import_module(WORKLOADS[args.workload])
    cal = Calibrator(args.kernel_nominal_ms)
    tracer = Tracer() if args.trace else None
    outcome = workload.run(cal, args.seed, args.seconds, tracer)

    attempted = sum(op.attempted for op in outcome.ops.values())
    failed = sum(op.failed for op in outcome.ops.values())
    correct = not outcome.mismatches

    print(f"workload      {args.workload} (seed {args.seed})")
    print(f"held-out seed {args.held_out_seed} (claims must also hold on it)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        for entry in json.load(handle)["workloads"]:
            if entry["name"] == args.workload:
                print(f"why           {entry['why']}")
    notes = dict(environment_notes())
    notes["kernel_nominal_ms"] = args.kernel_nominal_ms
    notes["kernel_median_ms"] = round(cal.kernel_median_ms, 4)
    notes.update(outcome.notes)
    for key, value in notes.items():
        print(f"{key:<13} {value}")
    for name, op in sorted(outcome.ops.items()):
        print(f"op {name:<10} attempted {op.attempted} failed {op.failed}")
    print(f"error_rate    {failed / attempted if attempted else 0.0:.6f}")
    if args.trace:
        metrics = outcome.layers
        counts = {name: outcome.counts.get(name, 0) for name in DETERMINISTIC}
        moved = determinism_report(args.workload, args.seed, counts)
        print("exact counts  " + json.dumps(counts, sort_keys=True))
        if moved:
            print(f"NOT DETERMINISTIC: moved since the last run of this seed: {moved}")
    else:
        metrics = outcome.metrics
    for name, (value, unit) in metrics.items():
        raw = outcome.raw.get(name)
        suffix = f"   (raw wall clock {raw:.4f})" if raw is not None else ""
        print(f"{name:<36} {value:14.4f} {unit}{suffix}")
    for mismatch in outcome.mismatches[:20]:
        print(f"MISMATCH {mismatch}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
