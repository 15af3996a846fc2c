"""Compare fresh BENCH_*.json results against the committed baselines.

Usage::

    python benchmarks/compare_baselines.py [--threshold 0.20] [--strict]

Reads every ``benchmarks/results/BENCH_<name>.json`` produced by the
benchmark run and diffs each metric against
``benchmarks/baselines/BENCH_<name>.json``. A metric regresses when it
moves against its ``higher_is_better`` direction by more than the
threshold (default 20%).

Fail-soft by default: regressions are printed as warnings (GitHub
``::warning`` annotations when running in Actions) and the exit code
stays 0, so the CI step never blocks a merge — it makes the drop
visible in the PR checks instead. ``--strict`` turns regressions into
exit code 1 for local bisection.

Baselines are committed files: refresh one on purpose by copying the
fresh result over it (``cp benchmarks/results/BENCH_x.json
benchmarks/baselines/``) in the PR that legitimately moves the number.

``--exact NAME [NAME ...]`` is the other question: a change that must
not move the *simulated* clock re-runs the artifacts that clock alone
produces and asks for **byte identity**, not a threshold::

    python benchmarks/compare_baselines.py --exact batching_kv table3

exits 1 unless every ``results/BENCH_<NAME>.json`` named is
byte-identical to ``baselines/BENCH_<NAME>.json`` (a missing file
counts as a difference). The wall-clock artifact (``vectorized``) never
repeats byte for byte; do not name it.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
BASELINES_DIR = os.path.join(HERE, "baselines")
#: how far a metric may move against its direction before it regressed
DEFAULT_THRESHOLD = 0.20


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def index_metrics(payload: dict) -> dict:
    return {entry["metric"]: entry for entry in payload.get("metrics", [])}


def compare(threshold: float) -> tuple[list[str], list[str]]:
    """(regressions, notes) across every fresh result with a baseline."""
    regressions: list[str] = []
    notes: list[str] = []
    fresh_paths = sorted(glob.glob(os.path.join(RESULTS_DIR, "BENCH_*.json")))
    if not fresh_paths:
        notes.append("no BENCH_*.json results found — run the benchmarks")
        return regressions, notes
    for fresh_path in fresh_paths:
        name = os.path.basename(fresh_path)
        baseline_path = os.path.join(BASELINES_DIR, name)
        if not os.path.exists(baseline_path):
            notes.append(f"{name}: no committed baseline (skipped)")
            continue
        fresh = index_metrics(load(fresh_path))
        baseline = index_metrics(load(baseline_path))
        for metric_name, base_entry in sorted(baseline.items()):
            if metric_name not in fresh:
                regressions.append(
                    f"{name}: metric {metric_name!r} disappeared"
                )
                continue
            base_value = float(base_entry["value"])
            new_value = float(fresh[metric_name]["value"])
            higher_is_better = bool(
                base_entry.get("higher_is_better", True)
            )
            if base_value == 0:
                continue
            change = (new_value - base_value) / abs(base_value)
            regressed = (
                change < -threshold if higher_is_better
                else change > threshold
            )
            arrow = f"{base_value:.4g} -> {new_value:.4g} ({change:+.1%})"
            if regressed:
                regressions.append(f"{name}: {metric_name} {arrow}")
            else:
                notes.append(f"{name}: {metric_name} {arrow} ok")
    return regressions, notes


def compare_exact(names: list[str]) -> list[str]:
    """One line per named artifact whose fresh result is not
    byte-identical to its committed baseline."""
    differing: list[str] = []
    for name in names:
        filename = f"BENCH_{name}.json"
        try:
            identical = filecmp.cmp(
                os.path.join(RESULTS_DIR, filename),
                os.path.join(BASELINES_DIR, filename),
                shallow=False,
            )
        except FileNotFoundError as error:
            differing.append(f"{filename}: no {error.filename}")
            continue
        if not identical:
            differing.append(f"{filename}: result differs from the baseline")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative regression tolerance (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 on regression instead of warning",
    )
    parser.add_argument(
        "--exact", nargs="+", metavar="NAME",
        help="instead of the threshold diff: exit 1 unless each "
        "results/BENCH_<NAME>.json is byte-identical to its baseline",
    )
    args = parser.parse_args(argv)
    if args.exact:
        names = list(dict.fromkeys(args.exact))
        differing = compare_exact(names)
        for line in differing:
            print(f"DIFFERENT: {line}")
        print(
            f"{len(names) - len(differing)} of {len(names)} artifact(s) "
            "byte-identical to the baseline"
        )
        return 1 if differing else 0
    regressions, notes = compare(args.threshold)
    for note in notes:
        print(note)
    in_actions = bool(os.environ.get("GITHUB_ACTIONS"))
    for line in regressions:
        if in_actions:
            print(f"::warning title=benchmark regression::{line}")
        else:
            print(f"WARNING: regression: {line}")
    if regressions:
        print(
            f"{len(regressions)} metric(s) regressed beyond "
            f"{args.threshold:.0%} (fail-soft"
            + (", --strict set: failing)" if args.strict else ")")
        )
        return 1 if args.strict else 0
    print("no benchmark regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
