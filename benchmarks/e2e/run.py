"""The repo's end-to-end SQL benchmark (see README.md beside this file).

Two ways to call it, from the repository root::

    # one run of one workload: what BENCHMARK.json's command does
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

    # the whole report: every workload, untraced then traced, each in a
    # fresh process; writes benchmarks/e2e/results/<workload>.json
    python3 benchmarks/e2e/run.py [--seed N] [--workload W] [--smoke] [--repeat 2]

A single run prints each metric by name with its unit and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``; it exits 1
when an answer was wrong or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(HERE, "results")
DETAIL_PREFIX = "# detail "

#: per-layer metrics that are exact counts of the program's own work: two
#: runs with one seed must agree on them to the last digit
EXACT = (
    "parallel.sim_ms_per_query",
    "kv.gets_per_query",
    "kv.round_trips_per_query",
    "kv.values_per_query",
    "kv.comm_bytes_per_query",
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def single_run(args: argparse.Namespace, contract: dict) -> int:
    """One workload, one mode, in this process; the driver's entry point."""
    # the script's directory must not stay importable: trace.py would
    # shadow the standard library's `trace` for everything loaded later
    sys.path[0] = os.path.join(ROOT, "benchmarks")
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"nothing to measure: {source} has no repro package")
    sys.path.insert(0, source)
    from e2e import bench, trace

    declared = contract["per_layer" if args.trace else "end_to_end"]
    outcome = bench.run(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    unknown = set(outcome.metrics) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        metric["name"]: {
            "value": outcome.metrics[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    if args.spans is not None:
        trace.dump(outcome.spans, args.spans)
    mode = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{args.workload}  seed={args.seed}  {mode}  {outcome.samples}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    detail = {"samples": outcome.samples, "node_pids": outcome.node_pids}
    print(DETAIL_PREFIX + json.dumps(detail))
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# --------------------------------------------------------------------------
# report mode: every workload in fresh processes
# --------------------------------------------------------------------------


def _spawn(args: argparse.Namespace, workload: str, trace: int, out_dir: str) -> dict:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace:
        command += ["--spans", os.path.join(out_dir, f"{workload}.spans.jsonl")]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}")
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2][len(DETAIL_PREFIX) :]))
    return result


def run_set(args: argparse.Namespace, contract: dict, out_dir: str) -> Dict[str, dict]:
    """Both modes of every selected workload; one results file each."""
    os.makedirs(out_dir, exist_ok=True)
    declared = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    results = {}
    for workload in names:
        untraced = _spawn(args, workload, 0, out_dir)
        traced = _spawn(args, workload, 1, out_dir)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        result = {
            "workload": workload,
            "why": next(
                w["why"] for w in contract["workloads"] if w["name"] == workload
            ),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "correct": untraced["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "samples": {
                "end_to_end": untraced["samples"],
                "per_layer": traced["samples"],
            },
            "node_pids": untraced["node_pids"] + traced["node_pids"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        for section in ("end_to_end", "per_layer"):
            for name, metric in result[section].items():
                metric["better"] = declared[name]["better"]
                if "bound" in declared[name]:
                    metric["bound"] = declared[name]["bound"]
        with open(
            os.path.join(out_dir, f"{workload}.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
        results[workload] = result
        print_result(result)
    return results


def print_result(result: dict) -> None:
    print(
        f"\n== {result['workload']}  seed={result['seed']}  "
        f"failed_share={result['failed_share']:.4f} "
        f"({result['failed']}/{result['attempted']})  {result['samples']}"
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in result[section].items():
            bound = f"  bound {metric['bound']:.0%}" if "bound" in metric else ""
            print(
                f"  {name:36s} {metric['value']:14.4f} {metric['unit']:6s}"
                f" ({metric['better']} is better){bound}"
            )


def repeatability(sets: List[Dict[str, dict]]) -> List[str]:
    """Compare the first two sets metric by metric against the bounds."""
    first, second = sets[0], sets[1]
    lines = ["workload            metric          run1         run2     diff   bound"]
    for workload, a in first.items():
        b = second[workload]
        for name, metric in a["end_to_end"].items():
            x, y = metric["value"], b["end_to_end"][name]["value"]
            diff = abs(y - x) / x
            verdict = "PASS" if diff <= metric["bound"] else "UNRESOLVED"
            lines.append(
                f"{workload:18s}  {name:12s} {x:12.4f} {y:12.4f} {diff:7.1%}"
                f" {metric['bound']:6.0%}  {verdict}"
            )
        for name in EXACT:
            x = a["per_layer"][name]["value"]
            y = b["per_layer"][name]["value"]
            verdict = "IDENTICAL" if repr(x) == repr(y) else "DIFFERENT"
            lines.append(f"{workload:18s}  {name:28s} {x!r} {y!r}  {verdict}")
        shares = (a["failed_share"], b["failed_share"])
        verdict = "PASS" if shares == (0.0, 0.0) else "FAIL"
        lines.append(f"{workload:18s}  failed_share {shares[0]} {shares[1]}  {verdict}")
    return lines


def report(args: argparse.Namespace, contract: dict) -> int:
    out_dir = os.path.join(RESULTS_DIR, "smoke") if args.smoke else RESULTS_DIR
    sets = [run_set(args, contract, out_dir) for _ in range(args.repeat)]
    if args.repeat >= 2:
        lines = repeatability(sets)
        print("\n" + "\n".join(lines))
        with open(
            os.path.join(out_dir, "repeatability.txt"), "w", encoding="utf-8"
        ) as handle:
            handle.write("\n".join(lines) + "\n")
    correct = all(r["correct"] for results in sets for r in results.values())
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny data, a few ops")
    parser.add_argument("--repeat", type=int, default=1, help="report: sets to run")
    parser.add_argument("--spans", default=None, help="single run: span dump path")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(contract["run_seconds"])
    if args.trace is None:
        return report(args, contract)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return single_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
