"""Steadiness check: run each workload many times and judge the spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py                      # 10 seeds per workload
    python3 perfbench/steady.py --runs 5 --workload scan_mix
    python3 perfbench/steady.py --smoke              # seconds-long, checks armed

For each workload it runs ``perfbench/run.py`` once per seed, prints every
end-to-end metric's median and quartiles, the spread (inter-quartile range
over median) against a third of the metric's bound from ``BENCHMARK.json``
(``setup_s`` included), and whether the medians of the first and second
half of the runs differ, in either direction, by no more than the bound.
It then re-runs the first seed, untraced and traced twice, asserts that the
seeded counts (``bytes_written_per_op``, ``disk_mb``, ops attempted and
failed, ``scheduler.steps_per_wave``) repeat exactly and that the share of
failed ops is the same in every run, and prints the tracing overhead (timed
section, traced over untraced).  Exits non-zero when an assertion fails or a
run reports an incorrect output (its failed checks are printed, and its
metrics still count).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXACT_E2E = ("bytes_written_per_op", "disk_mb")
EXACT_LAYER = ("scheduler.steps_per_wave",)


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool = False) -> Dict[str, Any]:
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({done.returncode}):\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} trace={trace}: INCORRECT\n"
              f"{done.stderr.strip()[-2000:]}", flush=True)
    result["details"] = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def change(first: float, second: float) -> float:
    """``second`` relative to ``first``, as a signed share of ``first``."""
    return (second - first) / first if first else 0.0


def judge(spec: Dict[str, Any], workload: str, runs: List[Dict[str, Any]]) -> bool:
    ok = True
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':24} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'halves':>7}")
    half = len(runs) // 2
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        stats = spread(values)
        halves = change(statistics.median(values[:half]),
                        statistics.median(values[half:]))
        steady = stats["spread"] <= metric["bound"] / 3
        agree = abs(halves) <= metric["bound"]
        flag = "" if steady and agree else "  <-- " + (
            "spread" if not steady else "halves disagree")
        ok = ok and agree and steady
        print(f"{name:24} {stats['q1']:12.4f} {stats['median']:12.4f} "
              f"{stats['q3']:12.4f} {stats['spread']:7.3f} {metric['bound']:6.2f} "
              f"{halves:+7.3f}{flag}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share: {sorted(shares)}")
    if len(shares) != 1:
        print("  <-- the failed share differs between runs")
        ok = False
    incorrect = [seed for seed, run in enumerate(runs, 1) if not run["correct"]]
    if incorrect:
        print(f"  <-- incorrect output on seeds {incorrect}")
        ok = False
    return ok


def repeat_check(workload: str, seed: int, seconds: float,
                 first: Dict[str, Any]) -> bool:
    again = run_once(workload, seed, seconds, 0)
    traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
    ok = all(run["correct"] for run in [again] + traced)
    pairs = [(name, first["metrics"][name]["value"], again["metrics"][name]["value"])
             for name in EXACT_E2E]
    pairs += [(key, first[key], again[key]) for key in ("attempted", "failed")]
    pairs += [(name, traced[0]["metrics"][name]["value"],
               traced[1]["metrics"][name]["value"]) for name in EXACT_LAYER]
    for name, a, b in pairs:
        same = a == b
        ok = ok and same
        print(f"seed {seed} repeat: {name:28} {a!r:>22} {b!r:>22} "
              f"{'same' if same else '<-- differs'}")
    untraced = first["metrics"]["throughput_ops_s"]["value"]
    timed = first["details"].get("timed_s"), traced[0]["details"].get("timed_s")
    if all(timed):
        print(f"tracing overhead: timed section {timed[0]:.2f} s untraced, "
              f"{timed[1]:.2f} s traced ({(timed[1] / timed[0] - 1) * 100:+.1f} %); "
              f"untraced throughput {untraced:.2f} ops/s")
    return ok


def main(argv=None) -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="perfbench steadiness check")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: every workload)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced and one traced run per workload at a tenth "
                             "of the scale, every check armed")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        if args.smoke:
            for trace in (0, 1):
                result = run_once(workload, 1, 1, trace, smoke=True)
                ok = ok and result["correct"]
                print(f"{workload} trace={trace}: "
                      f"{'correct' if result['correct'] else 'INCORRECT'}, "
                      f"{result['attempted']} ops, {result['failed']} failed, "
                      f"{len(result['metrics'])} metrics")
            continue
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={m['value']:.4g}" for name, m in runs[-1]["metrics"].items()),
                flush=True)
        ok = judge(spec, workload, runs) and ok
        ok = repeat_check(workload, 1, args.seconds, runs[0]) and ok
    print("\nsteady: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
