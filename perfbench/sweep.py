"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads vqe_deep,small_corpus --seeds 1-10 \
        [--seconds 30] [--trace 0] [--json OUT.json]

For every workload and metric it prints the median of the runs and their
spread: the interquartile range (statistics.quantiles, n=4) over the median.
With --json it also writes each run's result, input digest and check
verdicts.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict]) -> dict[str, dict]:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "values": vals}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}")
                return 1
            *_, details, result = proc.stdout.strip().splitlines()
            details = json.loads(details)
            run = {
                "seed": seed,
                "wall_s": round(time.perf_counter() - start, 1),
                "result": json.loads(result),
                "inputs_sha256": details["inputs"]["sha256"],
                "pass_s": details["pass_s"],
                "compile_calls": details["compile_calls"],
                "checks": details["checks"],
            }
            runs.append(run)
            values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"unchecked={run['checks']['unchecked']} wall={run['wall_s']}s {values}", flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
        report[workload] = {"summary": summary, "runs": runs}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
