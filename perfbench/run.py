"""qshallow compile benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qshallow checkout (the directory holding src/).  One
run, each step a fresh interpreter, one process at a time:

1. set-up: `import qshallow.cli` plus `build_parser()`, timed in eleven fresh
   interpreters after one untimed warm-up;
2. inputs: gen.py writes the workload's QASM files for the seed;
3. compiles: worker.py calls `qshallow.cli.main(["compile", ...])` on every
   file, round after round, for about S seconds (traced and untraced calls
   alternate with --trace 1);
4. checks: every output is re-read and checked against its input with the
   benchmark's own code (qasmcheck.py).

The second-to-last line of standard output is a JSON object of details (input
hashes, per-call samples, check verdicts); the last line is the result.
Scratch files go under .perfbench_work/ and are removed at the end.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from qasmcheck import QasmError, check, circuit_stats, read_qasm
from tracing import LAYER_KEYS, call_layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
#: Wall-clock limit of a whole run, inside the 180 s a run may take.
DEADLINE_S = 170.0
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qshallow.cli\n"
    "qshallow.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


class BenchError(Exception):
    pass


class Child:
    """Runs benchmark steps as child interpreters before a shared deadline."""

    def __init__(self, src: Path, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # the program's numpy calls stay on one core

    def run(self, *args: str) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{args[0]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _call_samples(seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    out = {"n": n, "median_s": _median(ordered)}
    if n >= 11:
        out["tail_s"] = ordered[n - 11]
        out["tail_percentile"] = round(100.0 * (n - 10) / n, 2)
    return out


def _check_outputs(workload, manifest, files, calls) -> tuple[list[bool], dict, list[dict]]:
    """Check each file's output once and mark every call ok or failed.

    A call fails if it exits non-zero, leaves no output, writes an output
    that differs from the file's first untraced output, or if that output
    does not re-read or fails the equivalence check."""
    first_sha: dict[int, str] = {}
    for call in calls:
        if not call["traced"] and call["rc"] == 0 and call["out_sha256"]:
            first_sha.setdefault(call["file"], call["out_sha256"])
    verdicts: dict[int, tuple[str, str]] = {}
    outputs: list[dict] = []
    for index, entry in enumerate(manifest):
        if index not in first_sha:
            verdicts[index] = ("fail", "no_output")
            outputs.append({})
            continue
        inp = read_qasm(Path(entry["path"]).read_text(encoding="utf-8"))
        out_text = Path(files[index]["out"]).read_text(encoding="utf-8")
        if hashlib.sha256(out_text.encode()).hexdigest() != first_sha[index]:
            verdicts[index] = ("fail", "output_changed")
            outputs.append({})
            continue
        try:
            out = read_qasm(out_text)
        except QasmError:
            verdicts[index] = ("fail", "unreadable")
            outputs.append({})
            continue
        verdicts[index] = check(inp, out, workload.ghz)
        outputs.append(circuit_stats(out))
    ok = [
        call["rc"] == 0
        and call["out_sha256"] == first_sha.get(call["file"])
        and verdicts[call["file"]][0] != "fail"
        for call in calls
    ]
    summary = collections.Counter(v for v, _ in verdicts.values())
    methods = collections.Counter(f"{v}:{m}" for v, m in verdicts.values())
    checks = {
        "pass": summary["pass"], "fail": summary["fail"], "unchecked": summary["unchecked"],
        "methods": dict(sorted(methods.items())),
        "failed_files": [manifest[i]["label"] for i, (v, _) in verdicts.items() if v == "fail"][:20],
    }
    return ok, checks, outputs


def _pass_times(calls, traced: bool) -> list[float]:
    per_round: dict[int, int] = collections.defaultdict(int)
    for call in calls:
        if call["traced"] == traced:
            per_round[call["round"]] += call["ns"]
    return [ns / 1e9 for ns in per_round.values()]


def _layer_metrics(result, manifest, outputs, calls) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round over the workload's files (the lower
    median over traced rounds)."""
    traced = [c for c in calls if c["traced"]]
    per_round: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
    for call, spans in zip(traced, result["spans"]):
        per_round[call["round"]].update(call_layers(spans))
    layer = {k: statistics.median_low([sums[k] for sums in per_round.values()])
             for k in LAYER_KEYS}
    files = len(manifest)
    reports = [result["reports"].get(f"{i}:1") or {} for i in range(files)]

    def total(key):
        return sum(r.get(key) or 0 for r in reports)

    applied = total("chains_applied") + total("ghz_sites_replaced")
    depth_gap = sum(
        out["depth"] - r["output_depth"]
        for out, r in zip(outputs, reports)
        if out and r.get("output_depth") is not None
    )
    instructions = sum(entry["instructions"] for entry in manifest)
    untraced = _mean(_pass_times(calls, traced=False))
    return {
        "qasm.parse_s": (layer["parse_s"], "s"),
        "qasm.parse_instr_per_s": (instructions / layer["parse_s"] if layer["parse_s"] else 0.0, "1/s"),
        "qasm.emit_s": (layer["emit_s"], "s"),
        "qasm.emit_bytes": (layer["emit_chars"], "bytes"),
        "qasm.emit_depth_gap": (depth_gap, "layers"),
        "ir.validate_calls": (layer["validate_n"] / files, "count"),
        "ir.validate_s": (layer["validate_s"], "s"),
        "ir.depth_of_calls": (layer["depth_of_n"], "count"),
        "ir.depth_of_instr": (layer["depth_of_instr"], "count"),
        "ir.depth_of_s": (layer["depth_of_s"], "s"),
        "ir.stats_s": (layer["stats_s"], "s"),
        "ghz.rebuild_s": (layer["rebuild_s"], "s"),
        "ghz.detect_s": (layer["detect_s"], "s"),
        "ghz.sites_found": (total("ghz_sites_found"), "count"),
        "ghz.sites_replaced": (total("ghz_sites_replaced"), "count"),
        "chains.scan_s": (layer["scan_s"], "s"),
        "chains.candidates": (layer["candidates"], "count"),
        "chains.accepts": (layer["accept_n"], "count"),
        "chains.accept_s": (layer["accept_s"], "s"),
        "chains.decompose_s": (layer["decompose_s"], "s"),
        "pipeline.gate_s": (layer["gate_s"], "s"),
        "pipeline.gate_self_s": (layer["gate_self_s"], "s"),
        "pipeline.recheck_calls": (layer["recheck_n"], "count"),
        "pipeline.recheck_instr": (layer["recheck_instr"], "count"),
        "pipeline.apply_ratio": (
            layer["accept_n"] / layer["candidates"] if layer["candidates"] else 0.0, "ratio"),
        "sim.verify_calls": (layer["verify_n"], "count"),
        "sim.verify_s": (layer["verify_s"], "s"),
        "sim.verify_skipped": (applied - layer["verify_n"], "count"),
        "trace.overhead_ratio": (
            _mean(_pass_times(calls, traced=True)) / untraced if untraced else 0.0, "ratio"),
    }


def run(args, root: Path, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    child = Child(root / "src", time.monotonic() + DEADLINE_S)

    child.run("-c", SETUP_CODE)  # warm-up: byte-compiles the package once
    setup = [float(child.run("-c", SETUP_CODE)) for _ in range(SETUP_PROBES)]

    inputs = work / "inputs"
    child.run(str(HERE / "gen.py"), args.workload, str(args.seed), str(inputs))
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))

    outdir = work / "outputs"
    outdir.mkdir()
    files = [
        {
            "in": entry["path"],
            "out": str(outdir / f"out{i:04d}.qasm"),
            "report": str(outdir / f"out{i:04d}.json"),
            "traced_out": str(outdir / f"traced{i:04d}.qasm"),
            "traced_report": str(outdir / f"traced{i:04d}.json"),
        }
        for i, entry in enumerate(manifest)
    ]
    job = {
        "files": files, "flags": list(workload.flags), "seconds": args.seconds,
        "trace": bool(args.trace), "result": str(work / "result.json"),
    }
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    child.run(str(HERE / "worker.py"), str(work / "job.json"))
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    calls = result["calls"]

    ok, checks, outputs = _check_outputs(workload, manifest, files, calls)
    failed = ok.count(False)
    untraced_calls = [c["ns"] / 1e9 for c in calls if not c["traced"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {
            "files": len(manifest),
            "instructions": sum(e["instructions"] for e in manifest),
            "sha256": hashlib.sha256("".join(e["sha256"] for e in manifest).encode()).hexdigest(),
            "file_sha256": [e["sha256"] for e in manifest],
        },
        "rounds": 1 + max(c["round"] for c in calls),
        "pass_s": _pass_times(calls, traced=False),
        "compile_calls": _call_samples(untraced_calls),
        "setup_samples_s": setup,
        "checks": checks,
        "errors": [c["error"] for c in calls if c["error"]][:3],
        "untraced_targets": result["missing"],
    }
    if args.trace:
        metrics = _layer_metrics(result, manifest, outputs, calls)
    else:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "compile_s": (_mean(_pass_times(calls, traced=False)), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
            "depth_out": (sum(o["depth"] for o in outputs if o), "layers"),
            "gates_out": (sum(o["gate_count"] for o in outputs if o), "count"),
            "pass_rate": (1.0 - failed / len(calls), "ratio"),
        }
    summary = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return summary, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and awaited.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "qshallow" / "cli.py").is_file():
        print("error: run from the root of a qshallow checkout (no src/qshallow/cli.py)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        summary, details = run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
