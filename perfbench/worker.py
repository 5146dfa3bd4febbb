"""Run the timed `qshallow compile` calls of one benchmark run.

    python3 perfbench/worker.py JOB.json

JOB.json holds the input files, the compile flags, the time budget, whether
to trace and where to write the result.  Each round compiles every file once
through `qshallow.cli.main`; a traced run compiles each file twice per round,
unwrapped and traced, alternating which goes first.  Rounds repeat while the
next one is expected to end within the budget.  Only the `cli.main` call is
timed; hashing outputs and reading reports happen between calls.  Spans stay
in memory and are written with the result at the end.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _report_summary(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return None
    summary = {k: report.get(k) for k in ("ghz_sites_found", "ghz_sites_replaced",
                                          "chains_applied")}
    summary["output_depth"] = report.get("output_stats", {}).get("depth")
    return summary


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from qshallow import cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    calls, spans, reports = [], [], {}
    budget_ns = int(job["seconds"] * 1e9)
    began = time.perf_counter_ns()
    rounds = 0
    while True:
        round_start = time.perf_counter_ns()
        for index, files in enumerate(job["files"]):
            modes = [False] if tracer is None else [rounds % 2 == 1, rounds % 2 == 0]
            for traced in modes:
                out = files["traced_out" if traced else "out"]
                report = files["traced_report" if traced else "report"]
                argv = ["compile", "--in", files["in"], "--out", out, "--report", report,
                        *job["flags"]]
                error = None
                if traced:
                    tracer.install()
                    first_span = len(tracer.spans)
                start = time.perf_counter_ns()
                try:
                    rc = tracer.call(cli.main, argv) if traced else cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # a crash is a failed compile, not a failed run
                    rc, error = None, traceback.format_exc(limit=4)
                elapsed = time.perf_counter_ns() - start
                if traced:
                    tracer.uninstall()
                    own = tracer.spans[first_span:]
                    del tracer.spans[first_span:]
                    spans.append([[n, p - first_span if p >= 0 else -1, s, e, note]
                                  for n, p, s, e, note in own])
                key = f"{index}:{int(traced)}"
                if key not in reports:
                    reports[key] = _report_summary(report)
                calls.append({
                    "file": index, "round": rounds, "traced": traced, "rc": rc,
                    "ns": elapsed, "out_sha256": _sha256(out), "error": error,
                })
        rounds += 1
        now = time.perf_counter_ns()
        if now - began + (now - round_start) > budget_ns:
            break
    result = {
        "calls": calls,
        "reports": reports,
        "spans": spans,
        "missing": tracer.missing if tracer is not None else [],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
