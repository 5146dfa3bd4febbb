"""Tests of the benchmark itself (not of qshallow).

    python3 perfbench/selftest.py

Run from the root of a qshallow checkout.  Checks that:

1. the checker's commutation rules and Pauli-form comparison agree with
   dense matrices;
2. the checker passes real compiler outputs and rejects corrupted ones (a
   CX with control and target swapped, a dropped feedforward X), and never
   passes an output it cannot decide;
3. span self times add up to the root span's duration exactly;
4. the reader's depth and gate count equal `qshallow depth` on emitted files;
5. run.py exits non-zero, printing no result, without the program's sources.

Exits 0 when every check holds.  Scratch files go under .perfbench_work/.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from qasmcheck import (  # noqa: E402
    Op,
    _apply_dense,
    check,
    circuit_stats,
    commute,
    pauli_form_equal,
    read_qasm,
)
from gen import qasm_text  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"
GATES_1Q = ("h", "x", "y", "z", "rx", "ry", "rz")
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def dense(ops, n: int) -> np.ndarray:
    block = np.eye(1 << n, dtype=complex)
    for op in ops:
        block = _apply_dense(block, op, n)
    return block


def equal_up_to_phase(u: np.ndarray, v: np.ndarray) -> bool:
    k = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    phase = v[k] / u[k]
    return abs(abs(phase) - 1) < 1e-9 and np.allclose(u * phase, v, atol=1e-9)


def random_op(rng: random.Random, n: int, clifford: bool = False) -> Op:
    names = ("h", "x", "y", "z", "cx", "cz") if clifford else GATES_1Q + ("cx", "cz")
    name = rng.choice(names)
    if name in ("cx", "cz"):
        return Op(name, tuple(rng.sample(range(n), 2)))
    angle = rng.uniform(-math.pi, math.pi) if name.startswith("r") else None
    return Op(name, (rng.randrange(n),), angle)


def test_commutation() -> None:
    rng = random.Random(1)
    wrong = []
    for a_name in GATES_1Q + ("cx", "cz"):
        for b_name in GATES_1Q + ("cx", "cz"):
            for qa in ([(0,), (1,), (2,)] if a_name in GATES_1Q else [(0, 1), (1, 0), (1, 2)]):
                for qb in ([(0,), (1,)] if b_name in GATES_1Q else [(0, 1), (1, 0), (0, 2), (2, 0)]):
                    a = Op(a_name, qa, rng.uniform(0.3, 2.8) if a_name.startswith("r") else None)
                    b = Op(b_name, qb, rng.uniform(0.3, 2.8) if b_name.startswith("r") else None)
                    truth = equal_up_to_phase(dense([a, b], 3), dense([b, a], 3))
                    if commute(a, b) and not truth:
                        wrong.append((a, b))
    expect(not wrong, f"every pair the rules commute commutes as matrices ({wrong[:2]})")


def test_pauli_form() -> None:
    rng = random.Random(2)
    disagree = undecided = 0
    for trial in range(300):
        n = rng.randint(2, 4)
        a = [random_op(rng, n, clifford=trial % 3 == 0) for _ in range(rng.randint(1, 14))]
        b = list(a)
        for _ in range(6):  # commuting swaps keep it equal
            i = rng.randrange(len(b) - 1) if len(b) > 1 else 0
            if len(b) > 1 and commute(b[i], b[i + 1]):
                b[i], b[i + 1] = b[i + 1], b[i]
        if trial % 2:  # corrupt: swap the operands of one two-qubit gate
            pairs = [i for i, op in enumerate(b) if op.name == "cx"]
            if pairs:
                i = rng.choice(pairs)
                b[i] = b[i]._replace(qubits=b[i].qubits[::-1])
        truth = equal_up_to_phase(dense(a, n), dense(b, n))
        verdict = pauli_form_equal(a, b, n)
        if verdict is None:
            undecided += 1
        elif verdict != truth:
            disagree += 1
    expect(disagree == 0, f"Pauli-form verdicts agree with dense ({undecided}/300 undecided)")


def compile_text(text: str, flags: list[str]) -> str:
    from qshallow import cli

    SCRATCH.mkdir(parents=True, exist_ok=True)
    src, out = SCRATCH / "in.qasm", SCRATCH / "out.qasm"
    src.write_text(text)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["compile", "--in", str(src), "--out", str(out), *flags])
    if rc != 0:
        raise RuntimeError(f"compile failed with {rc}")
    return out.read_text()


def corrupt_cx(out_text: str, inp_text: str) -> str:
    """Swap control and target of the first CX line the compile changed."""
    before = set(inp_text.splitlines())
    lines = out_text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("cx ") and line not in before:
            a, b = line[3:-1].split(",")
            lines[i] = f"cx {b},{a};"
            return "\n".join(lines) + "\n"
    raise AssertionError("no rewritten CX to corrupt")


def drop_feedforward(out_text: str, inp_text: str) -> str:
    """Delete the last conditioned X."""
    lines = out_text.splitlines()
    index = max(i for i, line in enumerate(lines) if line.startswith("if("))
    return "\n".join(lines[:index] + lines[index + 1:]) + "\n"


def test_checker_on_compiler_outputs() -> None:
    from qshallow import bench

    chains = ["--chains", "conservative"]
    cases = [
        ("cx chain n=8 (dense)", bench.gen_cx_chain(8), chains, "off", corrupt_cx),
        ("cx chain n=40 (Pauli form)", bench.gen_cx_chain(40), chains, "off", corrupt_cx),
        ("ghz n=40 robust (stabilizer state)", bench.gen_ghz_standard(40),
         ["--ghz", "robust"], "robust", corrupt_cx),
        ("ghz n=8 parallel (dense branches)", bench.gen_ghz_standard(8),
         ["--ghz", "parallel"], "parallel", drop_feedforward),
        ("ghz n=32 parallel (deferred measurement)", bench.gen_ghz_standard(32),
         ["--ghz", "parallel"], "parallel", drop_feedforward),
        ("ghz n=32 parallel (deferred measurement)", bench.gen_ghz_standard(32),
         ["--ghz", "parallel"], "parallel", corrupt_cx),
    ]
    for name, circuit, flags, ghz, corrupt in cases:
        text = qasm_text(circuit, list(range(circuit.num_qubits)))
        out = compile_text(text, flags)
        inp = read_qasm(text)
        good = check(inp, read_qasm(out), ghz)
        bad = check(inp, read_qasm(corrupt(out, text)), ghz)
        expect(good[0] == "pass", f"{name}: output passes {good}")
        expect(bad[0] == "fail", f"{name}: corrupted output fails {bad}")
    inp = read_qasm(qasm_text(bench.gen_cx_chain(6), list(range(6))))
    expect(check(inp, inp, "off") == ("pass", "identical"), "an unchanged output passes")
    expect(check(inp, read_qasm(qasm_text(bench.gen_cx_chain(6), [1, 0, 2, 3, 4, 5])), "off")[0]
           == "fail", "a relabelled (different) output fails")

    # A wide rotation circuit whose rewrite moved rotations through a changed
    # CX network: a corrupted copy is never passed.
    spec = bench.AnsatzSpec("two_local", 20, 2, "circular", 11)
    text = qasm_text(bench.gen_ansatz(spec), list(range(20)))
    out = compile_text(text, ["--chains", "conservative", "--min-chain-gates", "2"])
    inp = read_qasm(text)
    expect(check(inp, read_qasm(out), "off")[0] == "pass", "20-qubit ansatz output passes")
    verdict = check(inp, read_qasm(corrupt_cx(out, text)), "off")
    expect(verdict[0] != "pass", f"corrupted 20-qubit ansatz is not passed {verdict}")


def test_span_sums() -> None:
    from qshallow import bench, cli

    SCRATCH.mkdir(parents=True, exist_ok=True)
    src = SCRATCH / "traced.qasm"
    src.write_text(qasm_text(bench.gen_random(8, 150, seed=3), list(range(8))))
    tracer = Tracer()
    tracer.install()
    try:
        argv = ["compile", "--in", str(src), "--out", str(SCRATCH / "traced.out"),
                "--report", str(SCRATCH / "traced.json"), "--ghz", "parallel",
                "--chains", "conservative", "--min-chain-gates", "2", "--verify"]
        rc = tracer.call(cli.main, argv)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = self_times(spans)
    names = {s[0] for s in spans}
    nested = all(
        p < 0 or (spans[p][2] <= s and e <= spans[p][3]) for _, p, s, e, _ in spans
    )
    root = spans[0]
    expect(rc == 0 and {"parse", "emit", "validate", "depth_of", "ChainScanner.next",
                        "gate_and_apply", "verify"} <= names,
           f"traced compile records the layer spans ({len(spans)} spans)")
    expect(nested and min(own) >= 0, "child spans lie inside their parents")
    expect(sum(own) == root[3] - root[2], "self times add up to the root duration (ns)")


def test_depth_matches_cli() -> None:
    from qshallow import bench, cli

    circuits = [
        (bench.gen_ghz_standard(12), ["--ghz", "parallel"]),
        (bench.gen_ghz_standard(100), ["--ghz", "parallel"]),
        (bench.gen_random(10, 200, seed=5), ["--chains", "conservative", "--min-chain-gates", "2"]),
        (bench.gen_ansatz(bench.AnsatzSpec("two_local", 30, 3, "linear", 7)),
         ["--chains", "always"]),
    ]
    mismatches = []
    for circuit, flags in circuits:
        out = compile_text(qasm_text(circuit, list(range(circuit.num_qubits))), flags)
        path = SCRATCH / "depth.qasm"
        path.write_text(out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["depth", "--in", str(path)])
        if json.loads(buf.getvalue()) != circuit_stats(read_qasm(out)):
            mismatches.append(flags)
    expect(not mismatches, f"reader statistics equal `qshallow depth` ({mismatches})")


def test_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ghz_cascade", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"run.py without sources exits {proc.returncode} and prints no result")


def main() -> int:
    try:
        test_commutation()
        test_pauli_form()
        test_checker_on_compiler_outputs()
        test_span_sums()
        test_depth_matches_cli()
        test_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
