"""Command-line interface: compile, depth, bench."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qshallow
from qshallow.bench import AnsatzSpec, gen_ansatz, gen_cx_chain, gen_ghz_standard
from qshallow.cli import _indented, _report, main
from qshallow.ghz import GhzMode
from qshallow.pipeline import PassConfig, compile_circuit
from qshallow.qasm import emit, parse
from qshallow.ir import Circuit, Condition, Gate, Instruction, measure, stats


@pytest.fixture
def ghz16(tmp_path):
    path = tmp_path / "ghz16.qasm"
    path.write_text(emit(gen_ghz_standard(16)))
    return path


def test_compile_ghz_robust_report(tmp_path, ghz16):
    out = tmp_path / "out.qasm"
    report_path = tmp_path / "report.json"
    rc = main([
        "compile", "--in", str(ghz16), "--out", str(out),
        "--ghz", "robust", "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["relative_depth"] == 11
    assert report["input_stats"]["depth"] == 16
    assert report["output_stats"]["depth"] == 5
    assert report["ghz_sites_found"] == 1
    assert report["ghz_sites_replaced"] == 1
    compiled = parse(out.read_text())
    assert stats(compiled).depth == 5


def test_compile_report_is_indented_json_with_one_newline(tmp_path, ghz16):
    report_path = tmp_path / "report.json"
    rc = main([
        "compile", "--in", str(ghz16), "--out", str(tmp_path / "out.qasm"),
        "--ghz", "parallel", "--verify", "--report", str(report_path),
    ])
    assert rc == 0
    text = report_path.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_compile_chain_conservative(tmp_path):
    src = tmp_path / "chain.qasm"
    src.write_text(emit(gen_cx_chain(16)))
    out = tmp_path / "out.qasm"
    report_path = tmp_path / "report.json"
    rc = main([
        "compile", "--in", str(src), "--out", str(out),
        "--chains", "conservative", "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["relative_depth"] > 0
    assert report["chains_found"] == 1
    assert report["chains_applied"] == 1
    assert report["decisions"][0]["applied"] is True


def _verify_report(tmp_path, circuit: Circuit, *flags: str) -> dict:
    src, report = tmp_path / "in.qasm", tmp_path / "report.json"
    src.write_text(emit(circuit))
    argv = ["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
            "--report", str(report), "--min-chain-gates", "2", *flags]
    assert main(argv) == 0
    return json.loads(report.read_text())


def test_report_verification_coverage(tmp_path):
    ghz, chain = gen_ghz_standard(16), gen_cx_chain(40)
    both = Circuit(56, 0, (*ghz.instructions,
                           *(Instruction(op.gate, tuple(q + 16 for q in op.qubits))
                             for op in chain.instructions)))
    report = _verify_report(tmp_path, both, "--ghz", "parallel", "--chains", "always",
                            "--verify")
    assert report["ghz_sites_replaced"] == 1 and report["chains_applied"] == 1
    assert report["verification"] == {"checked": 2, "skipped": {}}
    assert report["verified"] is True
    report = _verify_report(tmp_path, both, "--ghz", "parallel", "--chains", "always")
    assert report["verification"] is None and report["verified"] is False


@pytest.mark.parametrize("n", [3, 8, 16, 64])
@pytest.mark.parametrize("ghz", ["parallel", "robust"])
def test_report_states_the_emitted_depth(tmp_path, ghz, n):
    # The file writes a k-bit parity correction as k single-bit ifs, so a
    # parallel block reads deeper there than in memory: the report's
    # emitted_depth is the file's depth.  A file no deeper states none.
    report = _verify_report(tmp_path, gen_ghz_standard(n), "--ghz", ghz,
                            "--chains", "conservative")
    emitted = stats(parse((tmp_path / "out.qasm").read_text())).depth
    if ghz == "parallel" and n > 3:
        assert report["emitted_depth"] == emitted > report["output_stats"]["depth"] == 6
    else:
        assert "emitted_depth" not in report
        assert report["output_stats"]["depth"] == emitted


def test_report_counts_skipped_windows(tmp_path):
    chain = gen_cx_chain(9).instructions
    c = Circuit(10, 1, (measure(9, 0), *chain[:4],
                        Instruction(Gate.H, (9,), condition=Condition((0,))), *chain[4:]))
    report = _verify_report(tmp_path, c, "--chains", "always", "--verify")
    assert report["chains_applied"] == 1
    assert report["verification"] == {"checked": 0, "skipped": {"conditioned h": 1}}
    assert report["verified"] is False


def test_cli_import_loads_no_numpy():
    code = "import sys, qshallow.cli; print('numpy' in sys.modules)"
    src = str(Path(qshallow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_main_builds_one_parser_per_process(tmp_path, ghz16, monkeypatch):
    # Importing the CLI builds no parser; the first call builds one, which
    # every later call, usage errors included, parses with.
    code = "import qshallow.cli as c; print(c._parser.cache_info().currsize)"
    src = str(Path(qshallow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"

    from qshallow import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["depth", "--in", str(ghz16)]) == 0
        with pytest.raises(SystemExit):
            main(["compile", "--in", str(ghz16), "--out", "x.qasm", "--chains", "fast"])
        assert builds == [1]
    finally:
        cli._parser.cache_clear()


def test_compile_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nt q[0];\n")
    rc = main(["compile", "--in", str(bad), "--out", str(tmp_path / "x.qasm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "column 1" in err


def _read_with(command, infile, tmp_path):
    """Run `compile` (output to tmp_path/x.qasm) or `depth` on infile."""
    argv = [command, "--in", str(infile)]
    if command == "compile":
        argv += ["--out", str(tmp_path / "x.qasm")]
    return main(argv)


@pytest.mark.parametrize("angle, fragment", [
    ("pi/0", "division by zero"),
    ("2*pi/0", "division by zero"),
    ("1e999", "not finite"),
])
@pytest.mark.parametrize("command", ["compile", "depth"])
def test_bad_angle_exit_1(tmp_path, capsys, command, angle, fragment):
    bad = tmp_path / "bad.qasm"
    bad.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrx({angle}) q[0];\n")
    assert _read_with(command, bad, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3, column ") and fragment in err


@pytest.mark.parametrize("command", ["compile", "depth"])
def test_non_utf8_input_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "utf16.qasm"
    bad.write_bytes(b"\xff\xfeO\x00P\x00")
    assert _read_with(command, bad, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "utf-8" in err
    assert not (tmp_path / "x.qasm").exists()


@pytest.mark.parametrize("body", [
    "qreg q[1];\nh q[{huge}];\n",
    "qreg q[{huge}];\n",
    "qreg q[1];\ncreg c[{huge}];\n",
], ids=["index", "qreg", "creg"])
@pytest.mark.parametrize("command", ["compile", "depth"])
def test_huge_integer_literal_exit_1(tmp_path, capsys, command, body):
    bad = tmp_path / "huge.qasm"
    bad.write_text("OPENQASM 2.0;\n" + body.format(huge="1" * 5000))
    assert _read_with(command, bad, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "5000 digits is too long" in err
    assert not (tmp_path / "x.qasm").exists()


def test_compile_validates_once(tmp_path, monkeypatch):
    # GHZ off and no rewrite applied: the parsed circuit is the only one built.
    from qshallow import ir

    src = tmp_path / "in.qasm"
    src.write_text(emit(gen_cx_chain(5)))
    calls = []
    validate = ir.validate
    monkeypatch.setattr(ir, "validate", lambda c: calls.append(c) or validate(c))
    rc = main(["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
               "--report", str(tmp_path / "r.json"), "--chains", "conservative",
               "--min-chain-gates", "2"])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["chains_found"] == 1 and report["chains_applied"] == 0
    assert len(calls) == 1


def test_report_of_unchanged_compile_schedules_once(tmp_path, monkeypatch):
    # A 4-gate chain the conservative gate rejects: the output is the input,
    # so the report reuses the input's stats instead of scheduling it again.
    # The window gate's schedules go through pipeline's own name and are
    # not counted here.
    from qshallow import ir

    src = tmp_path / "in.qasm"
    src.write_text(emit(gen_cx_chain(5)))
    calls = []
    depth_of = ir.depth_of
    monkeypatch.setattr(ir, "depth_of", lambda ins: calls.append(len(ins)) or depth_of(ins))
    rc = main(["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
               "--report", str(tmp_path / "r.json"), "--chains", "conservative",
               "--min-chain-gates", "2"])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["chains_applied"] == 0
    assert report["output_stats"] == report["input_stats"]
    assert calls == [4]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json_values)
def test_report_writer_matches_json_dumps(value):
    assert _indented(value) == json.dumps(value, indent=2)


def test_report_writer_matches_json_dumps_on_reports(tmp_path, ghz16):
    # Decisions with qubit lists, a verification dict with skip reasons.
    circuit = parse(ghz16.read_text())
    config = PassConfig(ghz_mode=GhzMode.PARALLEL, min_chain_gates=2, verify=True)
    report = _report(circuit, compile_circuit(circuit, config))
    assert report["decisions"] and report["verification"]
    assert _indented(report) == json.dumps(report, indent=2)
    report["verification"]["skipped"] = {"conditioned h": 2, "é\n": 1}
    assert _indented(report) == json.dumps(report, indent=2)


def test_ladder_compile_schedules_the_whole_list_twice(tmp_path, monkeypatch):
    # The depth index sweeps the list back once for its tails and learns
    # its layers forward once; the report reads both depths off the index
    # instead of a third schedule.  Window schedules are not whole-list.
    from qshallow import ir

    c = gen_ansatz(AnsatzSpec("two_local", 128, 4, "linear", 7))
    n = len(c)
    src = tmp_path / "in.qasm"
    src.write_text(emit(c))
    passes = []
    sweep_back, learn, depth_of = ir._sweep_back, ir.DepthIndex._learn, ir.depth_of

    def counting_sweep(ops, *args):
        passes.append(len(ops) == n)
        return sweep_back(ops, *args)

    def counting_learn(self, ins, upto):
        passes.append(max(0, upto - self._known) / n)
        return learn(self, ins, upto)

    def counting_depth_of(ins, *args):
        passes.append(len(ins) == n)
        return depth_of(ins, *args)

    monkeypatch.setattr(ir, "_sweep_back", counting_sweep)
    monkeypatch.setattr(ir.DepthIndex, "_learn", counting_learn)
    monkeypatch.setattr(ir, "depth_of", counting_depth_of)
    rc = main(["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
               "--report", str(tmp_path / "r.json"), "--chains", "conservative"])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["chains_found"] == 4 and report["chains_applied"] == 0
    assert 1.8 < sum(passes) <= 2, passes
    monkeypatch.undo()
    assert report["input_stats"] == stats(c).as_dict()
    assert report["output_stats"] == stats(parse((tmp_path / "out.qasm").read_text())).as_dict()


@pytest.mark.parametrize("chains", ["conservative", "always"])
def test_huge_register_compiles_like_chains_off(tmp_path, chains):
    # The chain scanner indexes only the qubits the gates use.
    src = tmp_path / "huge.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[99999999999999999999];\n"
                   "cx q[0],q[1];\ncx q[1],q[2];\n")
    outputs = []
    for mode in (chains, "off"):
        out = tmp_path / f"{mode}.qasm"
        argv = ["compile", "--in", str(src), "--out", str(out), "--chains", mode,
                "--min-chain-gates", "2", "--report", str(tmp_path / f"{mode}.json")]
        assert main(argv) == 0
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]
    assert json.loads((tmp_path / f"{chains}.json").read_text())["chains_found"] == 1


def test_huge_classical_register_emits_one_register(tmp_path):
    # No condition reads its bits, so the 3,000,000 bits stay one register.
    src = tmp_path / "huge.qasm"
    src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
                   "creg c[3000000];\nh q[0];\n")
    out = tmp_path / "out.qasm"
    assert main(["compile", "--in", str(src), "--out", str(out)]) == 0
    assert out.stat().st_size < 1024
    assert parse(out.read_text()).num_clbits == 3_000_000


def test_compile_reaches_the_traced_functions(tmp_path, monkeypatch):
    # An external span recorder times a compile by replacing these module
    # attributes, so the pipeline must look each one up there.
    from qshallow import chains, ghz, pipeline

    targets = [
        (ghz, "detect_ghz"),
        (chains.ChainScanner, "next"),
        (chains.ChainScanner, "accept"),
        (pipeline, "gate_and_apply"),
        (pipeline, "depth_of"),
        (pipeline, "paths_of"),
        (pipeline, "decompose_forward"),
    ]
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        def counting(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    # A GHZ site, then a 16-gate CX chain the conservative gate applies.
    body = [Instruction(Gate.H, (0,)), Instruction(Gate.CX, (0, 1))]
    body += [Instruction(Gate.CX, (q, q + 1)) for q in range(2, 18)]
    src = tmp_path / "in.qasm"
    src.write_text(emit(Circuit(19, 0, tuple(body))))
    report = tmp_path / "r.json"
    rc = main(["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
               "--ghz", "robust", "--chains", "conservative", "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["chains_applied"] == 1
    assert all(calls.values()), calls


@pytest.mark.parametrize(
    "circuit, flags",
    [
        (gen_ghz_standard(16), ["--ghz", "parallel", "--chains", "conservative", "--verify"]),
        (gen_ansatz(AnsatzSpec("two_local", 8, 2, "circular", 3)),
         ["--chains", "conservative", "--min-chain-gates", "2"]),
    ],
    ids=["ghz_parallel_verify", "chains"],
)
def test_compile_hashes_no_gate(tmp_path, monkeypatch, circuit, flags):
    # Every gate fact is a member attribute: a compile, its report and its
    # output look no `Gate` up in a set or a dict.
    hashed = []
    enum_hash = Enum.__hash__

    def counting(self):
        if type(self) is Gate:
            hashed.append(self)
        return enum_hash(self)

    monkeypatch.setattr(Enum, "__hash__", counting)
    hash(Gate.CX)
    assert hashed == [Gate.CX]  # the wrapper sees Gate's hashes
    hashed.clear()
    src = tmp_path / "in.qasm"
    src.write_text(emit(circuit))
    report = tmp_path / "r.json"
    rc = main(["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"),
               "--report", str(report), *flags])
    assert rc == 0
    decisions = json.loads(report.read_text())["decisions"]
    assert any(d["applied"] for d in decisions)
    assert hashed == []


def test_fast_chain_mode_is_a_usage_error(tmp_path, ghz16):
    # Usage errors exit 1, as parse errors do: 2 means a verification failure.
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--in", str(ghz16), "--out", str(tmp_path / "x.qasm"),
              "--chains", "fast"])
    assert exc.value.code == 1
    assert not (tmp_path / "x.qasm").exists()


@pytest.mark.parametrize("argv", [
    ["compile", "--out", "x.qasm"],
    ["compile", "--in", "x.qasm", "--out", "y.qasm", "--passes", "ghz"],
    ["compile", "--in", "x.qasm", "--out", "y.qasm", "--depth-scope", "5"],
    ["bench", "--suite", "chains", "--n-range", "8:9:1", "--depth-scope", "5"],
    [],
], ids=["missing-in", "passes-gone", "depth-scope-gone", "bench-depth-scope-gone", "no-command"])
def test_usage_error_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compile", "--in", "IN", "--out", "OUT"],
    ["bench", "--suite", "chains", "--n-range", "8:9:1"],
])
def test_invalid_min_chain_gates_exit_1(tmp_path, capsys, command, ghz16):
    argv = [str(ghz16) if a == "IN" else str(tmp_path / "x.qasm") if a == "OUT" else a
            for a in command]
    assert main([*argv, "--min-chain-gates", "1"]) == 1
    assert "min_chain_gates" in capsys.readouterr().err


def test_compile_missing_file_exit_3(tmp_path):
    rc = main([
        "compile", "--in", str(tmp_path / "nope.qasm"), "--out", str(tmp_path / "x.qasm"),
    ])
    assert rc == 3


def test_compile_verification_failure_exit_2(tmp_path, monkeypatch):
    from qshallow import pipeline
    from qshallow.ir import cz

    def wrong(candidate, config, clbit=0):
        return [cz(candidate.qubit_seq[0], candidate.qubit_seq[1])]

    monkeypatch.setattr(pipeline, "_replacement_for", wrong)
    src = tmp_path / "chain8.qasm"
    src.write_text(emit(gen_cx_chain(8)))
    rc = main([
        "compile", "--in", str(src), "--out", str(tmp_path / "x.qasm"),
        "--chains", "always", "--verify", "--min-chain-gates", "2",
    ])
    assert rc == 2


def test_depth_command(tmp_path, capsys):
    src = tmp_path / "ghz4.qasm"
    src.write_text(emit(gen_ghz_standard(4)))
    rc = main(["depth", "--in", str(src)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "depth": 4, "gate_count": 4, "two_qubit_count": 3, "measure_count": 0,
    }


def test_depth_empty_body(tmp_path, capsys):
    src = tmp_path / "empty.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[3];\n")
    rc = main(["depth", "--in", str(src)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload.values()) == {0}


def test_depth_chain9(tmp_path, capsys):
    src = tmp_path / "chain.qasm"
    src.write_text(emit(gen_cx_chain(9)))
    main(["depth", "--in", str(src)])
    assert json.loads(capsys.readouterr().out)["depth"] == 8


def _read_rows(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# qshallow")
    assert "rng=numpy-pcg64" in lines[0]
    return list(csv.DictReader(lines[1:]))


def test_bench_ghz_suite(capsys):
    rc = main(["bench", "--suite", "ghz", "--n-range", "5:66:5"])
    assert rc == 0
    rows = _read_rows(capsys.readouterr().out)
    std = {int(r["n"]): int(r["depth_after"]) for r in rows if r["variant"] == "standard"}
    robust = {int(r["n"]): int(r["depth_after"]) for r in rows if r["variant"] == "robust"}
    par = {int(r["n"]): int(r["depth_after"]) for r in rows if r["variant"] == "parallel"}
    meas = {int(r["n"]): int(r["measures_after"]) for r in rows if r["variant"] == "parallel"}
    ns = sorted(std)
    assert ns == list(range(5, 66, 5))
    assert all(std[n] == n for n in ns)                      # linear
    assert all(robust[a] >= robust[b] for a, b in zip(ns[1:], ns))  # monotone-ish? no:
    assert all(robust[n] <= robust[m] for n, m in zip(ns, ns[1:]))  # non-decreasing
    assert len(set(par.values())) == 1                       # constant
    assert all(meas[n] == n // 2 for n in ns)                # linear measurements


def test_bench_chains_suite(tmp_path):
    out = tmp_path / "chains.csv"
    rc = main(["bench", "--suite", "chains", "--n-range", "8:65:8", "--csv", str(out)])
    assert rc == 0
    rows = _read_rows(out.read_text())
    fwd = {int(r["n"]): r for r in rows if r["variant"] == "forward"}
    ratios = [
        int(fwd[n]["depth_after"]) / int(fwd[n]["depth_before"]) for n in sorted(fwd)
    ]
    assert ratios[-1] < ratios[0]  # ratio falls as n grows
    assert all(int(r["relative_depth"]) >= 0 for r in rows)


def test_bench_vqe_suite(capsys):
    rc = main([
        "bench", "--suite", "vqe", "--n-range", "5:46:10",
        "--reps", "1", "--family", "two_local", "--entanglement", "linear",
    ])
    assert rc == 0
    rows = _read_rows(capsys.readouterr().out)
    assert all(int(r["relative_depth"]) >= 0 for r in rows)
    by_n = {int(r["n"]): int(r["relative_depth"]) for r in rows}
    assert by_n[5] == 0 and by_n[45] > 0


def test_bench_invalid_range(capsys):
    rc = main(["bench", "--suite", "ghz", "--n-range", "10:5:1"])
    assert rc == 1
    assert "invalid range" in capsys.readouterr().err


def test_bench_deterministic(capsys):
    argv = ["bench", "--suite", "vqe", "--n-range", "5:16:5", "--reps", "1,2", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
