"""Command-line interface: compile, depth, bench."""
from __future__ import annotations

import csv
import json

import pytest

from qshallow.bench import gen_cx_chain, gen_ghz_standard
from qshallow.cli import main
from qshallow.qasm import emit, parse
from qshallow.ir import stats


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


def test_fast_chain_mode_is_a_usage_error(tmp_path, ghz16):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--in", str(ghz16), "--out", str(tmp_path / "x.qasm"),
              "--chains", "fast"])
    assert exc.value.code == 2
    assert not (tmp_path / "x.qasm").exists()


def test_compile_missing_file_exit_3(tmp_path):
    rc = main([
        "compile", "--in", str(tmp_path / "nope.qasm"), "--out", str(tmp_path / "x.qasm"),
    ])
    assert rc == 3


def test_compile_verification_failure_exit_2(tmp_path, monkeypatch):
    from qshallow import pipeline
    from qshallow.ir import cz

    def wrong(candidate, cz_to_cx):
        return [cz(candidate.qubit_seq[0], candidate.qubit_seq[1])]

    monkeypatch.setattr(pipeline, "_replacement_for", wrong)
    src = tmp_path / "chain8.qasm"
    src.write_text(emit(gen_cx_chain(8)))
    rc = main([
        "compile", "--in", str(src), "--out", str(tmp_path / "x.qasm"),
        "--chains", "always", "--verify", "--min-chain-gates", "2",
    ])
    assert rc == 2


def test_compile_pass_order_flag(tmp_path, ghz16):
    out = tmp_path / "out.qasm"
    rc = main([
        "compile", "--in", str(ghz16), "--out", str(out),
        "--chains", "conservative", "--passes", "chains,ghz",
    ])
    assert rc == 0
    assert stats(parse(out.read_text())).depth < 16


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
