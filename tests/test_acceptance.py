"""Acceptance suite: one test per headline claim, with a PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""
from __future__ import annotations

import math
import time
import tracemalloc

import pytest

from qshallow.bench import (
    AnsatzSpec,
    gen_ansatz,
    gen_cx_chain,
    gen_cz_chain,
    gen_ghz_standard,
    gen_intertwined,
    gen_random,
)
from qshallow.chains import (
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
)
from qshallow.ghz import GhzMode
from qshallow.ir import Circuit, cx, depth, rz, ry, stats
from qshallow.pipeline import ChainMode, PassConfig, compile_circuit, gate_and_apply
from qshallow.sim import equivalent_on_zero, equivalent_unitary

from chain_detection import find_chains

TOL = 1e-9
SIZES = (4, 8, 16, 32, 64)


def _ok(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {message}")


def _rebuilt(c: Circuit, mode: GhzMode) -> Circuit:
    """The GHZ pass alone, ungated: with chains off every site is rebuilt."""
    return compile_circuit(c, PassConfig(ghz_mode=mode, chain_mode=ChainMode.OFF)).circuit


def _ghz_variants(n: int) -> dict[str, Circuit]:
    std = gen_ghz_standard(n)
    return {
        "standard": std,
        "robust": _rebuilt(std, GhzMode.ROBUST),
        "parallel": _rebuilt(std, GhzMode.PARALLEL),
    }


def test_criterion_01_ghz_depth_scaling():
    parallel_depths = set()
    for n in SIZES:
        variants = _ghz_variants(n)
        assert stats(variants["standard"]).depth == n
        assert stats(variants["robust"]).depth == 1 + math.ceil(math.log2(n))
        parallel_depths.add(stats(variants["parallel"]).depth)
    assert len(parallel_depths) == 1
    assert parallel_depths.pop() <= 6
    _ok(1, "GHZ depth: standard linear, robust 1+ceil(log2 n), parallel constant <= 6")


def test_criterion_02_ghz_gate_and_measurement_scaling():
    for n in range(2, 65):
        variants = _ghz_variants(n)
        for name, c in variants.items():
            report = stats(c)
            assert report.gate_count / n <= 4, (name, n, report)
            if name == "parallel" and n >= 3:
                assert report.measure_count == n // 2
            else:
                assert report.measure_count == 0
    _ok(2, "GHZ gate count <= 4n for every variant; measurements 0 / 0 / floor(n/2)")


def test_criterion_03_ghz_correctness():
    for n in range(2, 13):
        std = gen_ghz_standard(n)
        robust = _rebuilt(std, GhzMode.ROBUST)
        assert equivalent_on_zero(std, robust, tol=TOL), n
    for n in range(3, 12):
        std = gen_ghz_standard(n)
        parallel = _rebuilt(std, GhzMode.PARALLEL)
        assert equivalent_on_zero(std, parallel, tol=TOL), n
    _ok(3, "GHZ rewrites equivalent from |0..0>: robust n=2..12, parallel n=3..11 all branches")


def test_criterion_04_cx_chain_equivalence():
    for n in range(2, 12):
        forward = gen_cx_chain(n)
        assert equivalent_unitary(
            forward, Circuit(n, 0, tuple(decompose_forward(range(n)))), tol=TOL
        ), n
        reverse = gen_cx_chain(n, "reverse")
        assert equivalent_unitary(
            reverse, Circuit(n, 0, tuple(decompose_forward(range(n - 1, -1, -1)))), tol=TOL
        ), n
    _ok(4, "CX chain decompositions unitary-equal to plain chains for 2..11 qubits")


def test_criterion_05_cx_chain_scaling():
    def dec_depth(g: int) -> int:
        return stats(Circuit(g, 0, tuple(decompose_forward(range(g))))).depth

    for g in SIZES[1:]:  # 8, 16, 32, 64
        assert len(decompose_forward(range(g))) <= 2 * (g - 1)
    assert dec_depth(16) <= dec_depth(8) + 3
    assert dec_depth(32) <= dec_depth(16) + 3
    assert dec_depth(64) <= dec_depth(32) + 3
    assert dec_depth(64) <= 16
    assert stats(gen_cx_chain(64)).depth == 63
    _ok(5, "CX decomposition: gates <= 2(g-1), depth(2g) <= depth(g)+3, depth(64) <= 16 vs 63")


def test_criterion_06_cz_chain():
    for n in range(3, 65):
        assert stats(Circuit(n, 0, tuple(decompose_cz(range(n))))).depth == 2, n
    for n in range(3, 12):
        plain = gen_cz_chain(n)
        assert equivalent_unitary(plain, Circuit(n, 0, tuple(decompose_cz(range(n)))), tol=TOL)
        lowered = Circuit(n, 0, tuple(decompose_cz_to_cx(range(n))))
        assert stats(lowered).depth == 4
        assert equivalent_unitary(plain, lowered, tol=TOL)
    for n in range(12, 65):
        assert stats(Circuit(n, 0, tuple(decompose_cz_to_cx(range(n))))).depth == 4, n
    _ok(6, "CZ chains: two layers exactly for 3..64; CX lowering depth 4; both unitary-equal <= 11")


def _random_corpus():
    for seed in range(500):
        n = 4 + seed % 9                 # 4..12 qubits
        m = 20 + (seed * 37) % 181       # 20..200 instructions
        yield gen_random(n, m, seed=seed)


def _bench_corpus():
    for n in SIZES:
        yield gen_ghz_standard(n)
        yield gen_cx_chain(n)
        yield gen_cx_chain(n, "reverse")
        yield gen_cz_chain(n)
    for shape in ((2, 4), (3, 6), (3, 8)):
        yield gen_intertwined(*shape)
    for family in ("efficient_su2", "real_amplitudes", "two_local"):
        for ent in ("linear", "reverse_linear", "circular", "sca", "full"):
            for reps in (1, 2, 3):
                for n in (5, 10, 20):
                    yield gen_ansatz(AnsatzSpec(family, n, reps, ent, seed=11))


def test_criterion_07_never_degrade():
    config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
    checked = degraded = verified = 0
    for c in _random_corpus():
        out, _, _ = gate_and_apply(c, config)
        checked += 1
        if depth(out) > depth(c):
            degraded += 1
        # Unchanged outputs are identical instruction lists; only rewritten
        # circuits need the oracle.
        if c.num_qubits <= 10 and out.instructions != c.instructions:
            assert equivalent_unitary(c, out, tol=TOL)
            verified += 1
    for c in _bench_corpus():
        out, _, _ = gate_and_apply(c, config)
        checked += 1
        if depth(out) > depth(c):
            degraded += 1
        if c.num_qubits <= 10 and out.instructions != c.instructions:
            assert equivalent_unitary(c, out, tol=TOL)
            verified += 1
    assert degraded == 0, f"{degraded}/{checked} degraded"
    _ok(7, f"conservative never degrades depth ({checked} circuits, "
           f"{verified} rewrites oracle-verified)")


def test_criterion_08_always_mode_contrast():
    # Corpus circuit on which unconditional application hurts: a short VQE
    # ansatz whose repeated layers already pipeline.
    c = gen_ansatz(AnsatzSpec("two_local", 6, 2, "linear", 7))
    always, _, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.ALWAYS))
    assert stats(always).depth > stats(c).depth
    assert equivalent_unitary(c, always, tol=TOL)
    conservative, _, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
    assert conservative.instructions == c.instructions

    # Same story for CZ chains lowered to CX form: constant depth 4 exceeds a
    # short chain's native depth.
    cz_chain = gen_cz_chain(4)
    cfg = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=3, cz_to_cx=True)
    lowered, _, _ = gate_and_apply(cz_chain, cfg)
    assert stats(lowered).depth > stats(cz_chain).depth
    assert equivalent_unitary(cz_chain, lowered, tol=TOL)
    conservative_cz, _, _ = gate_and_apply(
        cz_chain,
        PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=3, cz_to_cx=True),
    )
    assert conservative_cz.instructions == cz_chain.instructions
    _ok(8, "always mode can increase depth (VQE reps=2, short CZ lowering); "
           "conservative leaves both unchanged")


def test_criterion_09_detection_robustness():
    chain6 = [cx(0, 1), cx(1, 2), rz(2, 0.7), cx(2, 3), cx(3, 4), cx(4, 5), cx(5, 6)]
    found = find_chains(Circuit(7, 0, tuple(chain6)), 2)
    assert len(found) == 1
    assert len(found[0].gate_indices) == 6

    with_ry = list(chain6)
    with_ry[2] = ry(2, 0.7)
    found_ry = find_chains(Circuit(7, 0, tuple(with_ry)), 2)
    assert all(len(c.gate_indices) < 6 for c in found_ry)

    assert len(find_chains(gen_intertwined(3, 6), 2)) == 3
    _ok(9, "RZ on a control rides through (one 6-gate chain), RY breaks; "
           "intertwined circuit yields exactly 3 chains")


def test_criterion_10_vqe_behavior():
    config = PassConfig(chain_mode=ChainMode.CONSERVATIVE)
    ns = range(5, 96, 10)
    series: dict[int, dict[int, int]] = {}
    for reps in (1, 2, 3):
        series[reps] = {}
        for n in ns:
            c = gen_ansatz(AnsatzSpec("two_local", n, reps, "linear", 7))
            out, _, _ = gate_and_apply(c, config)
            series[reps][n] = depth(c) - depth(out)
    for reps, values in series.items():
        assert all(v >= 0 for v in values.values()), (reps, values)
    # Threshold behavior: flat at zero for small n, positive afterwards.
    assert series[1][5] == 0
    assert all(series[1][n] > 0 for n in ns if n >= 15)
    # Gains diminish with repetitions: repeated layers already pipeline.
    assert sum(series[3].values()) < sum(series[1].values())
    assert series[3][95] < series[1][95]
    _ok(10, f"VQE conservative: no negative relative depth; reps=1 passes a "
            f"threshold (0 at n=5, {series[1][95]} at n=95); reps=3 gains "
            f"{sum(series[3].values())} < reps=1 gains {sum(series[1].values())}")


def test_criterion_11_scale_and_memory():
    # Compile-time claims from the original study are hardware-bound and are
    # deliberately not reproduced; this asserts asymptotic sanity instead.
    spec = AnsatzSpec("two_local", 2000, 26, "linear", 7)
    big = gen_ansatz(spec)
    assert len(big.instructions) >= 100_000
    config = PassConfig(chain_mode=ChainMode.CONSERVATIVE)
    start = time.perf_counter()
    out, decisions, _ = gate_and_apply(big, config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"compile took {elapsed:.1f}s"
    assert depth(out) <= depth(big)
    assert len(decisions) == 26

    def peak_compile(n_qubits: int) -> int:
        c = gen_ansatz(AnsatzSpec("two_local", n_qubits, 26, "linear", 7))
        tracemalloc.start()
        gate_and_apply(c, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_small = peak_compile(500)   # ~26k instructions
    peak_large = peak_compile(1000)  # ~53k instructions
    assert peak_large <= 4 * peak_small, (peak_small, peak_large)
    _ok(11, f"conservative compile of {len(big.instructions)} instructions in "
            f"{elapsed:.1f}s; doubling size grew peak memory "
            f"{peak_large / peak_small:.2f}x (<= 4x allowed)")
