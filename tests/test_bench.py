"""Benchmark circuit generators."""
from __future__ import annotations

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
from qshallow.ir import Gate, cx, stats, validate
from qshallow.sim import branches, states_equal_up_to_phase
import numpy as np

from chain_detection import find_chains


class TestGhzStandard:
    def test_n3(self):
        report = stats(gen_ghz_standard(3))
        assert report.depth == 3 and report.gate_count == 3

    @pytest.mark.parametrize("n", [2, 5, 16, 40])
    def test_depth_is_n(self, n):
        assert stats(gen_ghz_standard(n)).depth == n

    def test_output_is_ghz_state(self):
        (branch,) = branches(gen_ghz_standard(4))
        target = np.zeros(16, dtype=complex)
        target[0] = target[-1] = 1 / np.sqrt(2)
        assert states_equal_up_to_phase(target, branch.state, 1e-9)


class TestChains:
    def test_forward_gates(self):
        assert gen_cx_chain(5).instructions == (cx(0, 1), cx(1, 2), cx(2, 3), cx(3, 4))

    def test_reverse_gates(self):
        assert gen_cx_chain(5, "reverse").instructions == (
            cx(4, 3), cx(3, 2), cx(2, 1), cx(1, 0),
        )

    def test_cz_depth(self):
        assert stats(gen_cz_chain(5)).depth == 4

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_plain_depth_equals_gate_count(self, n):
        for c in (gen_cx_chain(n), gen_cx_chain(n, "reverse"), gen_cz_chain(n)):
            report = stats(c)
            assert report.depth == report.gate_count == n - 1


class TestIntertwined:
    def test_counts(self):
        c = gen_intertwined(3, 6)
        assert c.num_qubits == 21
        assert len(c.instructions) == 18
        assert all(ins.gate is Gate.CX for ins in c.instructions)

    def test_scanner_finds_each_chain(self):
        assert len(find_chains(gen_intertwined(3, 6), 2)) == 3
        assert len(find_chains(gen_intertwined(4, 5), 2)) == 4

    def test_validates(self):
        assert validate(gen_intertwined(2, 3)) == []


class TestAnsatz:
    def test_real_amplitudes_counts(self):
        c = gen_ansatz(AnsatzSpec("real_amplitudes", 4, 1, "linear", 3))
        kinds = [ins.gate for ins in c.instructions]
        assert kinds.count(Gate.RY) == 8
        assert kinds.count(Gate.CX) == 3

    def test_efficient_su2_has_rz_layer(self):
        c = gen_ansatz(AnsatzSpec("efficient_su2", 3, 1, "linear", 3))
        kinds = [ins.gate for ins in c.instructions]
        assert kinds.count(Gate.RY) == 6 and kinds.count(Gate.RZ) == 6

    def test_determinism(self):
        spec = AnsatzSpec("two_local", 6, 2, "sca", 42)
        assert gen_ansatz(spec).instructions == gen_ansatz(spec).instructions

    def test_seed_changes_angles(self):
        a = gen_ansatz(AnsatzSpec("two_local", 4, 1, "linear", 1))
        b = gen_ansatz(AnsatzSpec("two_local", 4, 1, "linear", 2))
        assert a.instructions != b.instructions

    def test_circular_adds_wrap_gate(self):
        c = gen_ansatz(AnsatzSpec("two_local", 5, 1, "circular", 3))
        assert cx(4, 0) in c.instructions

    def test_full_entanglement_count(self):
        c = gen_ansatz(AnsatzSpec("two_local", 5, 1, "full", 3))
        kinds = [ins.gate for ins in c.instructions]
        assert kinds.count(Gate.CX) == 10

    def test_sca_alternates_direction(self):
        c = gen_ansatz(AnsatzSpec("two_local", 4, 2, "sca", 3))
        pairs = [ins.qubits for ins in c.instructions if ins.gate is Gate.CX]
        first_rep, second_rep = pairs[:4], pairs[4:]
        assert {(a, b) for a, b in first_rep} == {(b, a) for a, b in second_rep}

    def test_reverse_linear_is_descending(self):
        c = gen_ansatz(AnsatzSpec("two_local", 4, 1, "reverse_linear", 3))
        pairs = [ins.qubits for ins in c.instructions if ins.gate is Gate.CX]
        assert pairs == [(3, 2), (2, 1), (1, 0)]

    def test_all_valid(self):
        for family in ("efficient_su2", "real_amplitudes", "two_local"):
            for ent in ("linear", "reverse_linear", "circular", "sca", "full"):
                c = gen_ansatz(AnsatzSpec(family, 5, 2, ent, 9))
                assert validate(c) == []

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            gen_ansatz(AnsatzSpec("uccsd", 4, 1, "linear", 3))


class TestRandom:
    def test_determinism_and_validity(self):
        a = gen_random(6, 100, seed=3)
        b = gen_random(6, 100, seed=3)
        assert a.instructions == b.instructions
        assert validate(a) == []
        assert len(a.instructions) == 100

    def test_gate_mix(self):
        c = gen_random(8, 300, seed=1)
        kinds = {ins.gate for ins in c.instructions}
        assert kinds == {Gate.H, Gate.RX, Gate.RY, Gate.RZ, Gate.CX, Gate.CZ}
