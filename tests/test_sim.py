"""Statevector oracle: unitaries, branches, equivalence checks."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qshallow.ir import Circuit, Condition, cx, cz, h, measure, rx, ry, rz, x, y, z
from qshallow.sim import (
    branches,
    equivalent_on_zero,
    equivalent_unitary,
    gate_matrix,
    states_equal_up_to_phase,
    unitary,
)
from qshallow.ir import Gate


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


class TestUnitary:
    def test_cx_truth_table(self):
        u = unitary(circ(2, cx(0, 1)))
        # |q1 q0> = |01> (index 1, control set) maps to |11> (index 3).
        assert abs(u[3, 1] - 1) < 1e-12
        assert abs(u[1, 3] - 1) < 1e-12
        assert abs(u[0, 0] - 1) < 1e-12 and abs(u[2, 2] - 1) < 1e-12

    def test_hh_is_identity(self):
        u = unitary(circ(1, h(0), h(0)))
        assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_chain_reordering_identity(self):
        # [CX(0,1), CX(1,2)] == [CX(1,2), CX(0,2), CX(0,1)] as unitaries.
        a = circ(3, cx(0, 1), cx(1, 2))
        b = circ(3, cx(1, 2), cx(0, 2), cx(0, 1))
        assert np.allclose(unitary(a), unitary(b), atol=1e-12)

    def test_unitarity(self):
        c = circ(3, h(0), rx(1, 0.7), cx(0, 2), cz(1, 2), ry(0, 1.1), rz(2, 2.2))
        u = unitary(c)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-9

    def test_rz_2pi_is_minus_identity(self):
        u = unitary(circ(1, rz(0, 2 * math.pi)))
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_measure_rejected(self):
        with pytest.raises(ValueError, match="measurement-free"):
            unitary(circ(1, measure(0, 0), clbits=1))

    def test_condition_rejected(self):
        with pytest.raises(ValueError, match="condition-free"):
            unitary(circ(1, x(0, condition=Condition((0,))), clbits=1))

    def test_too_many_qubits(self):
        with pytest.raises(ValueError, match="too many"):
            unitary(Circuit(13, 0, ()))

    def test_gate_matrix_conventions(self):
        rz_mat = gate_matrix(Gate.RZ, 1.3)
        assert np.allclose(
            rz_mat, np.diag([np.exp(-0.65j), np.exp(0.65j)]), atol=1e-12
        )
        for gate in (Gate.H, Gate.X, Gate.Y, Gate.Z, Gate.CX, Gate.CZ):
            m = gate_matrix(gate)
            assert np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


class TestBranches:
    def test_hadamard_measurement_statistics(self):
        out = branches(circ(1, h(0), measure(0, 0), clbits=1))
        assert len(out) == 2
        assert all(abs(b.probability - 0.5) < 1e-9 for b in out)
        assert {b.outcomes[0] for b in out} == {0, 1}

    def test_measurement_free_single_branch(self):
        out = branches(circ(2, h(0), cx(0, 1)))
        assert len(out) == 1 and abs(out[0].probability - 1) < 1e-12

    def test_probabilities_sum_to_one(self):
        c = circ(3, h(0), h(1), cx(0, 2), measure(0, 0), measure(1, 1), clbits=2)
        out = branches(c)
        assert abs(sum(b.probability for b in out) - 1) < 1e-9

    def test_branch_state_matches_unitary_column(self):
        c = circ(2, h(0), cx(0, 1), rz(1, 0.4))
        for basis in range(4):
            br = branches(c, basis)
            assert len(br) == 1
            assert np.allclose(br[0].state, unitary(c)[:, basis], atol=1e-12)

    def test_deterministic_measurement_prunes(self):
        out = branches(circ(1, x(0), measure(0, 0), clbits=1))
        assert len(out) == 1 and out[0].outcomes[0] == 1

    def test_condition_before_measurement_rejected(self):
        c = circ(2, x(1, condition=Condition((0,))), measure(0, 0), clbits=1)
        with pytest.raises(ValueError, match="before its measurement"):
            branches(c)

    def test_parity_condition_fires_on_odd_parity(self):
        # Prepare |11>, measure both, X on q2 iff parity(c0, c1) == 1 -> parity 0.
        c = circ(
            3,
            x(0), x(1),
            measure(0, 0), measure(1, 1),
            x(2, condition=Condition((0, 1))),
            clbits=2,
        )
        (branch,) = branches(c)
        assert branch.outcomes == {0: 1, 1: 1}
        assert abs(branch.state[0b011] - 1) < 1e-12  # q2 untouched
        c_odd = circ(
            3,
            x(0),
            measure(0, 0), measure(1, 1),
            x(2, condition=Condition((0, 1))),
            clbits=2,
        )
        (branch,) = branches(c_odd)
        assert abs(branch.state[0b101] - 1) < 1e-12  # q2 flipped


class TestEquivalence:
    def test_self_equivalence(self):
        c = circ(2, h(0), cx(0, 1), rz(1, 0.3))
        assert equivalent_unitary(c, c)

    def test_h_vs_x_not_equivalent(self):
        assert not equivalent_unitary(circ(1, h(0)), circ(1, x(0)))

    def test_global_phase_ignored(self):
        # RZ(2pi) = -I, so appending it leaves the circuit equivalent.
        a = circ(1, h(0))
        b = circ(1, h(0), rz(0, 2 * math.pi))
        assert equivalent_unitary(a, b)

    def test_chain_decomposition_five_qubits(self):
        from qshallow.chains import decompose_forward

        plain = circ(5, *[cx(i, i + 1) for i in range(4)])
        dec = circ(5, *decompose_forward(range(5)))
        assert equivalent_unitary(plain, dec, tol=1e-9)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            equivalent_unitary(circ(1, h(0)), circ(2, h(0)))

    def test_equivalent_on_zero_ghz(self):
        from qshallow.bench import gen_ghz_standard
        from qshallow.ghz import GhzMode
        from qshallow.pipeline import ChainMode, PassConfig, compile_circuit

        std = gen_ghz_standard(4)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.OFF)
        assert equivalent_on_zero(std, compile_circuit(std, config).circuit)

    def test_equivalent_on_zero_rejects_missing_hadamard(self):
        chain_only = circ(4, cx(0, 1), cx(1, 2), cx(2, 3))
        from qshallow.bench import gen_ghz_standard

        assert not equivalent_on_zero(gen_ghz_standard(4), chain_only)

    def test_states_equal_up_to_phase(self):
        a = np.array([1, 1j]) / math.sqrt(2)
        assert states_equal_up_to_phase(a, a * np.exp(0.7j), 1e-9)
        assert not states_equal_up_to_phase(a, np.array([1.0, 0.0]), 1e-9)
