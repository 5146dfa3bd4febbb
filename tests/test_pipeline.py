"""Improvement-aware application of chain rewrites."""
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
from qshallow import ghz, ir
from qshallow.ir import Circuit, cx, cz, h, rz, stats
from qshallow.pipeline import (
    ChainMode,
    GateDecision,
    PassConfig,
    VerificationError,
    compile_circuit,
    gate_and_apply,
)
from qshallow.ghz import GhzMode, GhzSite, detect_ghz
from qshallow.sim import equivalent_unitary


def circ(n, *instructions):
    return Circuit(n, 0, tuple(instructions))


def _count_validate(monkeypatch) -> list[Circuit]:
    """Record every `ir.validate` call, which each Circuit construction makes."""
    calls = []
    validate = ir.validate

    def counting(c):
        calls.append(c)
        return validate(c)

    monkeypatch.setattr(ir, "validate", counting)
    return calls


class TestScopedDepth:
    """The window a decision is taken on: the chain gates plus the
    `depth_scope` operations after its last gate, clamped to the circuit end."""

    def _depth_before(self, c, scope):
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2, depth_scope=scope)
        _, decisions = gate_and_apply(c, config)
        return decisions[0].depth_before

    def test_isolated_chain_scope_100(self):
        c = gen_cx_chain(9)  # 8 sequential gates, empty tail
        assert self._depth_before(c, 100) == 8

    def test_scope_zero_is_chain_alone(self):
        body = [cx(0, 1), cx(1, 2), cx(2, 3), h(5), h(5), h(5), h(5)]
        c = circ(6, *body)
        assert self._depth_before(c, 0) == 3

    def test_window_clamps_at_circuit_end(self):
        c = gen_cx_chain(5)
        assert self._depth_before(c, 10_000) == 4

    def test_tail_included(self):
        # Three tail gates on q0 pipeline behind the chain: layers 2, 3, 4.
        body = [cx(0, 1), cx(1, 2), h(0), h(0), h(0)]
        c = circ(3, *body)
        assert self._depth_before(c, 100) == 4
        assert self._depth_before(c, 1) == 2
        assert self._depth_before(c, 0) == 2


class TestModes:
    def test_off_returns_input_unchanged(self):
        c = gen_cx_chain(17)
        out, decisions = gate_and_apply(c, PassConfig(chain_mode=ChainMode.OFF))
        assert out.instructions == c.instructions
        assert decisions == []

    @pytest.mark.parametrize("mode", list(ChainMode))
    def test_invalid_circuit_rejected(self, mode):
        # An invalid circuit cannot be built, so it never reaches the pass.
        with pytest.raises(ValueError, match="out of range"):
            gate_and_apply(circ(3, cx(0, 1), cx(1, 3)), PassConfig(chain_mode=mode))

    @pytest.mark.parametrize("mode", list(ChainMode))
    def test_circuit_validated_once(self, mode, monkeypatch):
        # The pass builds, and so validates, only the circuit it returns.
        c = gen_cx_chain(9)
        calls = _count_validate(monkeypatch)
        out, decisions = gate_and_apply(c, PassConfig(chain_mode=mode))
        applied = any(d.applied for d in decisions)
        assert len(calls) == int(applied)
        assert applied or out is c

    @pytest.mark.parametrize("mode", [ChainMode.CONSERVATIVE, ChainMode.ALWAYS])
    def test_many_rewrites_build_one_circuit(self, mode, monkeypatch):
        c = gen_intertwined(3, 8)
        calls = _count_validate(monkeypatch)
        _, decisions = gate_and_apply(c, PassConfig(chain_mode=mode, min_chain_gates=2))
        assert sum(d.applied for d in decisions) >= 2
        assert len(calls) == 1

    def test_conservative_skips_small_chain(self):
        c = gen_cx_chain(5)  # 4-gate chain: decomposition depth equal, not lower
        out, decisions = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert out.instructions == c.instructions
        assert [d.applied for d in decisions] == [False]
        (d,) = decisions
        assert d.depth_before == 4 and d.depth_after == 4

    def test_conservative_applies_long_chain(self):
        c = gen_cx_chain(17)  # 16-gate chain
        out, decisions = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert [d.applied for d in decisions] == [True]
        assert stats(out).depth < 16
        assert stats(out).depth == 8

    def test_always_applies_even_without_improvement(self):
        c = gen_cx_chain(5)
        out, decisions = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
        )
        assert [d.applied for d in decisions] == [True]
        assert len(out.instructions) == 6  # decomposition, not the plain chain
        assert equivalent_unitary(c, out)

    def test_accepted_rewrite_scheduled_once(self, monkeypatch):
        # Per candidate: two window schedules, then one whole-circuit recheck
        # of the rewrite, whose depth becomes the base for the next one.
        from qshallow import pipeline

        calls = []
        depth_of = pipeline.depth_of

        def counting(instructions):
            calls.append(len(instructions))
            return depth_of(instructions)

        monkeypatch.setattr(pipeline, "depth_of", counting)
        c = gen_intertwined(3, 8)
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        out, decisions = gate_and_apply(c, config)
        assert [d.applied for d in decisions] == [True, True, True]
        assert len(calls) == 1 + 3 * 3  # the base depth, then 3 calls per candidate
        assert calls[-1] == len(out.instructions)

    def test_determinism(self):
        c = gen_random(8, 120, seed=5)
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        out1, dec1 = gate_and_apply(c, config)
        out2, dec2 = gate_and_apply(c, config)
        assert out1.instructions == out2.instructions
        assert dec1 == dec2

    def test_min_chain_gates_gatekeeps(self):
        c = gen_cx_chain(5)
        _, decisions = gate_and_apply(c, PassConfig(chain_mode=ChainMode.ALWAYS))
        assert decisions == []  # 4 gates < default min of 5


class TestNeverDegrade:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_circuits(self, seed):
        c = gen_random(4 + seed % 9, 30 + 7 * seed, seed=seed)
        out, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert stats(out).depth <= stats(c).depth

    def test_intertwined_chains_improve(self):
        for length in (8, 10):
            c = gen_intertwined(3, length)
            out, _ = gate_and_apply(
                c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
            )
            assert stats(out).depth < stats(c).depth

    def test_skewed_context_rejected(self):
        # The chain's last qubit is busy long before the chain; decomposing
        # would delay it further.  Window evaluation alone cannot see this,
        # the whole-circuit recheck must refuse.
        body = [rz(4, 0.1) for _ in range(30)]
        body += [cx(0, 1), cx(1, 2), cx(2, 3), cx(3, 4)]
        c = circ(5, *body)
        out, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert stats(out).depth <= stats(c).depth

    def test_always_mode_can_degrade_but_stays_equivalent(self):
        c = gen_ansatz(AnsatzSpec("two_local", 6, 2, "linear", 7))
        out, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.ALWAYS))
        assert stats(out).depth > stats(c).depth
        assert equivalent_unitary(c, out, tol=1e-9)
        conservative, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert conservative.instructions == c.instructions


class TestVerification:
    def test_valid_rewrites_verify_clean(self):
        c = gen_cx_chain(9)
        out, decisions = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, min_chain_gates=2)
        )
        assert all(d.applied for d in decisions)
        assert equivalent_unitary(c, out)

    def test_bogus_decomposition_caught(self, monkeypatch):
        from qshallow import pipeline

        def wrong(candidate, cz_to_cx):
            return [cz(candidate.qubit_seq[0], candidate.qubit_seq[1])]

        monkeypatch.setattr(pipeline, "_replacement_for", wrong)
        c = gen_cx_chain(9)
        with pytest.raises(VerificationError) as err:
            gate_and_apply(
                c, PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, min_chain_gates=2)
            )
        assert err.value.candidate is not None

    def test_bogus_ghz_block_caught(self, monkeypatch):
        def wrong(members):
            return [h(members[0])] + [cx(members[0], q) for q in members[2:]]

        monkeypatch.setattr(ghz, "build_ghz_log", wrong)
        c = gen_ghz_standard(6)
        with pytest.raises(VerificationError) as err:
            compile_circuit(c, PassConfig(ghz_mode=GhzMode.ROBUST, verify=True), ("ghz",))
        assert isinstance(err.value.candidate, GhzSite)
        assert err.value.candidate == detect_ghz(c)[0]

    def test_oversized_windows_skipped(self):
        c = gen_cx_chain(30)
        out, decisions = gate_and_apply(
            c,
            PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, max_verify_qubits=10),
        )
        assert all(d.applied for d in decisions)


class TestCompileCircuit:
    def test_ghz_then_chains_order(self):
        c = gen_ghz_standard(16)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(c, config)
        assert result.ghz_sites_found == 1
        assert result.ghz_sites_replaced == 1
        assert stats(result.circuit).depth == 5

    def test_chains_only_pass_list(self):
        c = gen_ghz_standard(16)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(c, config, passes=("chains",))
        assert result.ghz_sites_found == 0
        assert result.chains_applied == 1
        assert stats(result.circuit).depth < 16

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            compile_circuit(gen_ghz_standard(4), PassConfig(), passes=("mystery",))

    def test_ghz_verification_runs(self):
        c = gen_ghz_standard(8)
        config = PassConfig(ghz_mode=GhzMode.PARALLEL, verify=True)
        result = compile_circuit(c, config, passes=("ghz",))
        assert result.verified
        assert stats(result.circuit).measure_count == 4

    def test_cz_chain_conservative(self):
        c = gen_cz_chain(12)
        result = compile_circuit(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2),
            passes=("chains",),
        )
        assert stats(result.circuit).depth == 2

    def test_cz_to_cx_option(self):
        c = gen_cz_chain(12)
        result = compile_circuit(
            c,
            PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2, cz_to_cx=True),
            passes=("chains",),
        )
        assert stats(result.circuit).depth == 4
        out_gates = {ins.gate.value for ins in result.circuit.instructions}
        assert out_gates == {"h", "cx"}


class TestConfig:
    def test_bad_min_chain_gates(self):
        with pytest.raises(ValueError):
            PassConfig(min_chain_gates=1)

    def test_bad_depth_scope(self):
        with pytest.raises(ValueError):
            PassConfig(depth_scope=-1)

    def test_decision_invariant_conservative(self):
        c = gen_random(8, 150, seed=11)
        _, decisions = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        for d in decisions:
            assert isinstance(d, GateDecision)
            if d.applied:
                assert d.depth_after < d.depth_before
