"""Improvement-aware application of chain rewrites."""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

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
from qshallow.chains import (
    ChainCandidate,
    ChainKind,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
    decompose_run,
    find_chains,
)
from qshallow.ir import (
    Circuit,
    Condition,
    Gate,
    Instruction,
    barrier,
    cx,
    cz,
    h,
    measure,
    ry,
    rz,
    stats,
)
from qshallow.pipeline import (
    DEPTH_SCOPE,
    ChainMode,
    Coverage,
    GateDecision,
    PassConfig,
    VerificationError,
    _replacement_for,
    compile_circuit,
    gate_and_apply,
)
from qshallow.ghz import GhzMode, detect_ghz
from qshallow.sim import equivalent_unitary


def circ(n, *instructions):
    return Circuit(n, 0, tuple(instructions))


def _count_window_work(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the length of every tail the window gate sweeps
    (`pipeline.paths_of`) and of every side it schedules
    (`pipeline.depth_of`)."""
    from qshallow import pipeline

    sweeps, schedules = [], []
    for name, calls in (("paths_of", sweeps), ("depth_of", schedules)):
        def counting(instructions, *rest, _fn=getattr(pipeline, name), _calls=calls):
            _calls.append(len(instructions))
            return _fn(instructions, *rest)

        monkeypatch.setattr(pipeline, name, counting)
    return sweeps, schedules


def _count_index_builds(monkeypatch) -> list[int]:
    """Record the length of every list a `DepthIndex` is built over."""
    calls = []
    build = ir.DepthIndex._build

    def counting(self, instructions):
        calls.append(len(instructions))
        return build(self, instructions)

    monkeypatch.setattr(ir.DepthIndex, "_build", counting)
    return calls


def _count_table_builds(monkeypatch) -> list[int]:
    """Record the length of every list a per-wire use table is built over."""
    calls = []
    init = ir.UseTable.__init__

    def counting(self, instructions):
        calls.append(len(instructions))
        init(self, instructions)

    monkeypatch.setattr(ir.UseTable, "__init__", counting)
    return calls


def _count_validate(monkeypatch) -> list[Circuit]:
    """Record every `ir.validate` call, which each Circuit construction makes."""
    calls = []
    validate = ir.validate

    def counting(c):
        calls.append(c)
        return validate(c)

    monkeypatch.setattr(ir, "validate", counting)
    return calls


@pytest.mark.parametrize("cz_to_cx", [False, True])
@pytest.mark.parametrize("ghz_mode", list(GhzMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", list(ChainKind), ids=lambda k: k.value)
def test_replacement_rule_picks_each_construction(kind, ghz_mode, cz_to_cx):
    config = PassConfig(ghz_mode=ghz_mode, cz_to_cx=cz_to_cx)
    members = (3, 1, 4, 0, 2)
    got = _replacement_for(ChainCandidate(kind, (0, 1, 2, 3, 4), members, 0, ()), config, clbit=7)
    if kind is ChainKind.CX:
        assert got == decompose_forward(members)
    elif kind is ChainKind.CZ:
        assert got == (decompose_cz_to_cx if cz_to_cx else decompose_cz)(members)
    elif kind is not ChainKind.GHZ:
        assert got == decompose_run(kind, members)
    elif ghz_mode is GhzMode.ROBUST:
        assert got == ghz.build_ghz_log(members)
    elif ghz_mode is GhzMode.PARALLEL:
        assert got == ghz.build_ghz_parallel(members, [7, 8])
        # The fresh bits start at `clbit`.
        assert [op.clbit for op in got if op.gate is Gate.MEASURE] == [7, 8]
        # A 2-member site lacks a middle qubit to fuse on: it keeps its gates.
        pair = ChainCandidate(kind, (0, 1), (5, 6), 0, ())
        assert _replacement_for(pair, config, clbit=7) is None
    else:
        assert got is None  # rebuilding is off


class TestScopedDepth:
    """The window a decision is taken on: the chain gates plus the
    `DEPTH_SCOPE` operations after its last gate, clamped to the circuit end."""

    def _depth_before(self, c):
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
        _, decisions, _ = gate_and_apply(c, config)
        return decisions[0].depth_before

    def test_isolated_chain_scope_100(self):
        assert DEPTH_SCOPE == 100
        c = gen_cx_chain(9)  # 8 sequential gates, empty tail
        assert self._depth_before(c) == 8

    def test_window_clamps_at_circuit_end(self):
        c = gen_cx_chain(5)
        assert self._depth_before(c) == 4

    def test_tail_included(self):
        # Three tail gates on q0 pipeline behind the chain: layers 2, 3, 4.
        body = [cx(0, 1), cx(1, 2), h(0), h(0), h(0)]
        c = circ(3, *body)
        assert self._depth_before(c) == 4


class TestModes:
    def test_off_returns_input_unchanged(self):
        c = gen_cx_chain(17)
        out, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.OFF))
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
        out, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=mode))
        applied = any(d.applied for d in decisions)
        assert len(calls) == int(applied)
        assert applied or out is c

    @pytest.mark.parametrize("mode", [ChainMode.CONSERVATIVE, ChainMode.ALWAYS])
    def test_many_rewrites_build_one_circuit(self, mode, monkeypatch):
        c = gen_intertwined(3, 8)
        calls = _count_validate(monkeypatch)
        _, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=mode, min_chain_gates=2))
        assert sum(d.applied for d in decisions) >= 2
        assert len(calls) == 1

    def test_conservative_skips_small_chain(self):
        c = gen_cx_chain(5)  # 4-gate chain: decomposition depth equal, not lower
        out, decisions, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert out.instructions == c.instructions
        assert [d.applied for d in decisions] == [False]
        (d,) = decisions
        assert d.depth_before == 4 and d.depth_after == 4

    def test_conservative_applies_long_chain(self):
        c = gen_cx_chain(17)  # 16-gate chain
        out, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert [d.applied for d in decisions] == [True]
        assert stats(out).depth < 16
        assert stats(out).depth == 8

    def test_always_applies_even_without_improvement(self):
        c = gen_cx_chain(5)
        out, decisions, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
        )
        assert [d.applied for d in decisions] == [True]
        assert len(out.instructions) == 6  # decomposition, not the plain chain
        assert equivalent_unitary(c, out)

    def test_accepted_rewrite_scheduled_once(self, monkeypatch):
        # Per candidate: one sweep of its tail, and each distinct chain's two
        # sides scheduled once; the depth index judges the whole circuit, and
        # takes in each accepted rewrite over its window, so it is built once
        # for the pass.
        sweeps, schedules = _count_window_work(monkeypatch)
        builds = _count_index_builds(monkeypatch)
        c = gen_intertwined(3, 8)
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        out, decisions, _ = gate_and_apply(c, config)
        assert [d.applied for d in decisions] == [True, True, True]
        distinct = {(d.candidate.kind, d.candidate.qubit_seq) for d in decisions}
        assert len(sweeps) == 3
        assert len(schedules) == 2 * len(distinct)
        assert builds == [len(c.instructions)]

        # Always mode has no depth index: only the empty tail's sweep and the
        # schedules of the 16-gate chain and its 30-gate replacement.
        sweeps.clear()
        schedules.clear()
        builds.clear()
        gate_and_apply(gen_cx_chain(17), PassConfig(chain_mode=ChainMode.ALWAYS))
        assert (sweeps, schedules) == ([0], [16, 30])
        assert builds == []

    def test_no_schedule_beyond_a_window(self, monkeypatch):
        # 32 barrier-separated 16-gate chains on one ladder, every one
        # accepted: each candidate sweeps at most DEPTH_SCOPE tail ops, the
        # ladder and its 30-gate replacement are scheduled once for the pass,
        # and the pass builds its index once.
        body = []
        for _ in range(32):
            body += [*(cx(i, i + 1) for i in range(16)), barrier(*range(17))]
        c = Circuit(17, 0, tuple(body))
        sweeps, schedules = _count_window_work(monkeypatch)
        builds = _count_index_builds(monkeypatch)
        out, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert len(decisions) == 32 and all(d.applied for d in decisions)
        assert len(sweeps) == 32 and max(sweeps) <= DEPTH_SCOPE
        assert schedules == [16, 30]
        assert max(sweeps + schedules) <= 30 + DEPTH_SCOPE < len(c.instructions)
        assert builds == [len(c.instructions)]
        assert stats(out).depth == 32 * 8

    def test_determinism(self):
        c = gen_random(8, 120, seed=5)
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        out1, dec1, _ = gate_and_apply(c, config)
        out2, dec2, _ = gate_and_apply(c, config)
        assert out1.instructions == out2.instructions
        assert dec1 == dec2

    def test_min_chain_gates_gatekeeps(self):
        c = gen_cx_chain(5)
        _, decisions, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.ALWAYS))
        assert decisions == []  # 4 gates < default min of 5


class TestNeverDegrade:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_circuits(self, seed):
        c = gen_random(4 + seed % 9, 30 + 7 * seed, seed=seed)
        out, _, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert stats(out).depth <= stats(c).depth

    def test_intertwined_chains_improve(self):
        for length in (8, 10):
            c = gen_intertwined(3, length)
            out, _, _ = gate_and_apply(
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
        out, _, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert stats(out).depth <= stats(c).depth

    def test_always_mode_can_degrade_but_stays_equivalent(self):
        c = gen_ansatz(AnsatzSpec("two_local", 6, 2, "linear", 7))
        out, _, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.ALWAYS))
        assert stats(out).depth > stats(c).depth
        assert equivalent_unitary(c, out, tol=1e-9)
        conservative, _, _ = gate_and_apply(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert conservative.instructions == c.instructions


class TestVerification:
    def test_valid_rewrites_verify_clean(self):
        c = gen_cx_chain(9)
        out, decisions, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, min_chain_gates=2)
        )
        assert all(d.applied for d in decisions)
        assert equivalent_unitary(c, out)

    def test_bogus_decomposition_caught(self, monkeypatch):
        from qshallow import pipeline

        def wrong(candidate, config, clbit=0):
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
            compile_circuit(c, PassConfig(ghz_mode=GhzMode.ROBUST, verify=True))
        assert err.value.candidate.kind is ChainKind.GHZ
        assert err.value.candidate == detect_ghz(c)[0]

    def test_wide_windows_verified(self):
        c = gen_cx_chain(30)
        out, decisions, coverage = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.ALWAYS, verify=True)
        )
        assert all(d.applied for d in decisions)
        assert coverage == Coverage(checked=1)

    @pytest.mark.parametrize("n, checked", [(30, True), (8, True)])
    def test_verified_only_when_every_rewrite_checked(self, n, checked):
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, verify=True, min_chain_gates=2)
        result = compile_circuit(gen_cx_chain(n), config)
        assert [d.applied for d in result.decisions] == [True]
        assert result.verified is checked

    def test_window_with_measurement_verified(self):
        # A measurement is a CX onto its bit's ancilla in deferred form.
        c = Circuit(9, 1, (*gen_cx_chain(9).instructions[:4], measure(8, 0),
                           *gen_cx_chain(9).instructions[4:]))
        config = PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, min_chain_gates=2)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [True]
        assert result.verified is True

    def test_window_with_conditioned_h_skipped(self):
        # A conditioned H has no Clifford deferred form: the window is skipped.
        chain = gen_cx_chain(9).instructions
        c = Circuit(10, 1, (measure(9, 0), *chain[:4],
                            Instruction(Gate.H, (9,), condition=Condition((0,))), *chain[4:]))
        config = PassConfig(chain_mode=ChainMode.ALWAYS, verify=True, min_chain_gates=2)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [True]
        assert result.coverage == Coverage(checked=0, skipped=Counter({"conditioned h": 1}))
        assert result.verified is False

    def test_nothing_applied_is_verified(self):
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, verify=True, min_chain_gates=2)
        result = compile_circuit(gen_cx_chain(5), config)
        assert not any(d.applied for d in result.decisions)
        assert result.verified is True
        assert compile_circuit(gen_cx_chain(8), replace(config, verify=False)).verified is False


class TestCompileCircuit:
    def test_ghz_then_chains_order(self):
        c = gen_ghz_standard(16)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(c, config)
        (site,) = [d for d in result.decisions if d.candidate.kind is ChainKind.GHZ]
        assert site.applied and result.decisions[0] == site
        assert stats(result.circuit).depth == 5

    def test_ghz_off_runs_chains_only(self, monkeypatch):
        def no_detection(c):
            raise AssertionError("detect_ghz ran with GHZ off")

        monkeypatch.setattr(ghz, "detect_ghz", no_detection)
        c = gen_ghz_standard(16)
        result = compile_circuit(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert [(d.candidate.kind, d.applied) for d in result.decisions] == [
            (ChainKind.CX, True)
        ]
        assert stats(result.circuit).depth < 16

    def test_ghz_verification_runs(self):
        c = gen_ghz_standard(8)
        config = PassConfig(ghz_mode=GhzMode.PARALLEL, verify=True)
        result = compile_circuit(c, config)
        assert result.verified
        assert stats(result.circuit).measure_count == 4

    def test_cz_chain_conservative(self):
        c = gen_cz_chain(12)
        result = compile_circuit(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        assert stats(result.circuit).depth == 2

    def test_cz_to_cx_option(self):
        c = gen_cz_chain(12)
        result = compile_circuit(
            c,
            PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2, cz_to_cx=True),
        )
        assert stats(result.circuit).depth == 4
        out_gates = {ins.gate.value for ins in result.circuit.instructions}
        assert out_gates == {"h", "cx"}

    def test_each_distinct_chain_is_built_once(self, monkeypatch):
        # Every layer's ladder runs over the same qubits: one build per pass,
        # and a second compile builds it again.
        from qshallow import pipeline

        built = []

        def counting(qubit_seq, _build=pipeline.decompose_forward):
            built.append(tuple(qubit_seq))
            return _build(qubit_seq)

        monkeypatch.setattr(pipeline, "decompose_forward", counting)
        c = gen_ansatz(AnsatzSpec("two_local", 16, 4, "linear", 1))
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE)
        for _ in range(2):
            built.clear()
            result = compile_circuit(c, config)
            assert len(result.decisions) == 4
            assert built == [tuple(range(16))]

    def test_chains_sharing_a_prefix_keep_their_own_rewrite_and_sides(self):
        # Two ladders that start on the same qubits, one after a barrier:
        # the second takes neither the first's rewrite nor its schedules.
        first = [cx(i, i + 1) for i in range(6)]
        second = [cx(0, 1), cx(1, 7), cx(7, 8)]
        c = circ(9, *first, barrier(*range(9)), *second)
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2, verify=True)
        out, decisions, _ = gate_and_apply(c, config)
        assert [d.candidate.qubit_seq for d in decisions] == [(*range(7),), (0, 1, 7, 8)]
        assert decisions[1].depth_before == 3
        assert equivalent_unitary(c, out)

    def test_runs_of_one_map_keep_their_own_sides(self):
        # A `full` layer and a reverse-order ladder over the same qubits
        # compute one inverse chain's map with other gates: the ladder is
        # gated on its own schedule, not on the layer's.
        full = [cx(i, j) for i in range(6) for j in range(i + 1, 6)]
        ladder = [cx(i, i + 1) for i in reversed(range(5))]
        c = circ(6, *full, barrier(*range(6)), *ladder)
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2, verify=True)
        out, decisions, coverage = gate_and_apply(c, config)
        assert [(d.candidate.kind, d.candidate.qubit_seq) for d in decisions] == [
            (ChainKind.INVERSE, tuple(range(6)))
        ] * 2
        assert [d.depth_before for d in decisions] == [9 + 5, 5]
        assert all(d.applied for d in decisions) and coverage.checked == 2
        assert equivalent_unitary(c, out)

    def test_layered_refusals_come_from_the_bound(self, monkeypatch):
        # Each ladder rewritten alone deepens the ansatz: the depth index's
        # lower bound refuses all four, so it never walks an op (the walk
        # would make 476 `DepthIndex._layer_at` calls).
        calls = []
        layer_at = ir.DepthIndex._layer_at
        monkeypatch.setattr(
            ir.DepthIndex, "_layer_at", lambda *args: calls.append(1) or layer_at(*args)
        )
        c = gen_ansatz(AnsatzSpec("two_local", 64, 4, "linear", 1))
        result = compile_circuit(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert [d.applied for d in result.decisions] == [False] * 4
        assert all(d.depth_after < d.depth_before for d in result.decisions)
        assert calls == []


class TestUseTableBuilds:
    """One use table per instruction list per compile: the chain scanner,
    the depth gate and GHZ detection read the same one."""

    def test_conservative_chain_pass_builds_one(self, monkeypatch):
        builds = _count_table_builds(monkeypatch)
        c = gen_ansatz(AnsatzSpec("two_local", 1000, 26, "linear", 1))
        result = compile_circuit(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE))
        assert len(result.decisions) > 0
        assert builds == [len(c.instructions)]

    @pytest.mark.parametrize("mode", [GhzMode.ROBUST, GhzMode.PARALLEL], ids=lambda m: m.value)
    def test_ghz_pass_then_idle_chain_pass_builds_one(self, mode, monkeypatch):
        # Detection reads the input's table; the block kept changes the
        # list, but it holds no seed, so the chain pass builds no table.
        builds = _count_table_builds(monkeypatch)
        c = gen_ghz_standard(2000)
        config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(c, config)
        assert result.decisions[0].applied
        assert builds == [2000]

    def test_ghz_pass_keeping_nothing_shares_its_table(self, monkeypatch):
        builds = _count_table_builds(monkeypatch)
        c = gen_cx_chain(17)  # no fresh H: no GHZ site
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [True]
        assert builds == [len(c.instructions)]

    def test_one_per_scanner(self, monkeypatch):
        builds = _count_table_builds(monkeypatch)
        c = gen_intertwined(3, 8)
        assert len(find_chains(c, 2)) >= 2
        assert builds == [len(c.instructions)]
        builds.clear()
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
        _, decisions, _ = gate_and_apply(c, config)
        assert sum(d.applied for d in decisions) >= 2
        assert builds == [len(c.instructions)]


class TestConfig:
    def test_bad_min_chain_gates(self):
        with pytest.raises(ValueError):
            PassConfig(min_chain_gates=1)

    def test_decision_invariant_conservative(self):
        c = gen_random(8, 150, seed=11)
        _, decisions, _ = gate_and_apply(
            c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2)
        )
        for d in decisions:
            assert isinstance(d, GateDecision)
            if d.applied:
                assert d.depth_after < d.depth_before


class TestCxRuns:
    """CX runs whose parity map is a chain's inverse or a fan-out."""

    def test_full_layers_become_inverse_chains(self):
        c = gen_ansatz(AnsatzSpec("two_local", 64, 4, "full", 7))
        result = compile_circuit(c, PassConfig(chain_mode=ChainMode.CONSERVATIVE, verify=True))
        assert [(d.candidate.kind, d.applied) for d in result.decisions] == [
            (ChainKind.INVERSE, True)
        ] * 4
        out = stats(result.circuit)
        assert (stats(c).depth, out.depth, out.gate_count) == (322, 46, 796)
        assert result.verified

    def test_wide_fanout_from_a_live_control(self):
        # GHZ detection takes a fan-out only from a fresh H; this control
        # is rotated first.
        n = 1024
        c = circ(n, ry(0, 0.3), *(cx(0, t) for t in range(1, n)))
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE,
                            verify=True)
        result = compile_circuit(c, config)
        assert [d.candidate.kind for d in result.decisions] == [ChainKind.FANOUT]
        assert stats(result.circuit).depth <= 40 and result.verified

    @pytest.mark.parametrize("k, offered", [(8, False), (16, True)])
    def test_fanout_offered_only_when_shallower(self, k, offered):
        # At 8 targets the rewrite is 11 layers deep against the run's 8.
        c = circ(k + 1, ry(0, 0.3), *(cx(0, t) for t in range(1, k + 1)))
        config = PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
        result = compile_circuit(c, config)
        kinds = {d.candidate.kind for d in result.decisions}
        assert (ChainKind.FANOUT in kinds) is offered
        assert stats(result.circuit).depth <= stats(c).depth
