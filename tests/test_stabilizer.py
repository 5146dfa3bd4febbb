"""Exact stabilizer verification: agreement with the dense oracle on small
windows, and one-gate mutations of every construction caught at width."""
from __future__ import annotations

import random

import numpy as np
import pytest

from qshallow import ghz, pipeline
from qshallow.bench import gen_cx_chain, gen_cz_chain, gen_ghz_standard
from qshallow.chains import commutes
from qshallow.ghz import GhzMode, build_ghz_parallel
from qshallow.ir import (
    Circuit,
    Condition,
    Gate,
    Instruction,
    cx,
    cz,
    h,
    measure,
    rx,
    ry,
    rz,
    x,
    y,
    z,
)
from qshallow.pipeline import ChainMode, PassConfig, VerificationError, compile_circuit
from qshallow.sim import (
    branches,
    equivalent_on_zero,
    equivalent_unitary,
    states_equal_up_to_phase,
    unitary,
)
from qshallow.stabilizer import NoPauliForm, _form, prepares_same, same_unitary

ANGLES = (0.3, 1.1, 2.5)


def _random_gate(rng: random.Random, n: int, rotations: bool) -> Instruction:
    kinds = ["h", "x", "y", "z", "cx", "cz"] + (["rx", "ry", "rz"] if rotations else [])
    kind = rng.choice(kinds)
    if kind in ("cx", "cz"):
        a, b = rng.sample(range(n), 2)
        return cx(a, b) if kind == "cx" else cz(a, b)
    q = rng.randrange(n)
    if kind in ("rx", "ry", "rz"):
        return {"rx": rx, "ry": ry, "rz": rz}[kind](q, rng.choice(ANGLES))
    return {"h": h, "x": x, "y": y, "z": z}[kind](q)


def _commuted(rng: random.Random, ops: list[Instruction]) -> list[Instruction]:
    """`ops` with random adjacent commuting pairs swapped."""
    out = list(ops)
    for _ in range(3 * len(out)):
        i = rng.randrange(len(out) - 1)
        if commutes(out[i], out[i + 1]):
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _resynthesized(rng: random.Random, ops: list[Instruction]) -> list[Instruction]:
    """`ops` with Cliffords replaced by equal gate lists (up to phase)."""
    out: list[Instruction] = []
    for op in ops:
        a = op.qubits[0]
        choice = rng.randrange(3)
        if op.gate is Gate.CZ and choice == 0:
            out += [h(op.qubits[1]), cx(*op.qubits), h(op.qubits[1])]
        elif op.gate is Gate.CX and choice == 0:
            c, t = op.qubits
            out += [h(c), h(t), cx(t, c), h(c), h(t)]
        elif op.gate is Gate.X and choice == 0:
            out += [h(a), z(a), h(a)]
        elif op.gate is Gate.Y and choice == 0:
            out += [z(a), x(a)]  # i X Z
        elif choice == 1:
            out += [op, h(a), h(a)]
        else:
            out.append(op)
    return out


def _corrupted(rng: random.Random, ops: list[Instruction]) -> list[Instruction]:
    """`ops` with one gate changed: reversed, dropped, or replaced."""
    out = list(ops)
    i = rng.randrange(len(out))
    op = out[i]
    change = rng.randrange(3)
    if change == 0 and op.gate is Gate.CX:
        out[i] = cx(*reversed(op.qubits))
    elif change == 1:
        del out[i]
    elif op.angle is not None:
        out[i] = Instruction(op.gate, op.qubits, angle=-op.angle)
    else:
        out[i] = h(op.qubits[0]) if op.gate is not Gate.H else x(op.qubits[0])
    return out


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_frame_rows_are_the_pulled_back_generators(self, seed):
        # Row signs decide equality, and a commuting-row product's sign is
        # easy to get wrong in a way local rewrites never expose.
        rng = random.Random(500 + seed)
        n = rng.choice((2, 3))
        ops = [_random_gate(rng, n, rotations=False) for _ in range(rng.randrange(1, 30))]
        frame = _form(ops, {q: q for q in range(n)})
        f = unitary(Circuit(n, 0, tuple(ops)))
        for q in range(n):
            for k, gen in enumerate((x, z)):
                px, pz, r = frame.row(q)[k]
                string = [z(b) for b in range(n) if pz >> b & 1]
                string += [x(b) for b in range(n) if px >> b & 1]
                expected = 1j**r * unitary(Circuit(n, 0, tuple(string)))
                pulled = f.conj().T @ unitary(Circuit(n, 0, (gen(q),))) @ f
                assert np.allclose(pulled, expected, atol=1e-9), (q, gen)

    @pytest.mark.parametrize("seed", range(40))
    def test_unitary_windows(self, seed):
        rng = random.Random(seed)
        n = rng.choice((2, 3, 4, 5, 6, 10))
        rotations = seed % 4 != 0
        ops = [_random_gate(rng, n, rotations) for _ in range(rng.randrange(4, 25))]
        variants = {
            "commuted": _commuted(rng, ops),
            "resynthesized": _resynthesized(rng, ops),
            "corrupted": _corrupted(rng, ops),
        }
        for name, variant in variants.items():
            accepted = same_unitary(ops, variant)
            if name != "corrupted":
                assert accepted, name
            if accepted or not rotations:
                # Clifford windows are decided exactly either way.
                dense = equivalent_unitary(Circuit(n, 0, tuple(ops)), Circuit(n, 0, tuple(variant)))
                assert dense == accepted, name

    @pytest.mark.parametrize("seed", range(20))
    def test_windows_with_measurement_and_feedforward(self, seed):
        rng = random.Random(1000 + seed)
        n, nbits = rng.choice((3, 4, 5)), 3
        ops: list[Instruction] = []
        written: list[int] = []
        for _ in range(rng.randrange(6, 20)):
            roll = rng.random()
            if roll < 0.15 and len(written) < nbits:
                ops.append(measure(rng.randrange(n), len(written)))
                written.append(len(written))
            elif roll < 0.35 and written:
                bits = tuple(rng.sample(written, rng.randint(1, len(written))))
                gate = rng.choice((Gate.X, Gate.Z))
                ops.append(Instruction(gate, (rng.randrange(n),), condition=Condition(bits)))
            else:
                ops.append(_random_gate(rng, n, rotations=True))
        commuted = _commuted(rng, ops)
        assert same_unitary(ops, commuted)
        self._assert_same_branches(n, nbits, ops, commuted, rng)
        corrupted = _corrupted(rng, ops)
        if same_unitary(ops, corrupted):
            self._assert_same_branches(n, nbits, ops, corrupted, rng)

    @staticmethod
    def _assert_same_branches(n, nbits, a, b, rng):
        """Every branch of `a` and `b` agrees, after the same random prefix."""
        for _ in range(3):
            prefix = [_random_gate(rng, n, rotations=True) for _ in range(2 * n)]
            found = []
            for ops in (a, b):
                c = Circuit(n, nbits, (*prefix, *ops))
                found.append({tuple(sorted(br.outcomes.items())): br for br in branches(c)})
            assert found[0].keys() == found[1].keys()
            for key, branch in found[0].items():
                other = found[1][key]
                assert abs(branch.probability - other.probability) < 1e-9
                assert states_equal_up_to_phase(branch.state, other.state, 1e-9)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_ghz_blocks_decided_like_the_branch_oracle(self, n):
        std = gen_ghz_standard(n)
        block = build_ghz_parallel(range(n), range(n // 2))
        assert prepares_same(std.instructions, block)
        for i in range(len(block)):
            mutated = block[:i] + block[i + 1 :]
            reads = {b for op in mutated if op.condition for b in op.condition.bits}
            if not reads <= {op.clbit for op in mutated if op.clbit is not None}:
                assert not prepares_same(std.instructions, mutated)
                continue  # the branch oracle takes no read before a write
            dense = equivalent_on_zero(std, Circuit(n, n // 2, tuple(mutated)))
            assert prepares_same(std.instructions, mutated) == dense, i
        for q in range(n):  # a bit or phase flip leaves a qubit in |1>
            for pauli in (x, z):
                flipped = [*block, pauli(q)]
                assert not prepares_same(std.instructions, flipped)
                assert not equivalent_on_zero(std, Circuit(n, n // 2, tuple(flipped)))


class TestChecks:
    def test_conditioned_h_has_no_form(self):
        ops = [measure(0, 0), Instruction(Gate.H, (1,), condition=Condition((0,)))]
        with pytest.raises(NoPauliForm, match="conditioned h"):
            same_unitary(ops, ops)

    def test_conditioned_z_is_diagonal(self):
        # RZ commutes with a conditioned Z on its qubit, not with a conditioned X.
        for gate, swaps in ((Gate.Z, True), (Gate.X, False)):
            cond = Instruction(gate, (0,), condition=Condition((0, 1)))
            ops = [measure(1, 0), measure(2, 1), cond, rz(0, 0.7)]
            assert same_unitary(ops, [*ops[:2], ops[3], ops[2]]) is swaps

    def test_rotations_in_another_order_do_not_peel(self):
        a = [rx(0, 0.3), rz(0, 0.5)]
        assert same_unitary(a, a)
        assert not same_unitary(a, a[::-1])

    def test_rotation_sign_folds_into_angle(self):
        # X RZ(t) X = RZ(-t): equal lists, written differently.
        assert same_unitary([x(0), rz(0, 0.4), x(0)], [rz(0, -0.4)])

    def test_ghz_block_on_foreign_bit_or_qubit_not_proven(self):
        site = gen_ghz_standard(3).instructions
        block = build_ghz_parallel(range(3), [0])
        assert prepares_same(site, block)
        reads_other = [*block[:-1], Instruction(Gate.X, (1,), condition=Condition((5,)))]
        assert not prepares_same(site, reads_other)
        assert not prepares_same(site, [*block, cx(0, 7), cx(0, 7)])

    def test_ghz_miter_with_rotation_not_proven(self):
        site = gen_ghz_standard(4).instructions
        assert not prepares_same(site, [*site, rz(0, 0.5), rz(0, -0.5)])


# -- one-gate mutations of every construction, caught at width -----------------


def _swap_middle_cx(ops: list[Instruction]) -> list[Instruction]:
    i = [k for k, op in enumerate(ops) if op.gate is Gate.CX][len(ops) // 4]
    return [*ops[:i], cx(*reversed(ops[i].qubits)), *ops[i + 1 :]]


def _drop_middle(ops: list[Instruction]) -> list[Instruction]:
    return [*ops[: len(ops) // 2], *ops[len(ops) // 2 + 1 :]]


def _last_parity(ops: list[Instruction]) -> int:
    return max(k for k, op in enumerate(ops) if op.condition and len(op.condition.bits) > 1)


def _drop_conditioned_x(ops: list[Instruction]) -> list[Instruction]:
    i = _last_parity(ops)
    return [*ops[:i], *ops[i + 1 :]]


def _drop_parity_bit(ops: list[Instruction]) -> list[Instruction]:
    i = _last_parity(ops)
    return [*ops[:i], x(ops[i].qubits[0], Condition(ops[i].condition.bits[:-1])), *ops[i + 1 :]]


def _cz_to_cx(ops: list[Instruction]) -> list[Instruction]:
    i = len(ops) // 2
    return [*ops[:i], cx(*ops[i].qubits), *ops[i + 1 :]]


CHAIN_MUTATIONS = [
    ("decompose_forward", gen_cx_chain, False, _swap_middle_cx),
    ("decompose_forward", gen_cx_chain, False, _drop_middle),
    ("decompose_cz", gen_cz_chain, False, _drop_middle),
    ("decompose_cz", gen_cz_chain, False, _cz_to_cx),
    ("decompose_cz_to_cx", gen_cz_chain, True, _swap_middle_cx),
    ("decompose_cz_to_cx", gen_cz_chain, True, _drop_middle),
]
GHZ_MUTATIONS = [
    ("build_ghz_log", GhzMode.ROBUST, _swap_middle_cx),
    ("build_ghz_log", GhzMode.ROBUST, _drop_middle),
    ("build_ghz_parallel", GhzMode.PARALLEL, _swap_middle_cx),
    ("build_ghz_parallel", GhzMode.PARALLEL, _drop_middle),
    ("build_ghz_parallel", GhzMode.PARALLEL, _drop_conditioned_x),
    ("build_ghz_parallel", GhzMode.PARALLEL, _drop_parity_bit),
]


@pytest.mark.parametrize("n", [40, 1000])
class TestMutationsCaught:
    def test_correct_constructions_verify(self, n):
        for gen, cz_to_cx in ((gen_cx_chain, False), (gen_cz_chain, False), (gen_cz_chain, True)):
            config = PassConfig(chain_mode=ChainMode.ALWAYS, cz_to_cx=cz_to_cx, verify=True)
            assert compile_circuit(gen(n), config).verified
        for mode in (GhzMode.ROBUST, GhzMode.PARALLEL):
            config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.OFF, verify=True)
            result = compile_circuit(gen_ghz_standard(n), config)
            assert result.verified and result.coverage.checked == 1

    @pytest.mark.parametrize("name, gen, cz_to_cx, mutate", CHAIN_MUTATIONS)
    def test_chain_decomposition(self, monkeypatch, n, name, gen, cz_to_cx, mutate):
        build = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda seq: mutate(build(seq)))
        config = PassConfig(chain_mode=ChainMode.ALWAYS, cz_to_cx=cz_to_cx, verify=True)
        with pytest.raises(VerificationError):
            compile_circuit(gen(n), config)

    @pytest.mark.parametrize("name, mode, mutate", GHZ_MUTATIONS)
    def test_ghz_construction(self, monkeypatch, n, name, mode, mutate):
        build = getattr(ghz, name)
        monkeypatch.setattr(ghz, name, lambda *args: mutate(build(*args)))
        config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.OFF, verify=True)
        with pytest.raises(VerificationError):
            compile_circuit(gen_ghz_standard(n), config)


def test_parity_conditioned_ghz_block_checked():
    config = PassConfig(ghz_mode=GhzMode.PARALLEL, chain_mode=ChainMode.OFF, verify=True)
    result = compile_circuit(gen_ghz_standard(8), config)
    widest = max(len(op.condition.bits) for op in result.circuit.instructions if op.condition)
    assert widest >= 3
    assert result.verified and result.coverage.checked == 1
