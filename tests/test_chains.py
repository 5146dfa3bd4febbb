"""Chain detection, the commutation table, and the decompositions."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qshallow import chains, pipeline
from qshallow.bench import (
    ANSATZ_FAMILIES,
    ENTANGLEMENTS,
    AnsatzSpec,
    gen_ansatz,
    gen_cx_chain,
    gen_cz_chain,
    gen_ghz_standard,
    gen_intertwined,
    gen_random,
)
from qshallow.chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    _Growth,
    _agrees,
    _window,
    commutes,
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
    UseTable,
    UseWalk,
    barrier,
    cx,
    cz,
    depth,
    depth_of,
    h,
    measure,
    rx,
    ry,
    rz,
    stats,
    x,
    y,
    z,
)
from qshallow.ghz import GhzMode, detect_ghz
from qshallow.pipeline import (
    DEPTH_SCOPE,
    ChainMode,
    GateDecision,
    PassConfig,
    _built_key,
    _replacement_for,
    _gate,
    _sides,
    compile_circuit,
)
from qshallow.qasm import emit
from qshallow.sim import equivalent_unitary, unitary
from qshallow.stabilizer import same_unitary


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


# -- commutation table --------------------------------------------------------


def _all_gates_on(n: int) -> list[Instruction]:
    gates: list[Instruction] = []
    for q in range(n):
        gates += [h(q), x(q), y(q), z(q), rx(q, 0.7), ry(q, 1.1), rz(q, 1.9)]
    for a, b in itertools.permutations(range(n), 2):
        gates.append(cx(a, b))
    for a, b in itertools.combinations(range(n), 2):
        gates.append(cz(a, b))
    return gates


def _all_ops_on_three_qubits_two_bits() -> list[Instruction]:
    """The 30 gates on 3 qubits, plain and under each 1- and 2-bit condition,
    every barrier and every measurement onto one of 2 bits: 133 ops."""
    gates = _all_gates_on(3)
    ops = list(gates)
    for bits in ((0,), (1,), (0, 1)):
        ops += [dataclasses.replace(g, condition=Condition(bits)) for g in gates]
    for k in (1, 2, 3):
        ops += [barrier(*qs) for qs in itertools.combinations(range(3), k)]
    ops += [measure(q, b) for q in range(3) for b in range(2)]
    return ops


def _reference_commutes(a: Instruction, b: Instruction, unitaries: dict) -> bool:
    """Brute force: two unitary gates commute iff their matrices do; a
    barrier, a measurement or a conditioned gate commutes only with an op
    that shares none of its qubits and no bit one writes and the other uses."""
    def writes(op):
        return set() if op.clbit is None else {op.clbit}

    def reads(op):
        return set() if op.condition is None else set(op.condition.bits)

    if writes(a) & (writes(b) | reads(b)) or writes(b) & reads(a):
        return False
    if any(op.gate in (Gate.BARRIER, Gate.MEASURE) or op.condition for op in (a, b)):
        return set(a.qubits).isdisjoint(b.qubits)
    ua, ub = unitaries[a], unitaries[b]
    return bool(np.allclose(ua @ ub, ub @ ua, atol=1e-10))


def test_commutation_table_agrees_with_oracle_on_three_qubits():
    # Exhaustive over every pair of 133 ops on 3 qubits and 2 bits, generic
    # rotation angles: the per-wire letter rule must match the matrix
    # commutator on unitary gates and the ordering rule on the rest.
    ops = _all_ops_on_three_qubits_two_bits()
    assert len(ops) == 133
    unitaries = {g: unitary(Circuit(3, 0, (g,))) for g in _all_gates_on(3)}
    for a in ops:
        for b in ops:
            assert commutes(a, b) == _reference_commutes(a, b, unitaries), (a, b)


def test_merged_letters_agree_with_each_op_merged():
    # A growth keeps one letter per wire for all it holds: an op agrees with
    # the merge iff it commutes with every op merged into it.
    rng = random.Random(3)
    ops = _all_ops_on_three_qubits_two_bits()
    seed = cx(3, 4)
    for _ in range(4000):
        g = _Growth([seed], [0], 0)
        held = rng.sample(ops, rng.randint(1, 4))
        for i, op in enumerate(held):
            g._defer(i + 1, op)
        op = rng.choice(ops)
        assert _agrees(g.pending, op) == all(commutes(op, h) for h in held), (held, op)
        assert _agrees(g.held, op) == all(commutes(op, h) for h in (seed, *held)), (held, op)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (rz(0, 0.4), cx(0, 1), True),   # Z rotation on a control
        (rx(0, 0.4), cx(0, 1), False),  # X rotation on a control
        (rx(1, 0.4), cx(0, 1), True),   # X rotation on the target
        (cz(0, 1), cz(1, 2), True),     # diagonal gates always commute
        (cx(0, 1), cx(0, 2), True),     # shared control
        (cx(0, 2), cx(1, 2), True),     # shared target
        (cx(0, 1), cx(1, 2), False),    # target feeds the next control
        (rz(3, 0.4), cx(0, 1), True),   # disjoint qubits
        (h(0), cx(0, 1), False),
        (cz(0, 1), cx(2, 1), False),    # CZ touches the CX target
        (cz(0, 2), cx(2, 1), True),     # CZ only on the CX control
    ],
)
def test_commutation_cases(a, b, expected):
    assert commutes(a, b) is expected
    assert commutes(b, a) is expected


def test_commutation_with_classical_interaction():
    m = measure(0, 0)
    conditioned = x(1, condition=Condition((0,)))
    assert not commutes(m, conditioned)        # write feeds read
    assert commutes(m, x(1))                   # disjoint, no classical link
    assert not commutes(m, x(0))               # shared qubit
    assert not commutes(barrier(0, 1), h(0))   # barriers pin their qubits
    assert commutes(barrier(0, 1), h(2))


def _frozenset_commutes(a: Instruction, b: Instruction) -> bool:
    """The classical-bit test `commutes` used to make with four frozensets;
    past it, the answer is that of the same ops with every measured bit
    moved to one no other op touches."""
    def reads(ins):
        return frozenset(ins.condition.bits) if ins.condition is not None else frozenset()

    def writes(ins):
        return frozenset((ins.clbit,)) if ins.clbit is not None else frozenset()

    if writes(a) & reads(b) or writes(b) & reads(a) or writes(a) & writes(b):
        return False
    a = dataclasses.replace(a, clbit=100) if a.clbit is not None else a
    b = dataclasses.replace(b, clbit=101) if b.clbit is not None else b
    return commutes(a, b)


def test_classical_test_matches_frozenset_formula():
    rng = random.Random(5)
    singles = (h, x, y, z, lambda q: rx(q, 0.3), lambda q: rz(q, 0.7))

    def op():
        q, p = rng.sample(range(3), 2)
        r = rng.random()
        if r < 0.25:
            return measure(q, rng.randrange(3))
        if r < 0.5:
            bits = tuple(rng.sample(range(3), rng.randint(1, 3)))
            gate = rng.choice((Gate.X, Gate.Z, Gate.CX))
            qubits = (q, p) if gate is Gate.CX else (q,)
            return Instruction(gate, qubits, condition=Condition(bits))
        if r < 0.6:
            return barrier(q)
        return rng.choice(singles)(q) if r < 0.8 else rng.choice((cx, cz))(q, p)

    pairs = [(op(), op()) for _ in range(5000)]
    verdicts = [commutes(a, b) for a, b in pairs]
    assert verdicts == [_frozenset_commutes(a, b) for a, b in pairs]
    linked = [
        a.clbit is not None and b.condition is not None and a.clbit in b.condition.bits
        for a, b in pairs
    ]
    assert sum(linked) > 100 and sum(verdicts) > 1000 and len(set(verdicts)) == 2


# -- interleaved ops, as the scanner disposes of them ---------------------------


def _only_candidate(c: Circuit) -> ChainCandidate:
    cands = find_chains(c, 2)
    assert len(cands) == 1, cands
    return cands[0]


def _moved_before(cand: ChainCandidate) -> tuple[int, ...]:
    """The ops a rewrite leaves in place: everything between the seed and the
    last chain gate that is neither a chain gate nor moved after the chain."""
    gone = {*cand.gate_indices, *cand.moved_after}
    return tuple(i for i in range(cand.start_index, cand.end_index) if i not in gone)


def test_classify_rz_on_control_moves_after():
    c = circ(4, cx(0, 1), cx(1, 2), rz(2, 0.3), cx(2, 3))
    cand = _only_candidate(c)
    assert cand.gate_indices == (0, 1, 3)
    assert _moved_before(cand) == ()
    assert cand.moved_after == (2,)


def test_classify_ry_on_active_qubit_breaks():
    # RY on the head commutes with nothing it must cross, so the chain from
    # gate 0 ends there; the gates behind it form their own chain.
    c = circ(4, cx(0, 1), ry(1, 0.3), cx(1, 2), cx(2, 3))
    cand = _only_candidate(c)
    assert cand.gate_indices == (2, 3)
    assert cand.qubit_seq == (1, 2, 3)


def test_classify_ry_on_retired_qubit_moves_after():
    # Once the chain has moved past a qubit, an RY there crosses only
    # disjoint gates going right; the move is commutation-checked and legal.
    c = circ(4, cx(0, 1), cx(1, 2), ry(1, 0.3), cx(2, 3))
    cand = _only_candidate(c)
    assert cand.gate_indices == (0, 1, 3)
    assert _moved_before(cand) == ()
    assert cand.moved_after == (2,)


def test_classify_disjoint_moves_before():
    c = circ(8, cx(0, 1), cx(1, 2), cx(5, 6), cx(2, 3))
    cand = _only_candidate(c)
    assert cand.gate_indices == (0, 1, 3)
    assert _moved_before(cand) == (2,)
    assert cand.moved_after == ()


def test_classify_extension_and_cycle_break():
    # A gate that links onto the head only after the chain reached it moves
    # before; the later link extends.  A gate whose target folds back into
    # the chain can move neither way, so the chain ends before its link.
    c = circ(5, cx(0, 1), cx(2, 4), cx(1, 2))
    cand = _only_candidate(c)
    assert cand.qubit_seq == (0, 1, 2)
    assert cand.gate_indices == (0, 2)
    assert _moved_before(cand) == (1,)
    assert cand.moved_after == ()
    c2 = circ(5, cx(0, 1), cx(2, 0), cx(1, 2))
    assert find_chains(c2, 2) == []


# -- scanner ------------------------------------------------------------------


class TestScanner:
    def test_no_two_qubit_gates_done_immediately(self):
        c = circ(3, h(0), rz(1, 0.4), ry(2, 0.2))
        assert find_chains(c, 2) == []

    def test_plain_chain_detected(self):
        cands = find_chains(gen_cx_chain(6), 2)
        assert len(cands) == 1
        assert cands[0].qubit_seq == (0, 1, 2, 3, 4, 5)
        assert cands[0].kind is ChainKind.CX

    def test_reverse_chain_detected(self):
        cands = find_chains(gen_cx_chain(6, "reverse"), 2)
        assert len(cands) == 1
        assert cands[0].qubit_seq == (5, 4, 3, 2, 1, 0)
        assert cands[0].kind is ChainKind.CX

    def test_cz_chain_detected_regardless_of_orientation(self):
        c = circ(4, cz(1, 0), cz(1, 2), cz(3, 2))
        cands = find_chains(c, 2)
        assert len(cands) == 1
        assert cands[0].kind is ChainKind.CZ
        assert cands[0].qubit_seq in ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_rz_on_control_detected_through(self):
        body = [cx(0, 1), cx(1, 2), rz(2, 0.7), cx(2, 3), cx(3, 4), cx(4, 5), cx(5, 6)]
        cands = find_chains(circ(7, *body), 2)
        assert len(cands) == 1
        assert len(cands[0].gate_indices) == 6
        assert cands[0].moved_after == (2,)

    def test_ry_breaks_chain(self):
        body = [cx(0, 1), cx(1, 2), ry(2, 0.7), cx(2, 3), cx(3, 4), cx(4, 5), cx(5, 6)]
        cands = find_chains(circ(7, *body), 2)
        assert all(len(c.gate_indices) < 6 for c in cands)

    def test_intertwined_three_chains(self):
        cands = find_chains(gen_intertwined(3, 6), 2)
        assert len(cands) == 3
        assert all(len(c.gate_indices) == 6 for c in cands)

    def test_barrier_stops_detection(self):
        c = circ(4, cx(0, 1), barrier(0, 1, 2, 3), cx(1, 2), cx(2, 3))
        cands = find_chains(c, 2)
        assert all(
            not (set(k.gate_indices) & {0} and set(k.gate_indices) & {2}) for k in cands
        )
        assert max(len(k.gate_indices) for k in cands) == 2

    def test_cycle_breaks_chain(self):
        c = circ(3, cx(0, 1), cx(1, 2), cx(2, 0))
        cands = find_chains(c, 2)
        assert cands[0].qubit_seq == (0, 1, 2)

    def test_min_gates_threshold(self):
        assert find_chains(gen_cx_chain(4), 4) == []
        assert len(find_chains(gen_cx_chain(5), 4)) == 1

    def test_conditioned_two_qubit_gate_never_seeds(self):
        c = Circuit(
            3, 1,
            (measure(2, 0), Instruction(Gate.CX, (0, 1), condition=Condition((0,)))),
        )
        assert find_chains(c, 2) == []

    def test_accept_splices_and_marks_processed(self):
        scanner = ChainScanner(gen_cx_chain(6), 2)
        cand = scanner.next()
        replacement = decompose_forward(cand.qubit_seq)
        scanner.accept(_window(scanner.instructions, cand, replacement))
        assert scanner.next() is None  # replacement never re-seeds
        assert equivalent_unitary(gen_cx_chain(6), scanner.circuit)

    def test_index_sized_by_used_qubits(self):
        # Two CX on a 2,000,000-qubit register: the scan allocates per
        # instruction and per qubit in use, not per declared qubit.
        c = circ(2_000_000, cx(0, 1), cx(1, 2))
        tracemalloc.start()
        try:
            cands = find_chains(c, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [k.gate_indices for k in cands] == [(0, 1)]
        assert peak < 1_000_000

    def test_rescan_rediscovers_displaced_chains(self):
        tw = gen_intertwined(3, 6)
        scanner = ChainScanner(tw, 2)
        seen = 0
        while (cand := scanner.next()) is not None:
            seen += 1
            replacement = decompose_forward(cand.qubit_seq)
            scanner.accept(_window(scanner.instructions, cand, replacement))
        assert seen == 3
        assert stats(scanner.circuit).depth < stats(tw).depth

    def test_moved_ops_preserve_window_equivalence(self):
        body = [cx(0, 1), rz(1, 0.9), cx(1, 2), h(4), cx(2, 3), rz(0, 0.2)]
        c = circ(5, *body)
        scanner = ChainScanner(c, 2)
        cand = scanner.next()
        assert cand.qubit_seq == (0, 1, 2, 3)
        replacement = decompose_forward(cand.qubit_seq)
        scanner.accept(_window(scanner.instructions, cand, replacement))
        assert equivalent_unitary(c, scanner.circuit)


# -- decompositions -----------------------------------------------------------


class TestDecomposeForward:
    def test_five_qubit_exact_gate_list(self):
        assert decompose_forward([0, 1, 2, 3, 4]) == [
            cx(1, 2), cx(3, 4), cx(0, 2), cx(2, 4), cx(0, 1), cx(2, 3),
        ]

    def test_below_threshold_is_plain(self):
        assert decompose_forward([0, 1, 2]) == [cx(0, 1), cx(1, 2)]

    @pytest.mark.parametrize("n", range(2, 12))
    def test_unitary_equal_to_plain_chain(self, n):
        plain = gen_cx_chain(n)
        dec = Circuit(n, 0, tuple(decompose_forward(range(n))))
        assert equivalent_unitary(plain, dec, tol=1e-9)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_gate_count_at_most_doubled(self, n):
        assert len(decompose_forward(range(n))) <= 2 * (n - 1)

    def test_depth_logarithmic(self):
        def dec_depth(n):
            return stats(Circuit(n, 0, tuple(decompose_forward(range(n))))).depth

        d = {n: dec_depth(n) for n in (8, 16, 32, 33, 64)}
        assert d[16] <= d[8] + 3
        assert d[32] <= d[16] + 3
        assert d[64] <= d[32] + 3
        assert d[64] <= 16
        assert d[33] < 32 / 3

    def test_depth_non_decreasing_in_length(self):
        depths = [
            stats(Circuit(n, 0, tuple(decompose_forward(range(n))))).depth
            for n in range(2, 65)
        ]
        assert all(a <= b for a, b in zip(depths, depths[1:]))


class TestDecomposeReverse:
    """Descending chains take the same construction as ascending ones."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_unitary_equal_to_plain_reverse_chain(self, n):
        plain = gen_cx_chain(n, "reverse")
        seq = list(range(n - 1, -1, -1))
        dec = Circuit(n, 0, tuple(decompose_forward(seq)))
        assert equivalent_unitary(plain, dec, tol=1e-9)

    def test_three_qubit_reverse_unchanged(self):
        assert decompose_forward([2, 1, 0]) == [cx(2, 1), cx(1, 0)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_gate_count_at_most_doubled(self, n):
        assert len(decompose_forward(range(n - 1, -1, -1))) <= 2 * (n - 1)


class TestDecomposeCz:
    def test_five_qubit_layers(self):
        assert decompose_cz([0, 1, 2, 3, 4]) == [cz(0, 1), cz(2, 3), cz(1, 2), cz(3, 4)]

    @pytest.mark.parametrize("n", range(3, 65))
    def test_depth_exactly_two(self, n):
        c = Circuit(n, 0, tuple(decompose_cz(range(n))))
        assert stats(c).depth == 2

    @pytest.mark.parametrize("n", range(3, 12))
    def test_unitary_equal(self, n):
        assert equivalent_unitary(
            gen_cz_chain(n), Circuit(n, 0, tuple(decompose_cz(range(n)))), tol=1e-9
        )

    def test_gate_count_unchanged(self):
        for n in (3, 8, 20):
            assert len(decompose_cz(range(n))) == n - 1


class TestDecomposeCzToCx:
    def test_five_qubit_exact_gate_list(self):
        assert decompose_cz_to_cx([0, 1, 2, 3, 4]) == [
            h(1), h(3), cx(0, 1), cx(2, 3), cx(2, 1), cx(4, 3), h(1), h(3),
        ]

    @pytest.mark.parametrize("n", range(3, 12))
    def test_unitary_equal_to_cz_chain(self, n):
        c = Circuit(n, 0, tuple(decompose_cz_to_cx(range(n))))
        assert equivalent_unitary(gen_cz_chain(n), c, tol=1e-9)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_depth_exactly_four(self, n):
        assert stats(Circuit(n, 0, tuple(decompose_cz_to_cx(range(n))))).depth == 4

    def test_shallower_than_naive_per_gate_lowering(self):
        # Lowering each CZ independently (H target, CX, H target) keeps the
        # chain's sequential structure, depth >= 6; even lowering the
        # two-layer form gate by gate is deeper than the shared-Hadamard form.
        n = 5
        naive_plain: list[Instruction] = []
        for gate in gen_cz_chain(n).instructions:
            a, b = gate.qubits
            naive_plain += [h(b), cx(a, b), h(b)]
        naive_plain_c = Circuit(n, 0, tuple(naive_plain))
        assert equivalent_unitary(gen_cz_chain(n), naive_plain_c)
        assert stats(naive_plain_c).depth >= 6

        naive_layered: list[Instruction] = []
        for gate in decompose_cz(range(n)):
            a, b = gate.qubits
            naive_layered += [h(b), cx(a, b), h(b)]
        naive_layered_c = Circuit(n, 0, tuple(naive_layered))
        assert equivalent_unitary(gen_cz_chain(n), naive_layered_c)

        optimized = Circuit(n, 0, tuple(decompose_cz_to_cx(range(n))))
        assert stats(optimized).depth == 4
        assert stats(naive_plain_c).depth > 4
        assert stats(naive_layered_c).depth > 4


# -- soundness on randomized interleavings ------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_randomized_window_soundness(seed):
    """Chains rewritten inside noisy circuits stay unitary-equal overall."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    body: list[Instruction] = []
    chain_start = int(rng.integers(0, 3))
    for _ in range(chain_start):
        body.append(rz(int(rng.integers(n)), float(rng.uniform(0, 6))))
    start = int(rng.integers(0, 2))
    length = int(rng.integers(3, n - start))
    for i in range(start, start + length - 1):
        body.append(cx(i, i + 1))
        if rng.random() < 0.5:
            kind = rng.choice(["rz_ctrl", "disjoint", "rx_tgt"])
            if kind == "rz_ctrl":
                body.append(rz(i + 1, float(rng.uniform(0, 6))))
            elif kind == "disjoint" and start + length < n:
                body.append(h(n - 1))
            else:
                body.append(rx(i + 1, float(rng.uniform(0, 6))))
    for _ in range(int(rng.integers(0, 3))):
        body.append(ry(int(rng.integers(n)), float(rng.uniform(0, 6))))
    c = Circuit(n, 0, tuple(body))

    scanner = ChainScanner(c, 2)
    while (cand := scanner.next()) is not None:
        replacement = decompose_forward(cand.qubit_seq)
        scanner.accept(_window(scanner.instructions, cand, replacement))
    assert equivalent_unitary(c, scanner.circuit, tol=1e-9)


# -- the per-wire walk against the linear reference ---------------------------


def _linear_grow(scanner: ChainScanner, seed: int) -> ChainCandidate | None:
    """Reference growth: offer every later instruction to the policy in turn,
    recording the ops it moves before the chain; those must be exactly the
    ones the candidate's rewrite leaves in place."""
    g = _Growth(scanner.instructions, scanner._state, seed)
    before = []
    for j in range(seed + 1, len(scanner.instructions)):
        op = scanner.instructions[j]
        result = g._try_extend(j, op)
        if result == "extended":
            continue
        if result == "stop":
            break
        deferred = len(g.pending_after)
        if not g.classify(j, op):
            break
        if len(g.pending_after) == deferred:
            before.append(j)
    cand = g.finish(scanner.min_gates)
    if cand is not None:
        assert _moved_before(cand) == tuple(i for i in before if i < cand.end_index)
    return cand


def _random_dynamic_circuit(seed: int) -> Circuit:
    """Linked CX and CZ runs among stray two-qubit gates, rotations, mid-circuit
    measurements (each bit written once), parity-conditioned X gates and
    partial barriers, sometimes after a GHZ preparation."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    num_clbits = rng.randint(0, 4)
    free = list(range(num_clbits))
    rng.shuffle(free)
    written: list[int] = []
    body: list[Instruction] = []
    if rng.random() < 0.3:
        fanout = rng.random() < 0.5
        body.append(h(0))
        body += [cx(0 if fanout else i - 1, i) for i in range(1, rng.randint(2, n))]
    singles = (h, x, y, z, lambda q: rx(q, 0.3), lambda q: ry(q, 0.5), lambda q: rz(q, 0.7))
    for _ in range(rng.randint(5, 60)):
        r = rng.random()
        if r < 0.25:
            a, b = rng.sample(range(n), 2)
            body.append(cx(a, b) if rng.random() < 0.7 else cz(a, b))
        elif r < 0.45:
            start = rng.randrange(n - 1)
            pairs = [(i, i + 1) for i in range(start, min(n - 1, start + rng.randint(1, 5)))]
            kind = rng.choice(("cx", "cx_reverse", "cz"))
            if kind == "cx_reverse":
                body += [cx(b, a) for a, b in reversed(pairs)]
            elif kind == "cx":
                body += [cx(a, b) for a, b in pairs]
            else:
                body += [cz(a, b) if rng.random() < 0.5 else cz(b, a) for a, b in pairs]
        elif r < 0.52 and free:
            bit = free.pop()
            body.append(measure(rng.randrange(n), bit))
            written.append(bit)
        elif r < 0.6 and written:
            bits = tuple(sorted(rng.sample(written, rng.randint(1, len(written)))))
            body.append(x(rng.randrange(n), condition=Condition(bits)))
        elif r < 0.64:
            body.append(barrier(*rng.sample(range(n), rng.randint(1, n))))
        else:
            body.append(rng.choice(singles)(rng.randrange(n)))
    return Circuit(n, num_clbits, tuple(body))


def _bench_family_circuits() -> list[Circuit]:
    out = [gen_ghz_standard(n) for n in (2, 5, 16)]
    out += [gen_cx_chain(n, d) for n in (5, 12) for d in ("forward", "reverse")]
    out += [gen_cz_chain(n) for n in (3, 9)]
    out += [gen_intertwined(3, 6), gen_intertwined(4, 5)]
    out += [
        gen_ansatz(AnsatzSpec(family, 6, 2, ent, 3))
        for family in ANSATZ_FAMILIES
        for ent in ENTANGLEMENTS
    ]
    out += [gen_random(8, 80, seed=s) for s in range(5)]
    return out


_DIFF_BLOCKS = 10
_DIFF_BLOCK_SIZE = 100
_COMPILE_CONFIGS = [
    PassConfig(ghz_mode=ghz, chain_mode=chains, min_chain_gates=2)
    for chains in (ChainMode.CONSERVATIVE, ChainMode.ALWAYS)
    for ghz in (GhzMode.OFF, GhzMode.ROBUST, GhzMode.PARALLEL)
]


def _diff_circuits(block: int) -> list[Circuit]:
    seeds = range(block * _DIFF_BLOCK_SIZE, (block + 1) * _DIFF_BLOCK_SIZE)
    circuits = [_random_dynamic_circuit(s) for s in seeds]
    return circuits + (_bench_family_circuits() if block == 0 else [])


@pytest.mark.parametrize("block", range(_DIFF_BLOCKS))
def test_index_walk_matches_linear_walk(block, monkeypatch):
    """1,000 random dynamic circuits plus the bench families: detection,
    decisions and emitted text equal those of the walk over every op."""
    for c in _diff_circuits(block):
        fast = {k: find_chains(c, k) for k in (2, 5)}
        compiled = [compile_circuit(c, cfg) for cfg in _COMPILE_CONFIGS]
        with monkeypatch.context() as m:
            m.setattr(ChainScanner, "_grow", _linear_grow)
            for k, found in fast.items():
                assert found == find_chains(c, k), (c, k)
            for cfg, got in zip(_COMPILE_CONFIGS, compiled):
                want = compile_circuit(c, cfg)
                assert got.decisions == want.decisions, (c, cfg)
                assert emit(got.circuit) == emit(want.circuit), (c, cfg)


@pytest.mark.parametrize("block", range(_DIFF_BLOCKS))
def test_window_gate_equals_two_schedules(block):
    """Every chain candidate of the differential corpus, with each of its
    replacements, and every GHZ site, with each of its constructions or None:
    the gate decides as scheduling the window before and after does, and
    never applies None.  Chain candidates share one side cache per circuit
    and replacement rule, as in a pass; GHZ sites take none and are
    scheduled in the gate."""
    shared = 0
    for c in _diff_circuits(block):
        ins = c.instructions
        cases = []
        for cz_to_cx in (False, True):
            sides = {}
            config = PassConfig(cz_to_cx=cz_to_cx)
            cases += [(cand, _replacement_for(cand, config), sides) for cand in find_chains(c, 2)]
        for mode in (GhzMode.ROBUST, GhzMode.PARALLEL):
            config = PassConfig(ghz_mode=mode)
            cases += [(s, _replacement_for(s, config, c.num_clbits), None) for s in detect_ghz(c)]
        for cand, replacement, sides in cases:
            gates = [ins[i] for i in cand.gate_indices]
            tail = list(ins[cand.end_index + 1 : cand.end_index + 1 + DEPTH_SCOPE])
            before = depth_of(gates + tail)
            after = before if replacement is None else depth_of([*replacement, *tail])
            pair = None
            if sides is not None:
                key = _built_key(ins, cand)
                if key in sides:
                    shared += 1  # sides another candidate of the circuit scheduled
                else:
                    sides[key] = _sides(ins, cand, replacement)
                pair = sides[key]
            for mode in (ChainMode.CONSERVATIVE, ChainMode.ALWAYS):
                applied = replacement is not None and (mode is ChainMode.ALWAYS or after < before)
                want = GateDecision(cand, before, after, applied)
                assert _gate(ins, cand, replacement, mode, sides=pair) == want, (c, cand)
    assert shared > 100  # the cached sides are exercised


@pytest.mark.parametrize("block", range(_DIFF_BLOCKS))
def test_window_tails_are_swept_once_per_list(block, monkeypatch):
    """The chain pass sweeps each window tail once until an accept changes
    the list: decisions and emitted text equal those of a sweep per
    candidate, with fewer sweeps."""
    sweeps = 0
    paths_of = pipeline.paths_of

    def counting(ops):
        nonlocal sweeps
        sweeps += 1
        return paths_of(ops)

    gate = pipeline._gate

    def unshared(ins, cand, replacement, mode, index=None, sides=None, tails=None):
        return gate(ins, cand, replacement, mode, index, sides)

    monkeypatch.setattr(pipeline, "paths_of", counting)
    cases = [(c, cfg) for c in _diff_circuits(block) for cfg in _COMPILE_CONFIGS]
    shared = [compile_circuit(c, cfg) for c, cfg in cases]
    shared_sweeps, sweeps = sweeps, 0
    monkeypatch.setattr(pipeline, "_gate", unshared)
    for (c, cfg), got in zip(cases, shared):
        want = compile_circuit(c, cfg)
        assert got.decisions == want.decisions, (c, cfg)
        assert emit(got.circuit) == emit(want.circuit), (c, cfg)
    assert shared_sweeps < sweeps, (shared_sweeps, sweeps)


def test_differential_corpus_exercises_every_feature():
    circuits = [c for b in range(_DIFF_BLOCKS) for c in _diff_circuits(b)]
    ops = [ins for c in circuits for ins in c.instructions]
    assert any(ins.gate is Gate.MEASURE for ins in ops)
    assert any(ins.condition is not None and len(ins.condition.bits) > 1 for ins in ops)
    assert any(ins.gate is Gate.BARRIER and len(ins.qubits) == 1 for ins in ops)
    cands = [k for c in circuits for k in find_chains(c, 2)]
    assert {k.kind for k in cands} == set(ChainKind) - {ChainKind.GHZ}
    assert sum(bool(_moved_before(k)) for k in cands) > 50
    assert sum(bool(k.moved_after) for k in cands) > 50


# -- the adjacent run ---------------------------------------------------------


def _scan(c: Circuit, min_gates: int, replaced=()) -> list[ChainCandidate]:
    """`find_chains` with the ops at `replaced` held as an earlier rewrite's."""
    scanner = ChainScanner(c, min_gates, replaced=replaced)
    found = []
    while (cand := scanner.next()) is not None:
        found.append(cand)
        scanner.skip()
    return found


@st.composite
def _cut_runs(draw) -> tuple[Circuit, frozenset[int]]:
    """Linked CX and CZ runs (each CZ's operands in either order, so a CZ
    chain orients on either end of its seed), each cut after some links by a
    barrier, a conditioned op on a chain wire or on the next link, a
    cycle-closing link, a gate or a measurement on a chain wire, a stray
    gate, or nothing, and sometimes continued past the cut; then positions
    drawn to hold an earlier rewrite's ops."""
    n = draw(st.integers(3, 8))
    qubit = st.integers(0, n - 1)
    singles = (h, x, z, lambda q: rz(q, 0.7), lambda q: ry(q, 0.5))
    bits = 3
    unwritten = list(range(bits))
    body: list[Instruction] = []
    for _ in range(draw(st.integers(1, 4))):
        is_cz = draw(st.booleans())
        seq = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
        gates = [
            cz(*((a, b) if draw(st.booleans()) else (b, a))) if is_cz else cx(a, b)
            for a, b in zip(seq, seq[1:])
        ]
        cut = draw(st.integers(1, len(gates)))
        body += gates[:cut]
        on_chain = st.sampled_from(seq[: cut + 1])
        cutter = draw(st.sampled_from([
            "barrier", "conditioned", "conditioned_link", "cycle",
            "wire", "measure", "stray", "none",
        ]))
        if cutter == "barrier":
            body.append(barrier(*draw(st.lists(qubit, min_size=1, max_size=n, unique=True))))
        elif cutter == "conditioned":
            body.append(x(draw(on_chain), condition=Condition((draw(st.integers(0, bits - 1)),))))
        elif cutter == "conditioned_link" and cut < len(gates):
            body.append(dataclasses.replace(gates[cut], condition=Condition((0, 1))))
        elif cutter == "cycle" and cut >= 2:
            earlier = draw(st.sampled_from(seq[: cut - 1]))
            body.append(cz(seq[cut], earlier) if is_cz else cx(seq[cut], earlier))
        elif cutter == "wire":
            body.append(draw(st.sampled_from(singles))(draw(on_chain)))
        elif cutter == "measure" and unwritten:
            body.append(measure(draw(on_chain), unwritten.pop()))
        elif cutter == "stray":
            a, b = draw(st.permutations(range(n)))[:2]
            body.append(cx(a, b) if draw(st.booleans()) else draw(st.sampled_from(singles))(a))
        if draw(st.booleans()):
            body += gates[cut:]
        for _ in range(draw(st.integers(0, 2))):
            body.append(draw(st.sampled_from(singles))(draw(qubit)))
    replaced = set()
    if draw(st.booleans()):
        replaced = draw(st.sets(st.integers(0, len(body) - 1), max_size=3))
    return Circuit(n, bits, tuple(body)), frozenset(replaced)


def _assert_matches_linear_walk(c: Circuit, replaced: frozenset[int]) -> None:
    """Detection, with and without the positions `replaced` held as an
    earlier rewrite's, and every compile decision and output equal those
    of the walk over every op."""
    fast = {(k, r): _scan(c, k, r) for k in (2, 3) for r in ((), replaced)}
    compiled = [compile_circuit(c, cfg) for cfg in _COMPILE_CONFIGS]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ChainScanner, "_grow", _linear_grow)
        for (k, r), found in fast.items():
            assert found == _scan(c, k, r), (c, k, r)
        for cfg, got in zip(_COMPILE_CONFIGS, compiled):
            want = compile_circuit(c, cfg)
            assert got.decisions == want.decisions, (c, cfg)
            assert emit(got.circuit) == emit(want.circuit), (c, cfg)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cut_runs())
# A one-gate CZ run whose head links no further, while its other end does.
@example((circ(3, cz(1, 0), x(2), cz(1, 2)), frozenset()))
def test_adjacent_run_matches_linear_walk(case):
    """Runs cut every way the walk must take over from."""
    _assert_matches_linear_walk(*case)


@st.composite
def _reach_cases(draw) -> tuple[Circuit, frozenset[int]]:
    """A CX or CZ chain - a CZ chain sometimes of one gate, so either end
    may link - then ops on an end, each sometimes followed by a link there:
    a CZ on two chain qubits, a link held as an earlier rewrite's, a
    conditioned op or link, an h or ry, a barrier off the chain, a link
    back into the chain, an op deferred onto a qubit off the chain with X
    or with Z, a run of X (with some Z) on the end, or nothing."""
    n = draw(st.integers(4, 9))
    is_cz = draw(st.booleans())
    seq = list(draw(st.permutations(range(n)))[: draw(st.integers(2, 4))])
    if is_cz and draw(st.booleans()):
        seq = seq[:2]

    def link(a: int, b: int) -> Instruction:
        return cz(*((a, b) if draw(st.booleans()) else (b, a))) if is_cz else cx(a, b)

    body = [link(a, b) for a, b in zip(seq, seq[1:])]
    replaced = set()
    for _ in range(draw(st.integers(1, 4))):
        end = draw(st.sampled_from((seq[0], seq[-1]))) if is_cz else seq[-1]
        other = seq[0] if end != seq[0] else seq[-1]
        fresh = [q for q in range(n) if q not in seq]
        new = draw(st.sampled_from(fresh)) if fresh else None
        kind = draw(st.sampled_from([
            "both_ends", "replaced", "conditioned", "conditioned_link", "h", "ry",
            "barrier", "cycle", "hold_x", "hold_z", "x_run", "none",
        ]))
        if kind == "both_ends":
            body.append(link(end, other))
        elif kind == "replaced":
            replaced.add(len(body))
            body.append(link(end, draw(st.sampled_from([q for q in range(n) if q != end]))))
        elif kind == "conditioned":
            body.append(x(end, condition=Condition((0,))))
        elif kind == "conditioned_link" and new is not None:
            body.append(dataclasses.replace(link(end, new), condition=Condition((0,))))
        elif kind in ("h", "ry"):
            body.append(h(end) if kind == "h" else ry(end, 0.5))
        elif kind == "barrier" and fresh:
            body.append(barrier(*draw(st.lists(st.sampled_from(fresh), min_size=1, unique=True))))
        elif kind == "cycle" and len(seq) >= 3:
            body.append(link(end, draw(st.sampled_from(seq[1:-1]))))
        elif kind in ("hold_x", "hold_z") and fresh:
            held = draw(st.sampled_from(fresh))  # linked now or by a later link
            body.append(cx(other, held) if kind == "hold_x" else cz(other, held))
        elif kind == "x_run":
            steps = st.sampled_from(["x", "rx", "cx", "rz"])
            for step in draw(st.lists(steps, min_size=2, max_size=16)):
                if step == "cx":
                    body.append(cx(draw(st.sampled_from([q for q in range(n) if q != end])), end))
                elif step == "rz":
                    body.append(rz(end, 0.7))
                else:
                    body.append(x(end) if step == "x" else rx(end, 0.3))
        if new is not None and draw(st.integers(0, 3)):
            body.append(link(end, new))
            seq = [new, *seq] if end == seq[0] and len(seq) > 1 and is_cz else [*seq, new]
        if draw(st.booleans()):
            stray = draw(st.sampled_from((h, z, lambda q: rz(q, 0.2))))
            body.append(stray(draw(st.integers(0, n - 1))))
    return Circuit(n, 1, tuple(body)), frozenset(replaced)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_reach_cases())
# A CZ on both ends of a one-gate CZ chain is passed, then either end links.
@example((circ(3, cz(0, 1), cz(1, 0), cz(0, 2)), frozenset()))
@example((circ(3, cz(0, 1), cz(0, 1), cz(2, 1)), frozenset()))
# The head's first link is an earlier rewrite's and closes a cycle; a real
# link follows.
@example((circ(4, cx(0, 1), cx(1, 2), cx(2, 0), cx(2, 3)), frozenset({2})))
# A long X run on the head, then its link.
@example((circ(4, cx(0, 1), cx(1, 2), *[x(2)] * 12, cx(3, 2), rx(2, 0.3), cx(2, 3)), frozenset()))
# A deferred op holds the next link's new qubit with X (the link extends)
# or Z (it ends the growth), before and after the walk extends the chain.
@example((circ(4, cx(0, 1), cx(1, 2), cx(0, 3), cx(2, 3)), frozenset()))
@example((circ(4, cx(0, 1), cx(1, 2), cz(0, 3), cx(2, 3)), frozenset()))
@example((circ(5, cx(0, 1), cx(1, 2), rz(2, 0.7), cx(0, 4), cx(2, 3), cx(3, 4)), frozenset()))
@example((circ(5, cx(0, 1), cx(1, 2), rz(2, 0.7), cz(0, 4), cx(2, 3), cx(3, 4)), frozenset()))
def test_reachability_matches_linear_walk(case):
    """Whatever lies on the head between its links: growth ends where the
    head can reach no link, and detection and every compile equal those of
    the walk over every op."""
    _assert_matches_linear_walk(*case)


class _CountingWalk(UseWalk):
    built = 0
    yielded = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)

    def __iter__(self):
        for p in super().__iter__():
            type(self).yielded += 1
            yield p


def test_linear_ladder_grows_without_a_walk(monkeypatch):
    # Each 999-link ladder of a layered ansatz is one adjacent run, and its
    # head, the last qubit, controls no later CX: no walk is needed.
    monkeypatch.setattr(chains, "UseWalk", _CountingWalk)
    _CountingWalk.built = 0
    c = gen_ansatz(AnsatzSpec("two_local", 1000, 2, "linear", 7))
    assert [len(k.gate_indices) for k in find_chains(c, 5)] == [999, 999]
    assert find_chains(gen_cx_chain(1000), 5)[0].qubit_seq == tuple(range(1000))
    assert _CountingWalk.built == 0
    # A run cut where its head has a later link hands over to the walk.
    assert len(_only_candidate(circ(3, cx(0, 1), rz(1, 0.3), cx(1, 2))).gate_indices) == 2
    assert _CountingWalk.built == 1


@pytest.mark.parametrize(
    "case",
    [
        (circ(4, cx(0, 1), cx(1, 2), h(2), cx(2, 3)), ()),  # a letter the head cannot pass
        (circ(4, cx(0, 1), cx(1, 2), x(2, condition=Condition((0,))), cx(2, 3), clbits=1), ()),
        (circ(4, cx(0, 1), cx(1, 2), measure(2, 0), cx(2, 3), clbits=1), ()),
        (circ(5, cx(0, 1), cx(1, 2), barrier(4), cx(2, 3)), ()),  # past the next barrier
        (circ(3, cx(0, 1), cx(1, 2), rz(2, 0.7), cx(2, 0)), ()),  # the link closes a cycle
        (circ(4, cx(0, 1), cx(1, 2), cx(2, 3)), (2,)),  # the link is an earlier rewrite's
        (circ(4, cz(0, 1), cz(2, 1), x(2), y(0), cz(2, 3), cz(0, 3)), ()),  # X on a CZ end
    ],
    ids=["h", "conditioned", "measure", "barrier", "cycle", "replaced", "cz_x"],
)
def test_unreachable_link_builds_no_walk(case, monkeypatch):
    # Each head has a later link that no growth can reach: the growth ends
    # with its adjacent run, and no seed builds a walk.
    c, replaced = case
    monkeypatch.setattr(chains, "UseWalk", _CountingWalk)
    _CountingWalk.built = 0
    found = _scan(c, 2, replaced)
    assert _CountingWalk.built == 0
    monkeypatch.setattr(ChainScanner, "_grow", _linear_grow)
    assert found == _scan(c, 2, replaced) != []


@pytest.mark.parametrize("block", range(_DIFF_BLOCKS))
def test_report_depths_are_exact(block):
    """Every depth a compile hands to the report is `depth` of its list,
    under every GHZ and chain mode; the indexes cover most lists."""
    configs = [
        PassConfig(ghz_mode=ghz, chain_mode=mode, min_chain_gates=2)
        for mode in ChainMode
        for ghz in GhzMode
    ]
    known = 0
    for c in _diff_circuits(block):
        for cfg in configs:
            result = compile_circuit(c, cfg)
            if result.input_depth is not None:
                assert result.input_depth == depth(c), (c, cfg)
                known += 1
            if result.output_depth is not None:
                assert result.output_depth == depth(result.circuit), (c, cfg)
                known += 1
    assert known > 200


# -- scaling of the growth ----------------------------------------------------


def _chain_then_fanout(n: int) -> Circuit:
    return circ(n, *(cx(i, i + 1) for i in range(n - 1)), *(cx(0, i) for i in range(1, n)))


@pytest.mark.parametrize(
    "shape",
    [
        lambda n: compile_circuit(
            gen_ghz_standard(n), PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.OFF)
        ).circuit,
        _chain_then_fanout,
    ],
    ids=["ghz_log_cascade", "chain_then_fanout"],
)
def test_growth_visits_scale_near_linearly(shape, monkeypatch):
    # Counts ops offered to the policy, not wall time: doubling the width
    # may at most about double the work (the walk over every later op
    # quadruples it on both shapes).
    visits = 0
    try_extend = _Growth._try_extend

    def counting(self, pos, op):
        nonlocal visits
        visits += 1
        return try_extend(self, pos, op)

    monkeypatch.setattr(_Growth, "_try_extend", counting)
    counts = []
    for n in (1000, 2000):
        visits = 0
        find_chains(shape(n), 2)
        counts.append(visits)
    assert counts[1] <= 2.5 * counts[0], counts


def test_growth_visits_on_full_entanglement(monkeypatch):
    # Every CX of a full-entanglement layer seeds a growth, and the fan-outs
    # it crosses act as Z on their shared control: a walk that passes over
    # the uses that commute with what it defers, and stops once the head
    # holds a deferred X, offers the policy 39,680 ops here (203,240 when
    # every use of an active wire was offered).
    visits = 0
    try_extend = _Growth._try_extend

    def counting(self, pos, op):
        nonlocal visits
        visits += 1
        return try_extend(self, pos, op)

    monkeypatch.setattr(_Growth, "_try_extend", counting)
    c = gen_ansatz(AnsatzSpec("two_local", 32, 4, "full", 7))
    # Each layer is offered as one inverse chain first; skipped here, its
    # gates are grown as before, and no growth yields a candidate.
    assert [k.kind for k in find_chains(c, 5)] == [ChainKind.INVERSE] * 4
    assert visits <= 50_000, visits


@pytest.mark.parametrize(
    "entanglement, ns, min_gates", [("sca", (128, 256, 512), 5), ("full", (16, 32, 64), 2)]
)
def test_growth_work_scales_near_linearly(entanglement, ns, min_gates, monkeypatch):
    # An `sca` layer's ladder runs in reverse order, so each CX seeds a
    # growth whose head's next links lie behind a Y use: the growth ends
    # with its adjacent run.  A `full` layer is one CX run whose map is an
    # inverse chain, rewritten before any of its gates seeds a growth (each
    # of them grew one, crossing the rest of its fan-out row: about N^1.5).
    # Walk yields, classified ops and folded gates may at most about double
    # per doubling of the instruction count (on `sca` the first two
    # quadrupled while each growth walked on until the head's last link).
    monkeypatch.setattr(chains, "UseWalk", _CountingWalk)
    classified = folded = 0
    classify, shape_of = _Growth.classify, chains._linear_shape

    def counting(self, pos, op):
        nonlocal classified
        classified += 1
        return classify(self, pos, op)

    def counting_fold(run):
        nonlocal folded
        folded += len(run)
        return shape_of(run)

    monkeypatch.setattr(_Growth, "classify", counting)
    monkeypatch.setattr(chains, "_linear_shape", counting_fold)
    counts, sizes = [], []
    for n in ns:
        _CountingWalk.yielded = classified = folded = 0
        c = gen_ansatz(AnsatzSpec("two_local", n, 4, entanglement, 7))
        config = PassConfig(chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=min_gates)
        compile_circuit(c, config)
        counts.append((_CountingWalk.yielded, classified, folded))
        sizes.append(len(c))
    for i in range(1, len(ns)):
        limit = 2.5 ** math.log2(sizes[i] / sizes[i - 1])
        assert all(a <= limit * b for a, b in zip(counts[i], counts[i - 1])), (counts, sizes)


class _CountingRuns:
    """A wire's letter runs, counting the entries read."""

    read = 0

    def __init__(self, runs):
        self.runs = runs

    def __getitem__(self, k):
        type(self).read += 1
        return self.runs[k]


def test_reachability_visits_at_most_the_walks_yields_on_full(monkeypatch):
    # On a `full` layer every use the head's reachability check visits lies
    # before its next link, where the walk yields it too: the check at most
    # doubles the walk's cost per use.  The check reads one entry of the
    # head's letter runs per use it visits, and it alone reads the runs
    # `UseTable.runs_of` returns.  A compile rewrites each layer as one CX
    # run before its gates seed; detection skips the runs and grows them.
    monkeypatch.setattr(chains, "UseWalk", _CountingWalk)
    runs_of = UseTable.runs_of
    monkeypatch.setattr(
        UseTable, "runs_of", lambda self, w, ins: _CountingRuns(runs_of(self, w, ins))
    )
    for n in (16, 32):
        _CountingWalk.yielded = _CountingRuns.read = 0
        c = gen_ansatz(AnsatzSpec("two_local", n, 4, "full", 7))
        find_chains(c, 5)
        read, yielded = _CountingRuns.read, _CountingWalk.yielded
        assert 0 < read <= yielded, (n, read, yielded)


# -- CX runs as linear maps ---------------------------------------------------

_RUN_KINDS = (ChainKind.INVERSE, ChainKind.FANOUT)


def _reference_shape(run: list[Instruction], n: int):
    """A CX run's map as a 0/1 matrix over all n qubits: (INVERSE, paths)
    where the map minus the identity is the edges of disjoint paths,
    (FANOUT, control, targets) where they are one column of two or more,
    else None."""
    m = np.eye(n, dtype=np.uint8)
    for op in run:
        c, t = op.qubits
        m[t] ^= m[c]
    rows, cols = np.nonzero(m ^ np.eye(n, dtype=np.uint8))
    edges = [(int(c), int(t)) for t, c in zip(rows, cols)]  # t's row holds c: c feeds t
    if not edges or any(c == t for c, t in edges):
        return None
    sources, sinks = {c for c, _ in edges}, [t for _, t in edges]
    if len(edges) > 1 and len(sources) == 1:
        return ChainKind.FANOUT, sources.pop(), set(sinks)
    feeds = dict(edges)
    if len(feeds) != len(edges) or len(set(sinks)) != len(sinks):
        return None
    paths = set()
    for start in sources - set(sinks):
        path = [start]
        while path[-1] in feeds:
            path.append(feeds[path[-1]])
        paths.add(tuple(path))
    covered = sum(len(p) - 1 for p in paths) == len(edges)
    return (ChainKind.INVERSE, paths) if covered else None


def _paths(cand: ChainCandidate) -> set[tuple[int, ...]]:
    bounds = (0, *cand.splits, len(cand.qubit_seq))
    return {cand.qubit_seq[a:b] for a, b in zip(bounds, bounds[1:])}


@st.composite
def _cx_runs(draw) -> tuple[Circuit, int, int]:
    """One run of CX gates between two rotation layers, on qubits in a
    random order: a `full` layer, a reverse-order ladder, a fan-out with
    its targets in any order, two or three `full` layers or reverse-order
    ladders on disjoint qubits with their gates interleaved, a plain chain
    or random CX gates, sometimes with a cancelling pair inserted.  Returns
    the circuit, the run's first position and its length."""
    n = draw(st.integers(3, 24))  # a fan-out gains from about 16 targets
    order = draw(st.permutations(range(n)))
    seq = order[: draw(st.integers(2, n))]
    shapes = ["full", "reverse_ladder", "fanout", "paths", "chain", "random"]
    shape = draw(st.sampled_from(shapes if n >= 4 else shapes[:3]))
    if shape == "paths":
        cuts = sorted(draw(st.sets(st.integers(2, n - 2), min_size=1, max_size=2)))
        parts = [order[a:b] for a, b in zip((0, *cuts), (*cuts, n)) if b - a >= 2]
        lanes = [
            [cx(a, b) for i, a in enumerate(p) for b in p[i + 1 :]] if draw(st.booleans())
            else [cx(a, b) for a, b in reversed(list(zip(p, p[1:])))]
            for p in parts
        ]
        gates = []
        while any(lanes):
            gates.append(draw(st.sampled_from([lane for lane in lanes if lane])).pop(0))
    elif shape == "full":
        gates = [cx(a, b) for i, a in enumerate(seq) for b in seq[i + 1 :]]
    elif shape == "reverse_ladder":
        gates = [cx(a, b) for a, b in reversed(list(zip(seq, seq[1:])))]
    elif shape == "fanout":
        seq = order if draw(st.booleans()) else seq
        gates = [cx(seq[0], t) for t in draw(st.permutations(seq[1:]))]
    elif shape == "chain":
        gates = [cx(a, b) for a, b in zip(seq, seq[1:])]
    else:
        pairs = st.permutations(range(n)).map(lambda p: cx(p[0], p[1]))
        gates = draw(st.lists(pairs, min_size=1, max_size=14))
    if draw(st.booleans()):
        pair = draw(st.permutations(range(n)))[:2]
        at = draw(st.integers(0, len(gates)))
        gates[at:at] = [cx(*pair), cx(*pair)]
    body = [ry(q, 0.5) for q in range(n)] + gates + [ry(q, 0.3) for q in range(n)]
    return Circuit(n, 0, tuple(body)), n, len(gates)


def _relabel(c: Circuit, perm: list[int]) -> Circuit:
    return Circuit(c.num_qubits, 0, tuple(
        Instruction(op.gate, [perm[q] for q in op.qubits], op.angle) for op in c.instructions
    ))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cx_runs(), st.randoms(use_true_random=False))
@example((_relabel(gen_ansatz(AnsatzSpec("two_local", 8, 1, "full", 7)), [3, 7, 0, 5, 1, 6, 2, 4]),
          8, 28), random.Random(0))
@example((circ(21, ry(0, 0.5), *[cx(0, t) for t in range(20, 0, -1)]), 1, 20), random.Random(1))
# A cancelling pair: the identity map is no path.
@example((circ(2, ry(0, 0.5), cx(0, 1), cx(0, 1)), 1, 2), random.Random(4))
# Two reverse-order ladders of six gates, interleaved: two paths.
@example((circ(14, ry(0, 0.5),
               *[g for k in range(5, -1, -1) for g in (cx(k, k + 1), cx(k + 7, k + 8))]),
          1, 12), random.Random(5))
# A fan-out whose control ends up holding only the next wire's value: its
# row lacks its own bit, so the map is no shape.
@example((circ(34, ry(0, 0.5), cx(0, 1), *[cx(0, t) for t in range(2, 34)], cx(1, 0)), 1, 34),
         random.Random(2))
# A fan-out plus one more edge out of a target: one bit feeds two others
# and another feeds one, so the edges are no path.
@example((circ(19, ry(0, 0.5), cx(17, 18), *[cx(0, t) for t in range(1, 18)]), 1, 18),
         random.Random(3))
def test_cx_runs_are_offered_by_their_map(case, rng):
    """A run is offered exactly when its map is inverse chains or a fan-out
    and the rewrite is shallower, as one candidate over the whole run,
    under any relabelling of the qubits; every other run, plain chains
    included, is left to the growth, which finds what it found without the
    fold; every rewrite offered is the same unitary as its run."""
    c, start, length = case
    run = list(c.instructions[start : start + length])
    want = _reference_shape(run, c.num_qubits)
    if want is not None:
        rewrite = (
            [op for path in want[1] for op in decompose_forward(path)[::-1]]
            if want[0] is ChainKind.INVERSE
            else decompose_run(ChainKind.FANOUT, (want[1], *want[2]))
        )
        if depth_of(rewrite) >= depth_of(run):
            want = None  # the rewrite is no shallower
    perm = list(range(c.num_qubits))
    rng.shuffle(perm)
    for circuit, label in ((c, list(range(c.num_qubits))), (_relabel(c, perm), perm)):
        found = _scan(circuit, 2)
        runs = [k for k in found if k.kind in _RUN_KINDS]
        if want is None:
            assert runs == [], (circuit, runs)
        else:
            (got,) = runs
            assert got.gate_indices == tuple(range(start, start + length))
            assert got.kind is want[0] and got.moved_after == ()
            if got.kind is ChainKind.INVERSE:
                assert _paths(got) == {tuple(label[q] for q in path) for path in want[1]}
            else:
                assert got.qubit_seq[0] == label[want[1]] and got.splits == ()
                assert set(got.qubit_seq[1:]) == {label[q] for q in want[2]}
            ops = circuit.instructions[start : start + length]
            assert same_unitary(ops, decompose_run(got.kind, got.qubit_seq, got.splits))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ChainScanner, "_fold", lambda self, i: None)
            assert [k for k in found if k.kind not in _RUN_KINDS] == _scan(circuit, 2)
    result = compile_circuit(c, PassConfig(chain_mode=ChainMode.ALWAYS, min_chain_gates=2,
                                           verify=True))
    assert result.verified


@pytest.mark.parametrize("min_gates, offered", [(5, True), (6, False)])
def test_runs_need_min_chain_gates(min_gates, offered):
    # A 6-qubit reverse-order ladder: 5 gates, 5 layers, 4 once rewritten.
    c = circ(6, *(cx(i, i + 1) for i in reversed(range(5))))
    assert (ChainKind.INVERSE in {k.kind for k in find_chains(c, min_gates)}) is offered


def test_run_fold_reads_each_gate_once(monkeypatch):
    # The fold does one parity XOR per gate it is handed; on a 1,000-qubit
    # linear ladder, whose map is a plain chain's, every gate is handed
    # over once, however the growth and the gate then treat the ladder.
    folded = 0
    shape_of = chains._linear_shape

    def counting(run):
        nonlocal folded
        folded += len(run)
        return shape_of(run)

    monkeypatch.setattr(chains, "_linear_shape", counting)
    c = gen_ansatz(AnsatzSpec("two_local", 1000, 2, "linear", 7))
    for mode in (ChainMode.CONSERVATIVE, ChainMode.ALWAYS):
        folded = 0
        result = compile_circuit(c, PassConfig(chain_mode=mode))
        assert [d.candidate.kind for d in result.decisions] == [ChainKind.CX] * 2
        assert folded == 2 * 999, (mode, folded)
