"""Chain detection, the commutation table, and the decompositions."""
from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

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
    commutes,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
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
    rx,
    ry,
    rz,
    stats,
    x,
    y,
    z,
)
from qshallow.ghz import GhzMode, rebuild_ghz_sites
from qshallow.pipeline import ChainMode, PassConfig, compile_circuit
from qshallow.qasm import emit
from qshallow.sim import equivalent_unitary, unitary


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


# -- commutation table --------------------------------------------------------


def _oracle_commutes(a: Instruction, b: Instruction, n: int) -> bool:
    ua = unitary(Circuit(n, 0, (a,)))
    ub = unitary(Circuit(n, 0, (b,)))
    return bool(np.allclose(ua @ ub, ub @ ua, atol=1e-10))


def _all_gates_on(n: int) -> list[Instruction]:
    gates: list[Instruction] = []
    for q in range(n):
        gates += [h(q), x(q), y(q), z(q), rx(q, 0.7), ry(q, 1.1), rz(q, 1.9)]
    for a, b in itertools.permutations(range(n), 2):
        gates.append(cx(a, b))
    for a, b in itertools.combinations(range(n), 2):
        gates.append(cz(a, b))
    return gates


def test_commutation_table_agrees_with_oracle_on_three_qubits():
    # Exhaustive over every supported gate pair on 3 qubits with generic
    # rotation angles; the structural table must match the matrix commutator.
    gates = _all_gates_on(3)
    for a in gates:
        for b in gates:
            assert commutes(a, b) == _oracle_commutes(a, b, 3), (a, b)


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
        scanner.accept(scanner.rewrite(decompose_forward(cand.qubit_seq)))
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
            scanner.accept(scanner.rewrite(decompose_forward(cand.qubit_seq)))
        assert seen == 3
        assert stats(scanner.circuit).depth < stats(tw).depth

    def test_moved_ops_preserve_window_equivalence(self):
        body = [cx(0, 1), rz(1, 0.9), cx(1, 2), h(4), cx(2, 3), rz(0, 0.2)]
        c = circ(5, *body)
        scanner = ChainScanner(c, 2)
        cand = scanner.next()
        assert cand.qubit_seq == (0, 1, 2, 3)
        scanner.accept(scanner.rewrite(decompose_forward(cand.qubit_seq)))
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
        scanner.accept(scanner.rewrite(decompose_forward(cand.qubit_seq)))
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


def test_differential_corpus_exercises_every_feature():
    circuits = [c for b in range(_DIFF_BLOCKS) for c in _diff_circuits(b)]
    ops = [ins for c in circuits for ins in c.instructions]
    assert any(ins.gate is Gate.MEASURE for ins in ops)
    assert any(ins.condition is not None and len(ins.condition.bits) > 1 for ins in ops)
    assert any(ins.gate is Gate.BARRIER and len(ins.qubits) == 1 for ins in ops)
    cands = [k for c in circuits for k in find_chains(c, 2)]
    assert {k.kind for k in cands} == set(ChainKind)
    assert sum(bool(_moved_before(k)) for k in cands) > 50
    assert sum(bool(k.moved_after) for k in cands) > 50


# -- scaling of the growth ----------------------------------------------------


def _chain_then_fanout(n: int) -> Circuit:
    return circ(n, *(cx(i, i + 1) for i in range(n - 1)), *(cx(0, i) for i in range(1, n)))


@pytest.mark.parametrize(
    "shape",
    [
        lambda n: rebuild_ghz_sites(gen_ghz_standard(n), GhzMode.ROBUST)[0],
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
