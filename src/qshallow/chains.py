"""Detection and decomposition of CX and CZ entangling chains.

A chain is a run of two-qubit gates linked by their operands: for CX the next
gate's control is the previous gate's target; for CZ consecutive gates share
one endpoint.  Linkage is what matters, not qubit numbering, so ascending and
descending index patterns are the same structure and share one decomposition.

The scanner tolerates interleaved gates that can be displaced out of the chain
window: an operation may move before the chain if it commutes with every chain
gate (and every deferred operation) it would cross leftwards, or after the
chain if it commutes with everything it crosses rightwards.  Every move is
justified by the explicit commutation table below, which is checked against
the brute-force oracle; an operation that can move neither way ends the chain.

Growth visits only the operations that can matter.  A wire - a qubit or a
classical bit - is active while the chain or one of its deferred operations
uses it; an operation on no active wire commutes with everything the chain
holds and moves before it without changing any state.  `ChainScanner` keeps a
per-wire next-use index, so a chain is grown by merging the next uses of its
active wires in position order rather than by walking every later
instruction.  Growth stops at the next barrier, or as soon as no later
operation can extend the head.  Detection then costs the operations on active
wires up to the chain's last extension, plus one O(N) index build per scanner
and per accepted rewrite.

Decompositions:

* `decompose_forward` - recursive halving of a CX chain, ascending or
  descending alike: one layer of pairwise CXs, a recursive chain over the
  even-position qubits, and a closing layer.  Depth O(log n), gate count at
  most doubled.  Runs of fewer than five qubits are left as plain chains (no
  depth win there).
* `decompose_cz` - all CZs commute, so any chain packs into two layers.
* `decompose_cz_to_cx` - CZ chain lowered to H/CX with one shared Hadamard
  layer on each side; inner H pairs cancel by construction, depth 4.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Sequence

from .ir import (
    Circuit,
    DIAGONAL_GATES,
    Gate,
    Instruction,
    _splice,
    cx,
    cz,
    h,
)


class ChainKind(Enum):
    CX = "cx"
    CZ = "cz"


@dataclass(frozen=True)
class ChainCandidate:
    kind: ChainKind
    gate_indices: tuple[int, ...]
    qubit_seq: tuple[int, ...]
    start_index: int
    moved_after: tuple[int, ...]

    @property
    def end_index(self) -> int:
        return self.gate_indices[-1]


# -- commutation ------------------------------------------------------------

_AXIS = {
    Gate.X: "x", Gate.RX: "x",
    Gate.Y: "y", Gate.RY: "y",
    Gate.Z: "z", Gate.RZ: "z",
    Gate.H: "h",
}


def commutes(a: Instruction, b: Instruction) -> bool:
    """Structural commutation test, exact for generic rotation angles.

    Barriers never commute with anything sharing a qubit (they are ordering
    points); measurements and conditioned gates commute only when they share
    no qubit and no classical read/write pair.
    """
    # Only a measurement writes a bit: a classical link needs one.
    wa, wb = a.clbit, b.clbit
    if wa is not None and (
        wa == wb or (b.condition is not None and wa in b.condition.bits)
    ):
        return False
    if wb is not None and a.condition is not None and wb in a.condition.bits:
        return False
    if set(a.qubits).isdisjoint(b.qubits):
        return True
    for ins in (a, b):
        if ins.gate in (Gate.BARRIER, Gate.MEASURE) or ins.condition is not None:
            return False
    ga, gb = a.gate, b.gate
    if ga in DIAGONAL_GATES and gb in DIAGONAL_GATES:
        return True
    if ga in _AXIS and gb in _AXIS:  # same qubit, single-qubit gates
        return _AXIS[ga] == _AXIS[gb]
    # Exactly one of them is single-qubit, the other CX/CZ.
    if ga in _AXIS or gb in _AXIS:
        single, multi = (a, b) if ga in _AXIS else (b, a)
        axis = _AXIS[single.gate]
        q = single.qubits[0]
        if multi.gate is Gate.CZ:
            return axis == "z"
        return axis == "x" if q == multi.qubits[1] else axis == "z"
    # Both two-qubit.
    if ga is Gate.CX and gb is Gate.CX:
        if a.qubits == b.qubits:
            return True
        (ca, ta), (cb, tb) = a.qubits, b.qubits
        if ca == cb and ta != tb:
            return True
        if ta == tb and ca != cb:
            return True
        return False
    # CX against CZ: the CZ is diagonal, so only the CX target matters.
    cx_ins, cz_ins = (a, b) if ga is Gate.CX else (b, a)
    return cx_ins.qubits[1] not in cz_ins.qubits


# -- chain growth -----------------------------------------------------------


def _clbits(ins: Instruction) -> tuple[int, ...]:
    """Classical bits an instruction writes or reads."""
    written = (ins.clbit,) if ins.clbit is not None else ()
    return written + ins.condition.bits if ins.condition is not None else written


def _is_diagonal_on(ins: Instruction, q: int) -> bool:
    return ins.gate in DIAGONAL_GATES and ins.condition is None and q in ins.qubits


class _Growth:
    """State for growing one chain from a seed, classifying interleaved ops.

    `_try_extend` and `classify` are the whole policy: the scanner feeds them
    ops in position order and stops where they say.  Commutation checks are
    looked up per wire.  Chain gates are unconditioned CX/CZ without
    classical bits, so an op has to be tested only against the chain gates on
    its qubits; deferred ops are indexed by qubit and by classical bit (bit b
    under the key ~b), so an op is tested only against the deferred ops it
    shares a wire with.  Disjoint pairs commute trivially.

    The wires of `seq_set` and the keys of `pending_by_wire` are the active
    wires.  An op on none of them can neither extend the chain nor fail to
    commute with what it holds: it moves before the chain and leaves this
    state untouched, which is why the scanner may skip it.
    """

    def __init__(self, instructions: list[Instruction], state: list[int], seed: int):
        self.instructions = instructions
        self.state = state
        self.seed = seed
        first = instructions[seed]
        self.is_cz = first.gate is Gate.CZ
        self.gate_positions = [seed]
        self.seq: list[int] = list(first.qubits)
        self.seq_set: set[int] = set(first.qubits)
        self.seq_oriented = self.is_cz is False  # CZ orientation settles on gate 2
        self.pending_after: list[tuple[int, Instruction]] = []
        self.gates_by_qubit: dict[int, list[Instruction]] = {
            q: [first] for q in first.qubits
        }
        self.pending_by_wire: dict[int, list[Instruction]] = {}

    @property
    def head(self) -> int:
        return self.seq[-1]

    def _commutes_with_chain(self, op: Instruction) -> bool:
        for q in op.qubits:
            for g in self.gates_by_qubit.get(q, ()):
                if not commutes(op, g):
                    return False
        return True

    def _commutes_with_pending(self, op: Instruction) -> bool:
        for w in (*op.qubits, *(~b for b in _clbits(op))):
            for p in self.pending_by_wire.get(w, ()):
                if not commutes(op, p):
                    return False
        return True

    def _defer(self, pos: int, op: Instruction) -> None:
        self.pending_after.append((pos, op))
        for w in (*op.qubits, *(~b for b in _clbits(op))):
            self.pending_by_wire.setdefault(w, []).append(op)

    def _try_extend(self, pos: int, op: Instruction) -> str:
        """Returns 'extended', 'skip' (not a continuation) or 'stop'."""
        if op.condition is not None or self.state[pos] == _REPLACED:
            return "skip"
        if self.is_cz:
            if op.gate is not Gate.CZ:
                return "skip"
            u, v = op.qubits
            if not self.seq_oriented:
                shared = {u, v} & self.seq_set
                if len(shared) != 1:
                    return "skip"
                e = shared.pop()
                new = v if u == e else u
                if e == self.seq[0]:
                    self.seq.reverse()
                self.seq_oriented = True
            else:
                if self.head not in (u, v):
                    return "skip"
                new = v if u == self.head else u
            if new in self.seq_set:
                return "stop"  # closing a cycle ends the chain
        else:
            if op.gate is not Gate.CX:
                return "skip"
            ctrl, tgt = op.qubits
            if ctrl != self.head:
                return "skip"
            if tgt in self.seq_set:
                return "stop"  # target hits an earlier chain qubit: cycle
            new = tgt
        # Deferred operations will cross this new gate on their way out.
        if not self._commutes_with_pending(op):
            return "stop"
        self.gate_positions.append(pos)
        self.seq.append(new)
        self.seq_set.add(new)
        for q in op.qubits:
            self.gates_by_qubit.setdefault(q, []).append(op)
        return "extended"

    def classify(self, pos: int, op: Instruction) -> bool:
        """Classify a non-chain op at `pos`; False means the chain ends here.

        An op that moves before the chain is not recorded: the chain gates and
        the ops moved after it leave their positions, and everything else
        between the seed and the last chain gate stays where it is.
        """
        if op.gate is Gate.BARRIER:
            return False  # never detect across barriers
        if self.head in op.qubits and not _is_diagonal_on(op, self.head):
            # No continuation through the head can commute with this op, so
            # deferring it would just stall the scan; move it out or stop.
            return self._commutes_with_chain(op) and self._commutes_with_pending(op)
        if any(q in self.seq_set for q in op.qubits):
            self._defer(pos, op)
        elif not (self._commutes_with_chain(op) and self._commutes_with_pending(op)):
            self._defer(pos, op)
        return True

    def finish(self, min_gates: int) -> ChainCandidate | None:
        if len(self.gate_positions) < min_gates:
            return None
        last = self.gate_positions[-1]
        return ChainCandidate(
            kind=ChainKind.CZ if self.is_cz else ChainKind.CX,
            gate_indices=tuple(self.gate_positions),
            qubit_seq=tuple(self.seq),
            start_index=self.seed,
            moved_after=tuple(i for i, _ in self.pending_after if i < last),
        )


# Seed states, one per instruction: the gates of a skipped candidate never
# seed again; the gates of a replacement neither seed nor extend a chain.
_FREE, _SKIPPED, _REPLACED = 0, 1, 2


def _rewrite(cand: ChainCandidate, items: Sequence, replacement: Sequence) -> list:
    """`items` laid out as `cand`'s rewrite: the chain gates and moved-after ops
    leave their positions, and the replacement followed by the moved-after ops
    takes the last chain gate's position (the ops moved before stay put)."""
    blocks = dict.fromkeys((*cand.gate_indices, *cand.moved_after), ())
    blocks[cand.end_index] = [*replacement, *(items[i] for i in cand.moved_after)]
    return _splice(items, blocks)


class ChainScanner:
    """Resumable single-pass scanner over a circuit's instruction list.

    `next()` yields the next chain candidate of at least `min_gates` gates.
    `rewrite(replacement)` lays the candidate's rewrite out over the
    instruction list without changing the scanner.  The caller then either
    `accept`s that list - it becomes the scanner's, the replacement's gates
    never seed or extend a chain, and the scan restarts from the chain's
    start so that intertwined chains displaced around it are rediscovered -
    or `skip()`s, which retires the candidate's gates as seeds and continues
    forward.

    The scanner owns a per-wire next-use index over its instruction list,
    built in one forward pass: `_qnext[2*i + k]` is the position of the next
    instruction after i that uses qubit operand k of instruction i (the list
    length if none), `_cnext[(i, b)]` the same for classical bit b (classical
    ops are rare, so these sit in a dict), plus the sorted barrier positions
    and, per qubit in use, the last position where it is the control of an
    unconditioned CX (`_last_cx_control`) or an operand of an unconditioned
    CZ (`_last_cz`).  A growth merges the next uses of its active wires in a
    heap, so it visits only ops on active wires, stops at the next barrier,
    and ends once the head has no later CX-as-control (or CZ) left.  `accept`
    rewrites the instruction list, so it rebuilds the index.
    """

    def __init__(self, circuit: Circuit, min_gates: int = 2):
        if min_gates < 2:
            raise ValueError("min_gates must be at least 2")
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.instructions: list[Instruction] = list(circuit.instructions)
        self.min_gates = min_gates
        self._state = [_FREE] * len(self.instructions)
        self._pos = 0
        self._pending: ChainCandidate | None = None
        self._build_index()

    @property
    def circuit(self) -> Circuit:
        return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))

    def _build_index(self) -> None:
        n = len(self.instructions)
        qnext = [n] * (2 * n)
        cnext: dict[tuple[int, int], int] = {}
        barriers: list[int] = []
        # Keyed by the qubits in use: a register may declare far more.
        last_slot: dict[int, int] = {}
        last_clbit_use: dict[int, int] = {}
        last_cx_control: dict[int, int] = {}
        last_cz: dict[int, int] = {}
        BARRIER, CX, CZ = Gate.BARRIER, Gate.CX, Gate.CZ
        for i, ins in enumerate(self.instructions):
            gate = ins.gate
            if gate is BARRIER:
                # Growth stops at the first barrier after its seed, so a link
                # that runs across a barrier is never followed.
                barriers.append(i)
                continue
            slot = 2 * i
            for q in ins.qubits:
                prev = last_slot.get(q)
                if prev is not None:
                    qnext[prev] = i
                last_slot[q] = slot
                slot += 1
            if ins.condition is None and ins.clbit is None:
                if gate is CX:
                    last_cx_control[ins.qubits[0]] = i
                elif gate is CZ:
                    u, v = ins.qubits
                    last_cz[u] = last_cz[v] = i
                continue
            for b in _clbits(ins):
                prev = last_clbit_use.get(b)
                if prev is not None:
                    cnext[(prev, b)] = i
                last_clbit_use[b] = i
        self._qnext = qnext
        self._cnext = cnext
        self._barriers = barriers
        self._last_cx_control = last_cx_control
        self._last_cz = last_cz

    def next(self) -> ChainCandidate | None:
        if self._pending is not None:
            raise RuntimeError("previous candidate not resolved; call accept() or skip()")
        n = len(self.instructions)
        while self._pos < n:
            i = self._pos
            ins = self.instructions[i]
            if (
                ins.gate in (Gate.CX, Gate.CZ)
                and ins.condition is None
                and self._state[i] == _FREE
            ):
                candidate = self._grow(i)
                if candidate is not None:
                    self._pending = candidate
                    return candidate
            self._pos += 1
        return None

    def _grow(self, seed: int) -> ChainCandidate | None:
        """Grow a chain from `seed`, visiting only ops on active wires.

        Every op skipped lies on no active wire when the merge passes it, so
        the policy would have moved it before the chain; the ops it does see,
        it sees in position order up to the last extension.
        """
        ins = self.instructions
        g = _Growth(ins, self._state, seed)
        k = bisect_right(self._barriers, seed)
        end = self._barriers[k] if k < len(self._barriers) else len(ins)
        last_link = (self._last_cz if g.is_cz else self._last_cx_control).get
        qnext, cnext = self._qnext, self._cnext
        seq, seq_set, pending = g.seq, g.seq_set, g.pending_by_wire
        heap = [j for j in (qnext[2 * seed], qnext[2 * seed + 1]) if j < end]
        heapify(heap)
        prev = seed
        while heap:
            j = heappop(heap)
            if j == prev:
                continue  # reached along a second active wire
            if last_link(seq[-1], -1) < j and (g.seq_oriented or last_link(seq[0], -1) < j):
                break  # nothing from here on can extend the head
            prev = j
            op = ins[j]
            result = g._try_extend(j, op)
            if result == "stop" or (result == "skip" and not g.classify(j, op)):
                break
            slot = 2 * j
            for q in op.qubits:
                if q in seq_set or q in pending:
                    nxt = qnext[slot]
                    if nxt < end:
                        heappush(heap, nxt)
                slot += 1
            for b in _clbits(op):
                if ~b in pending:
                    nxt = cnext.get((j, b), end)
                    if nxt < end:
                        heappush(heap, nxt)
        return g.finish(self.min_gates)

    def rewrite(self, replacement: Sequence[Instruction]) -> list[Instruction]:
        """The instruction list with the pending candidate replaced by
        `replacement`; the scanner itself is unchanged."""
        if self._pending is None:
            raise RuntimeError("no candidate to rewrite")
        return _rewrite(self._pending, self.instructions, replacement)

    def accept(self, rewritten: list[Instruction]) -> None:
        """Install `rewritten`, the pending candidate's `rewrite`, and rescan
        from the chain's start.  The seed states move with their ops.

        The result is read from `circuit`, which builds a new `Circuit`."""
        cand = self._pending
        if cand is None:
            raise RuntimeError("no candidate to accept")
        self._pending = None
        # The replacement is what the rewrite added beyond the gates it removed.
        added = len(rewritten) - len(self.instructions) + len(cand.gate_indices)
        self._state = _rewrite(cand, self._state, [_REPLACED] * added)
        self.instructions = rewritten
        self._pos = cand.start_index
        self._build_index()

    def skip(self) -> None:
        """Retire the pending candidate: its gates never seed again."""
        cand = self._pending
        if cand is None:
            raise RuntimeError("no candidate to skip")
        self._pending = None
        for idx in cand.gate_indices:
            self._state[idx] = _SKIPPED
        self._pos = cand.start_index + 1


def find_chains(c: Circuit, min_gates: int = 2) -> list[ChainCandidate]:
    """Detection only: scan the whole circuit without transforming anything."""
    scanner = ChainScanner(c, min_gates)
    found = []
    while (cand := scanner.next()) is not None:
        found.append(cand)
        scanner.skip()
    return found


# -- decompositions ---------------------------------------------------------


def decompose_forward(qubit_seq: Sequence[int]) -> list[Instruction]:
    """Recursive halving of a linked CX chain over `qubit_seq`.

    Pairs at odd positions fire first, the chain over even-position qubits is
    decomposed recursively, and pairs at even positions close it off.  The
    result computes the same prefix-parity map as the plain chain.
    """
    seq = list(qubit_seq)
    n = len(seq)
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if n < 5:
        return [cx(seq[i], seq[i + 1]) for i in range(n - 1)]
    out = [cx(seq[i], seq[i + 1]) for i in range(1, n - 1, 2)]
    out += decompose_forward(seq[0::2])
    out += [cx(seq[i], seq[i + 1]) for i in range(0, n - 1, 2)]
    return out


def decompose_cz(qubit_seq: Sequence[int]) -> list[Instruction]:
    """Two-layer packing of a CZ chain: even-position pairs, then odd."""
    seq = list(qubit_seq)
    if len(seq) < 3:
        raise ValueError("need at least 3 qubits")
    out = [cz(seq[i], seq[i + 1]) for i in range(0, len(seq) - 1, 2)]
    out += [cz(seq[i], seq[i + 1]) for i in range(1, len(seq) - 1, 2)]
    return out


def decompose_cz_to_cx(qubit_seq: Sequence[int]) -> list[Instruction]:
    """CZ chain lowered to CX for hardware without native CZ.

    Odd-position qubits are chosen as CX targets throughout, so each needs
    only one opening and one closing Hadamard; the per-gate inner H pairs
    cancel.  Depth 4 for any chain length.
    """
    seq = list(qubit_seq)
    n = len(seq)
    if n < 3:
        raise ValueError("need at least 3 qubits")
    odd = [seq[i] for i in range(1, n, 2)]
    out = [h(q) for q in odd]
    for i in range(0, n - 1, 2):
        out.append(cx(seq[i], seq[i + 1]))  # even control, odd target
    for i in range(1, n - 1, 2):
        out.append(cx(seq[i + 1], seq[i]))
    out += [h(q) for q in odd]
    return out
