"""Core circuit IR: instructions, validation, ASAP depth analysis.

A circuit is an ordered instruction list over a flat qubit index space plus a
flat classical-bit space.  Circuits are immutable and valid: construction
checks every invariant `validate` lists and raises ValueError on a violation,
so the passes, `stats` and `emit` take any `Circuit` they are given as valid.
Every edit returns a new value, so circuits are safe to share across threads.
`Instruction` and `Condition` are slotted records: no per-op `__dict__`, and
cheaper to build, which the reader does once per statement.

Depth is defined by as-soon-as-possible layering: an instruction starts one
layer after the latest earlier instruction it depends on.  Dependencies are
shared qubits, the classical bit a measurement writes, and (for conditioned
gates) the bits the condition reads.  Barriers order the instructions on their
qubits but occupy no layer themselves.

The passes find what a rewrite touches in one per-wire use table per
instruction list (`UseTable`): for each qubit and each classical bit, the
positions that use it, counted from the end so that a splice leaves the
entries past its window valid.  The chain scanner, the depth gate
(`DepthIndex`) and GHZ detection all read it through one merge walk
(`UseWalk`).  Whoever splices the list - the chain scanner - refreshes the
table over the window, after the other readers have taken the rewrite in,
and drops the entries before the rewrite's start: nothing reads them again,
so rewrites come with non-decreasing starts.  It keeps only the qubits
those ops use, so that a first use is still told apart (`UseTable.fresh`).
The table also lists the barriers, where every chain growth stops, and, for
the wires the scanner asks about, keeps each use's commutation `Letter` in
runs, so a walk can pass over the uses that commute with what it holds.

A `DepthIndex` keeps the depth of its list before any accept
(`built_depth`, where it was built by then) beside the depth after its
accepts (`depth`); both are exact, so the compile report reads them
instead of scheduling the list.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Iterator, Sequence


class Letter:
    """Commutation letters: how an operation acts on one wire it uses.

    Two operations commute exactly when every wire they share carries the
    same letter in both, and that letter is not OPAQUE.  Z is diagonal in the
    computational basis (a CX control, CZ, z, rz), X, Y and H act along that
    axis of one qubit (a CX target, x and rx; y and ry; h).  A measurement, a
    barrier and every conditioned operation are OPAQUE on their qubits; a
    condition READs its bits, and the bit a measurement writes is OPAQUE.
    The letters are small ints, stored in `UseTable`'s per-use arrays."""

    OPAQUE = 0
    Z = 1
    X = 2
    Y = 3
    H = 4
    READ = 5


_LETTER = {"z": Letter.Z, "x": Letter.X, "y": Letter.Y, "h": Letter.H}


class Gate(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    MEASURE = "measure"
    BARRIER = "barrier"

    def __init__(self, value: str) -> None:
        # Every gate fact the passes read, as plain attributes: reading one
        # costs no Python-level `Enum.__hash__`, as a dict or set lookup of
        # the member would, nor the Python-level descriptor behind `.value`.
        #: The gate's OpenQASM name, as `value` holds it.
        self.qasm_name = value
        #: Qubit operands the gate takes; None for a barrier, which takes any.
        self.arity = 2 if value in ("cx", "cz") else None if value == "barrier" else 1
        self.is_rotation = value in ("rx", "ry", "rz")
        #: Diagonal in the computational basis; any two such gates commute.
        self.is_diagonal = value in ("z", "rz", "cz")
        #: The `Letter` of each qubit operand when unconditioned (a rotation's
        #: is its generator's); empty for a measurement and a barrier, which
        #: are OPAQUE on every qubit.
        self.letters = (
            (Letter.Z, Letter.X) if value == "cx"
            else (Letter.Z, Letter.Z) if value == "cz"
            else () if value in ("measure", "barrier")
            else (_LETTER[value[-1]],)
        )


@dataclass(frozen=True, slots=True)
class Condition:
    """Classical parity control: apply the gate iff XOR of the listed bits is 1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))


@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    gate: Gate
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    condition: Condition | None = None

    def __init__(
        self,
        gate: Gate,
        qubits: Sequence[int],
        angle: float | None = None,
        clbit: int | None = None,
        condition: Condition | None = None,
    ) -> None:
        # What the generated frozen `__init__` does, through each field's
        # slot setter: the reader builds one instruction per rotation
        # statement, and a call of `object.__setattr__` per field costs
        # twice as much.
        _SET_GATE(self, gate)
        _SET_QUBITS(self, tuple(qubits))
        _SET_ANGLE(self, angle)
        _SET_CLBIT(self, clbit)
        _SET_CONDITION(self, condition)


_SET_GATE, _SET_QUBITS, _SET_ANGLE, _SET_CLBIT, _SET_CONDITION = (
    Instruction.__dict__[f].__set__ for f in ("gate", "qubits", "angle", "clbit", "condition")
)


def h(q: int) -> Instruction:
    return Instruction(Gate.H, (q,))


def x(q: int, condition: Condition | None = None) -> Instruction:
    return Instruction(Gate.X, (q,), condition=condition)


def y(q: int) -> Instruction:
    return Instruction(Gate.Y, (q,))


def z(q: int) -> Instruction:
    return Instruction(Gate.Z, (q,))


def rx(q: int, angle: float) -> Instruction:
    return Instruction(Gate.RX, (q,), angle=angle)


def ry(q: int, angle: float) -> Instruction:
    return Instruction(Gate.RY, (q,), angle=angle)


def rz(q: int, angle: float) -> Instruction:
    return Instruction(Gate.RZ, (q,), angle=angle)


def cx(control: int, target: int) -> Instruction:
    return Instruction(Gate.CX, (control, target))


def cz(a: int, b: int) -> Instruction:
    return Instruction(Gate.CZ, (a, b))


def measure(q: int, clbit: int) -> Instruction:
    return Instruction(Gate.MEASURE, (q,), clbit=clbit)


def barrier(*qubits: int) -> Instruction:
    return Instruction(Gate.BARRIER, tuple(qubits))


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    num_clbits: int = 0
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        errors = validate(self)
        if errors:
            raise ValueError("invalid circuit: " + "; ".join(errors))

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class DepthReport:
    depth: int
    gate_count: int
    two_qubit_count: int
    measure_count: int

    def as_dict(self) -> dict[str, int]:
        return {
            "depth": self.depth,
            "gate_count": self.gate_count,
            "two_qubit_count": self.two_qubit_count,
            "measure_count": self.measure_count,
        }


def validate(c: Circuit) -> list[str]:
    """Return all invariant violations; an empty list means the circuit is valid.

    An unconditioned unitary gate that passes every check it is subject to -
    arity, range, distinct operands, an angle exactly on a rotation, a finite
    angle - takes one short branch; anything else, or any failure, goes
    through the full list of checks, which words every message."""
    errors: list[str] = []
    n = c.num_qubits
    if n < 0:
        errors.append("num_qubits must be non-negative")
    if c.num_clbits < 0:
        errors.append("num_clbits must be non-negative")
    written: set[int] = set()
    isfinite = math.isfinite
    for i, ins in enumerate(c.instructions):
        gate, qubits, angle = ins.gate, ins.qubits, ins.angle
        if gate.letters and ins.condition is None and ins.clbit is None and (
            angle is not None and isfinite(angle) if gate.is_rotation else angle is None
        ):
            if len(qubits) == 1 == gate.arity:
                if 0 <= qubits[0] < n:
                    continue
            elif len(qubits) == 2 == gate.arity:
                a, b = qubits
                if a != b and 0 <= a < n and 0 <= b < n:
                    continue
        mark = len(errors)
        expected = ins.gate.arity
        if expected is not None and len(ins.qubits) != expected:
            errors.append(f"expected {expected} qubit operand(s), got {len(ins.qubits)}")
        if ins.gate is Gate.BARRIER and not ins.qubits:
            errors.append("barrier needs at least one qubit")
        for q in ins.qubits:
            if not 0 <= q < c.num_qubits:
                errors.append(f"qubit index {q} out of range")
        if len(set(ins.qubits)) != len(ins.qubits):
            errors.append("duplicate operand")
        if (ins.angle is not None) != ins.gate.is_rotation:
            errors.append("angle present iff gate is a rotation")
        elif ins.angle is not None and not math.isfinite(ins.angle):
            errors.append("angle must be finite")
        if (ins.clbit is not None) != (ins.gate is Gate.MEASURE):
            errors.append("clbit present iff gate is a measurement")
        if ins.gate is Gate.MEASURE:
            if ins.condition is not None:
                errors.append("measurement must not be conditioned")
            if ins.clbit is not None:
                if not 0 <= ins.clbit < c.num_clbits:
                    errors.append(f"clbit index {ins.clbit} out of range")
                elif ins.clbit in written:
                    errors.append(f"clbit {ins.clbit} written more than once")
                else:
                    written.add(ins.clbit)
        if ins.condition is not None:
            if not ins.condition.bits:
                errors.append("condition needs at least one bit")
            for b in ins.condition.bits:
                if not 0 <= b < c.num_clbits:
                    errors.append(f"condition bit {b} out of range")
        if len(errors) > mark:  # every Circuit runs this: format the position only on error
            where = f"instruction {i} ({ins.gate.qasm_name})"
            errors[mark:] = [f"{where}: {e}" for e in errors[mark:]]
    return errors


def depth_of(instructions: Sequence[Instruction], fronts: dict[int, int] | None = None) -> int:
    """ASAP layer count of an instruction sequence scheduled from scratch.
    With `fronts`, an empty dict, fills it with each wire's front after the
    sequence: the layer its last op ends at, qubit q as q and the bit b a
    measurement writes as ~b."""
    if fronts is None:
        fronts = {}
    max_layer = 0
    for ins in instructions:
        if ins.gate is Gate.BARRIER:
            # Synchronize operand qubits at the latest layer among them, cost-free.
            layer = 0
            for q in ins.qubits:
                a = fronts.get(q, 0)
                if a > layer:
                    layer = a
            for q in ins.qubits:
                fronts[q] = layer
            continue
        layer = 0
        for q in ins.qubits:
            a = fronts.get(q, 0)
            if a > layer:
                layer = a
        if ins.condition is not None:
            for b in ins.condition.bits:
                a = fronts.get(~b, 0)
                if a > layer:
                    layer = a
        if ins.clbit is not None:
            a = fronts.get(~ins.clbit, 0)
            if a > layer:
                layer = a
        layer += 1
        for q in ins.qubits:
            fronts[q] = layer
        if ins.clbit is not None:
            fronts[~ins.clbit] = layer
        if layer > max_layer:
            max_layer = layer
    return max_layer


def _sweep_back(
    ops: Sequence[Instruction],
    first: int,
    n: int,
    after: dict[int, int],
    readers: dict[int, int],
    tail: list[int] | array,
    writer: dict[int, int],
) -> None:
    """Tails of `ops` - per op, the longest path from it to the end - at
    positions `first`.. of a list of length n, from the last back, into
    `tail`; `writer` gets each bit's writer's position from the end.
    `after` holds each qubit's next tail, `readers` each bit's largest tail
    among its readers so far; the sweep leaves them at the first use."""
    BARRIER = Gate.BARRIER
    for p in range(first + len(ops) - 1, first - 1, -1):
        op = ops[p - first]
        t = 0
        for q in op.qubits:
            a = after.get(q, 0)
            if a > t:
                t = a
        if op.clbit is not None:
            a = readers.get(op.clbit, 0)
            if a > t:
                t = a
            writer[op.clbit] = n - p
        if op.gate is not BARRIER:
            t += 1
        tail[p] = t
        for q in op.qubits:
            after[q] = t
        if op.condition is not None:
            for b in op.condition.bits:
                if t > readers.get(b, 0):
                    readers[b] = t


def paths_of(instructions: Sequence[Instruction]) -> tuple[int, dict[int, int]]:
    """`depth_of` of a sequence, and per wire the longest path through the
    sequence that starts at that wire: at qubit q's first use, and at the
    readers of bit b (as ~b)."""
    after: dict[int, int] = {}
    readers: dict[int, int] = {}
    n = len(instructions)
    _sweep_back(instructions, 0, n, after, readers, [0] * n, {})
    # Every op has a qubit, so the longest path leaves some qubit's first use.
    depth = max(after.values(), default=0)
    for b, t in readers.items():
        after[~b] = t
    return depth, after


def depth_joined(head: tuple[int, dict[int, int]], tail: tuple[int, dict[int, int]]) -> int:
    """`depth_of([*h, *t])` from h's depth and fronts (`depth_of(h, fronts)`)
    and `paths_of(t)`, each bit written once in all: the longest path stays
    in one part or crosses at a wire, from its front in `h` into its path in
    `t`.  O(wires of `t`)."""
    depth, fronts = head
    top, paths = tail
    if depth > top:
        top = depth
    for w, p in paths.items():
        f = fronts.get(w)
        if f is not None and f + p > top:
            top = f + p
    return top


def _wires(ins: Instruction) -> tuple[int, ...]:
    """The wires an instruction uses: its qubits, then the classical bits it
    writes or reads, bit b as the wire ~b."""
    bits = () if ins.clbit is None else (~ins.clbit,)
    if ins.condition is not None:
        bits += tuple(~b for b in dict.fromkeys(ins.condition.bits))
    return ins.qubits + bits


def _letters(ins: Instruction) -> tuple[int, ...]:
    """The `Letter` of each wire of `_wires(ins)`, in that order."""
    if ins.condition is None and ins.gate.letters:
        return ins.gate.letters
    bits = () if ins.clbit is None else (Letter.OPAQUE,)
    if ins.condition is not None:
        bits += (Letter.READ,) * len(dict.fromkeys(ins.condition.bits))
    return (Letter.OPAQUE,) * len(ins.qubits) + bits


def _push_run(r: array, letter: int) -> None:
    """Append to a wire's `UseTable.runs` the entry of its next earlier use."""
    if r:
        last = r[-1]  # the next later use: same letter, same run end
        r.append(last if last & 7 == letter else len(r) << 3 | letter)
    else:
        r.append(letter)


class UseTable:
    """Per wire - qubit q as q, classical bit b as ~b - the positions of an
    instruction list that use it: `by_wire[w]`, counted from the end of the
    list and ascending, so the earliest use is last (see the module note).

    `runs[w]`, built on demand by `runs_of`, runs parallel to it: entry k
    holds use k's `Letter` in its low three bits and, above them, 1 + the
    index of the first later use with another letter (0: none), so a walk
    passes a run of one letter in one step.  `barriers` lists the barriers'
    positions, counted from the end and ascending like a wire's uses."""

    def __init__(self, ins: Sequence[Instruction]) -> None:
        self.n = len(ins)
        self.cut = 0
        #: The qubits the ops before the cut use, whose entries are dropped.
        self.used: set[int] = set()
        self.by_wire: dict[int, array] = {}
        self.runs: dict[int, array] = {}
        self.barriers: list[int] = []
        self._record(ins, 0)

    def _record(self, ops: Sequence[Instruction], first: int) -> None:
        """Add the uses of `ops`, at positions first.., from the last back."""
        by_wire, runs, n = self.by_wire, self.runs, self.n
        barriers, BARRIER = self.barriers, Gate.BARRIER
        for p in range(first + len(ops) - 1, first - 1, -1):
            op = ops[p - first]
            if op.gate is BARRIER:
                barriers.append(n - p)
            for w in op.qubits if op.clbit is None and op.condition is None else _wires(op):
                u = by_wire.get(w)
                if u is None:
                    by_wire[w] = array("i", (n - p,))
                else:
                    u.append(n - p)
        if runs:  # a splice: extend the runs built so far
            for op in reversed(ops):
                for w, letter in zip(_wires(op), _letters(op)):
                    r = runs.get(w)
                    if r is not None:
                        _push_run(r, letter)

    def runs_of(self, w: int, ins: Sequence[Instruction]) -> array:
        """Wire w's `runs`, built on the first call from the list `ins` the
        table indexes, and kept up to date by `splice` from then on."""
        r = self.runs.get(w)
        if r is None:
            r = self.runs[w] = array("i")
            n = self.n
            for v in self.by_wire.get(w, ()):
                op = ins[n - v]
                letters = op.gate.letters if op.condition is None else ()
                if letters:  # w is one of its qubits
                    letter = letters[0] if op.qubits[0] == w else letters[1]
                else:
                    letter = _letters(op)[_wires(op).index(w)]
                _push_run(r, letter)
        return r

    def fresh(self, q: int, p: int) -> bool:
        """Whether position p, at or after the cut, holds qubit q's first use."""
        return self.n - self.by_wire[q][-1] == p and q not in self.used

    def splice(
        self, ins: Sequence[Instruction], start: int, end: int, window: Sequence[Instruction]
    ) -> None:
        """Take in the rewrite that replaces positions start..end of `ins`
        by `window`, before `ins` itself is spliced: O(|window|) plus the
        ops since the last start, each dropped once."""
        by_wire, runs, barriers = self.by_wire, self.runs, self.barriers
        self.used.update(q for op in ins[self.cut : start] for q in op.qubits)
        for i in range(self.cut, end + 1):  # in order, so each is its wires' earliest
            for w in _wires(ins[i]):
                by_wire[w].pop()
                r = runs.get(w)
                if r is not None:
                    r.pop()
        while barriers and barriers[-1] >= self.n - end:
            barriers.pop()
        self.n = len(ins) + len(window) - (end + 1 - start)
        self._record(window, start)
        self.cut = start


class UseWalk:
    """The uses of some wires merged in position order, below `stop`.

    `add(w, p, skip)` walks wire w's uses from position p on, also in
    mid-walk, passing over each use whose `Letter` is `skip` (OPAQUE: none)
    in one step per run; a wire walked with a skip needs its runs built
    (`UseTable.runs_of`), and `unskip` walks it at every use from then on.
    `walked[w]` is wire w's slot, `skips[slot]` the letter it passes over.
    Iterating yields each position once, however many walked wires use it.
    A walked wire's cursor, read by `at(w)`, is the index in `by_wire[w]` of
    its first use neither yielded nor passed over (-1: none): once the walk
    is done, its first use at or after `stop` that its skip lets through.
    The heap holds (position << 32 | slot) ints.
    """

    __slots__ = (
        "_by_wire", "_runs_by_wire", "_n", "stop", "walked", "skips", "_heap", "_uses",
        "_runs", "_next",
    )

    def __init__(self, table: UseTable, stop: int) -> None:
        self._by_wire = table.by_wire
        self._runs_by_wire = table.runs
        self._n = table.n
        self.stop = stop
        self.walked: dict[int, int] = {}
        self.skips: list[int] = []  # per slot: the letter passed over
        self._heap: list[int] = []
        self._uses: list[Sequence[int]] = []  # per slot: the wire's uses
        self._runs: dict[int, array] = {}  # per slot with a skip: the wire's runs
        self._next: list[int] = []  # per slot: its cursor

    def add(self, w: int, p: int, skip: int = Letter.OPAQUE) -> None:
        u = self._by_wire.get(w, ())
        n = self._n
        k = bisect_right(u, n - p) - 1
        slot = self.walked[w] = len(self._uses)
        if skip:
            r = self._runs[slot] = self._runs_by_wire[w]
            if k >= 0 and r[k] & 7 == skip:
                k = (r[k] >> 3) - 1
        self._uses.append(u)
        self.skips.append(skip)
        self._next.append(k)
        if k >= 0 and n - u[k] < self.stop:
            heappush(self._heap, (n - u[k]) << 32 | slot)

    def unskip(self, w: int, p: int) -> None:
        """Walk wire w, walked with a skip, at every use from position p on,
        p no later than its next use."""
        slot = self.walked[w]
        k = bisect_right(self._uses[slot], self._n - p) - 1
        if self._next[slot] == k:  # it passed over nothing since p: keep its cursor
            self.skips[slot] = Letter.OPAQUE
            return
        # Its use in the heap is yielded anyway, by a new slot; past it, the
        # old slot pushes nothing more.
        self._next[slot] = 0
        self.add(w, p)

    def at(self, w: int) -> int:
        return self._next[self.walked[w]]

    def __iter__(self) -> Iterator[int]:
        heap, uses, runs, skips, cursor = self._heap, self._uses, self._runs, self.skips, self._next
        n, stop = self._n, self.stop
        pop, push = heappop, heappush
        last = -1
        while heap:
            e = pop(heap)
            slot = e & 0xFFFFFFFF
            k = cursor[slot] - 1
            if skips[slot] and k >= 0 and runs[slot][k] & 7 == skips[slot]:
                k = (runs[slot][k] >> 3) - 1
            cursor[slot] = k
            if k >= 0 and n - uses[slot][k] < stop:
                push(heap, (n - uses[slot][k]) << 32 | slot)
            if e >> 32 != last:
                last = e >> 32
                yield last


class DepthIndex:
    """Exact `depth_of` of an instruction list under a sequence of rewrites,
    each judged by the operations it can move.

    A rewrite takes the ops at some positions of a window start..end out and
    places a block after position `end`.  The index holds, per position, the
    op's ASAP layer and its tail (the longest path from the op to the end,
    with `depth_of`'s dependencies: a barrier is a zero-cost sync and a
    classical bit's readers wait for its single writer), and reads the
    positions that use each wire from the list's `UseTable`.  `admits` first
    bounds the rewrite from below: it schedules the block on each wire's
    front at `start` - an op that stays in the window can only push a front
    later - and refuses as soon as a qubit's layer there plus the stored tail
    of its first use after `end` exceeds `depth`, in O(the block's ops up to
    there).  Only a block the bound does not refuse takes the walk: in
    position order up to `end`, only the ops on dirty wires - at first those
    of the ops taken out; an op whose layer changes dirties the wires it
    writes - then the block, and adds to each dirty wire's front the stored
    tail of its first use after `end`.  Every other op keeps its layer and
    every other path its length, both bounded by `depth`, so "no deeper" is
    decided exactly, and the bound, a lower bound of the same sums, never
    changes the answer.

    The exact depth is kept as the maximum over the paths that cross a cut:
    a qubit's front plus the tail of its first use at or after the cut, and a
    bit's writer before the cut plus the tail of each reader after it; the
    multiset of those terms is `_terms`.  `accept` moves the cut to the
    rewrite's start, swaps the window's entries, recomputes the tails over the
    window only and reads the new depth off `_terms`.  Nothing before the cut
    is read again, so rewrites must come with non-decreasing starts.  Tails
    are stored by position, layers past the last accepted start are
    recomputed forward as later rewrites need them.

    The index is built on the first `admits`, with its list's use table
    (`uses_of`), and must be handed that list, as `accept`s change it, from
    then on.  An `accept` before that takes nothing in: the index is built
    from the list it leaves, scheduling the prefix before the table's cut
    once.  `built_depth` keeps the depth of a list no accept changed yet,
    exact like `depth`, so a caller that reports it need not schedule the
    list.  The index never changes the table: whoever splices the list
    refreshes it (`UseTable.splice`) after each `accept`.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.built = False
        #: `depth` of the list the index was built from, where no `accept`
        #: came before; else None.
        self.built_depth: int | None = None
        self.uses: UseTable | None = None
        self._changed = False  # an `accept` came before the build

    def uses_of(self, ins: Sequence[Instruction]) -> UseTable:
        """The use table of `ins`, built on the first call."""
        if self.uses is None:
            self.uses = UseTable(ins)
        return self.uses

    def _build(self, ins: Sequence[Instruction]) -> None:
        n = len(ins)
        table = self.uses_of(ins)
        self._uses = table.by_wire
        self._tail = array("i", bytes(4 * n))
        self._writer: dict[int, int] = {}  # bit -> its writer's position from the end
        _sweep_back(ins, 0, n, {}, {}, self._tail, self._writer)
        self._layer = array("i", bytes(4 * n))
        self._known = self._cut = table.cut  # layers are exact below `_known`
        self._ahead: dict[int, int] = {}  # fronts at `_known`, for wires used past the cut
        self._front: dict[int, int] = {}  # fronts at the cut; bit ~b once its writer is passed
        depth_of(ins[: self._cut], self._front)
        self._terms: dict[int, int] = {}
        for w in self._uses:
            if w >= 0:
                self._add(self._qterm(w, n))
        for b, v in list(self._writer.items()):
            if n - v < self._cut:  # its readers past the cut are crossing terms
                del self._writer[b]
                self._add_readers(~b, n)
        self.depth = max(self._terms, default=0)
        self.built = True
        if not self._changed:
            self.built_depth = self.depth

    def _add(self, value: int) -> None:
        self._terms[value] = self._terms.get(value, 0) + 1

    def _drop(self, value: int) -> None:
        left = self._terms[value] - 1
        if left:
            self._terms[value] = left
        else:
            del self._terms[value]

    def _add_readers(self, w: int, n: int, writer: int | None = None) -> None:
        """Add the terms of bit wire w, its writer passed: its front plus the
        tail of each use after position `writer` (counted from the end; the
        table holds no earlier use where None)."""
        u = self._uses[w]
        for v in u if writer is None else u[: bisect_left(u, writer)]:
            self._add(self._front[w] + self._tail[n - v])

    def _read_terms(self, op: Instruction, p: int, apply: Callable[[int], None]) -> int:
        """Hand `apply` the terms of conditioned `op` at position p: each
        distinct condition bit's front, where it has one, plus the op's tail.
        Returns the largest, 0 if none."""
        top = 0
        for b in dict.fromkeys(op.condition.bits):
            f = self._front.get(~b)
            if f is not None:
                apply(f + self._tail[p])
                top = max(top, f + self._tail[p])
        return top

    def _first(self, w: int, j: int, n: int) -> int:
        """Index in wire w's uses of its first use at or after position j,
        -1 if none, in a list of length n."""
        return bisect_right(self._uses.get(w, ()), n - j) - 1

    def _qterm(self, q: int, n: int) -> int:
        """Qubit q's crossing term at the cut, in a list of length n."""
        k = self._first(q, self._cut, n)
        return self._front.get(q, 0) + (self._tail[n - self._uses[q][k]] if k >= 0 else 0)

    def _learn(self, ins: Sequence[Instruction], upto: int) -> None:
        """Make the layers exact below position `upto` (forward ASAP)."""
        layer, ahead, front = self._layer, self._ahead, self._front
        BARRIER = Gate.BARRIER
        for i in range(self._known, upto):
            op = ins[i]
            t = 0
            for q in op.qubits:
                a = ahead.get(q)
                if a is None:
                    a = front.get(q, 0)
                if a > t:
                    t = a
            if op.condition is not None:
                for b in op.condition.bits:
                    a = ahead.get(~b)
                    if a is None:
                        a = front.get(~b, 0)
                    if a > t:
                        t = a
            if op.gate is not BARRIER:
                t += 1
            layer[i] = t
            for q in op.qubits:
                ahead[q] = t
            if op.clbit is not None:
                ahead[~op.clbit] = t
        self._known = max(self._known, upto)

    def _front_at(self, w: int, j: int, n: int) -> int:
        """Wire w's front just before position j (cut <= j <= known)."""
        if w >= 0:
            u = self._uses.get(w)
            if u:
                k = bisect_right(u, n - j)
                if k < len(u):
                    return self._layer[n - u[k]]
            return self._front.get(w, 0)
        f = self._front.get(w)
        if f is not None:
            return f
        v = self._writer.get(~w)
        return self._layer[n - v] if v is not None and n - v < j else 0

    def _layer_at(self, op: Instruction, dirty: dict[int, int], j: int, n: int) -> int:
        """`op`'s layer placed just before position j: dirty wires read their
        front so far, the others their front before j."""
        t = 0
        for x in op.qubits if op.clbit is None and op.condition is None else _wires(op):
            if x < 0 and op.clbit == ~x:
                continue  # a measurement does not wait on its own bit
            a = dirty.get(x)
            if a is None:
                a = self._front_at(x, j, n)
            if a > t:
                t = a
        return t if op.gate is Gate.BARRIER else t + 1

    def _outgrows(self, block: Sequence[Instruction], start: int, end: int, n: int) -> bool:
        """Whether `block`, scheduled on each wire's front at `start`, already
        makes some qubit's front plus the stored tail of its first use after
        `end` exceed `depth`.  An op that stays in the window can only push a
        front later, so each layer here bounds the walk's from below, and the
        sum is the one `admits` ends with: True means it refuses too."""
        depth, tail, layer, uses = self.depth, self._tail, self._layer, self._uses
        BARRIER = Gate.BARRIER
        bound: dict[int, int] = {}  # wire -> its front so far, a lower bound
        leaving: dict[int, int] = {}  # qubit -> tail of its first use after `end`
        cut, after = n - start, n - end - 1  # `start` and `end + 1` counted from the end
        for op in block:
            t = 0
            for x in op.qubits if op.clbit is None and op.condition is None else _wires(op):
                a = bound.get(x)
                if a is None:
                    u = uses.get(x) if x >= 0 else None
                    if u:  # `_front_at` and `_first`, on the qubit's one array
                        k = bisect_right(u, cut)
                        a = layer[n - u[k]] if k < len(u) else self._front.get(x, 0)
                        k = bisect_right(u, after, 0, k) - 1
                        leaving[x] = tail[n - u[k]] if k >= 0 else 0
                    else:
                        # 0 for a measurement's own bit: no writer before `start`.
                        a = self._front_at(x, start, n)
                        if x >= 0:
                            leaving[x] = 0
                    bound[x] = a
                if a > t:
                    t = a
            if op.gate is not BARRIER:
                t += 1
            for q in op.qubits:
                bound[q] = t
                if t + leaving[q] > depth:
                    return True
            if op.clbit is not None:
                bound[~op.clbit] = t
        return False

    def admits(
        self,
        ins: Sequence[Instruction],
        start: int,
        end: int,
        removed: Sequence[int],
        block: Sequence[Instruction],
    ) -> bool:
        """Whether `ins` is no deeper than `depth` with the ops at `removed`
        (positions in start..end) taken out and `block` placed after `end`."""
        if not self.built:
            self._build(ins)
        if start < self._cut:
            raise ValueError(f"rewrite at {start} starts before the cut at {self._cut}")
        self._learn(ins, end + 1)
        n = len(ins)
        if self._outgrows(block, start, end, n):
            return False
        layer, tail, uses = self._layer, self._tail, self._uses
        gone = set(removed)
        dirty: dict[int, int] = {}  # wire -> its front so far in the rewritten order
        walk = UseWalk(self.uses, end + 1)  # the uses of the dirty wires
        for i in gone:
            for w in _wires(ins[i]):
                if w not in dirty:
                    walk.add(w, start)
                    dirty[w] = self._front_at(w, start, n)
        for j in walk:
            if j in gone:
                continue
            op = ins[j]
            t = self._layer_at(op, dirty, j, n)
            changed = t != layer[j]
            for x in op.qubits if op.clbit is None else (*op.qubits, ~op.clbit):
                if x in dirty:
                    dirty[x] = t
                elif changed:
                    dirty[x] = t
                    walk.add(x, j + 1)
        for op in block:
            t = self._layer_at(op, dirty, end + 1, n)
            for x in op.qubits if op.clbit is None else (*op.qubits, ~op.clbit):
                if x not in dirty:
                    walk.add(x, end + 1)
                dirty[x] = t
        # Each dirty wire's front plus the longest path leaving it after `end`.
        worst = 0
        for w, f in dirty.items():
            k = walk.at(w)
            if k >= 0 and w >= 0:
                f += tail[n - uses[w][k]]
            elif k >= 0:  # a bit: its readers after `end`
                own = self._writer.get(~w)
                f += max((tail[n - v] for v in uses[w][: k + 1] if v != own), default=0)
            if f > worst:
                worst = f
        return worst <= self.depth

    def _cut_to(self, ins: Sequence[Instruction], s: int) -> None:
        """Move the cut forward to position s; the table still holds the
        uses from the old cut on."""
        self._learn(ins, s)
        n = len(ins)
        layer, front = self._layer, self._front
        last: dict[int, int] = {}  # qubit -> its last use before s
        for i in range(self._cut, s):
            op = ins[i]
            for q in op.qubits:
                if q not in last:
                    self._drop(self._qterm(q, n))
                last[q] = i
            if op.condition is not None:
                self._read_terms(op, i, self._drop)
            elif op.clbit is not None:
                front[~op.clbit] = layer[i]
                del self._writer[op.clbit]
                self._add_readers(~op.clbit, n, n - i)
        self._cut = s
        for q, i in last.items():
            front[q] = layer[i]
            self._add(self._qterm(q, n))

    def accept(
        self, ins: Sequence[Instruction], start: int, end: int, window: Sequence[Instruction]
    ) -> None:
        """Take in the rewrite that replaces positions start..end of `ins` by
        `window`, before `ins` and its use table are spliced; `depth` becomes
        exact for the rewritten list, once the index is built."""
        if not self.built:
            self._changed = True
            return
        if start < self._cut:
            raise ValueError(f"rewrite at {start} starts before the cut at {self._cut}")
        self._cut_to(ins, start)
        n = len(ins)
        m = len(window)
        n2 = n + m - (end + 1 - start)
        tail, uses, front, writer = self._tail, self._uses, self._front, self._writer
        old = ins[start : end + 1]
        wires = {w for op in (*old, *window) for w in _wires(op)}
        qubits = [w for w in wires if w >= 0]
        # Drop the terms that cross the cut into the old window.
        for q in qubits:
            if q in uses:
                self._drop(self._qterm(q, n))
        for i, op in enumerate(old, start):
            if op.condition is not None:
                self._read_terms(op, i, self._drop)
            elif op.clbit is not None:
                del writer[op.clbit]
        past = {w: self._first(w, end + 1, n) for w in wires}  # first use after `end`
        zeros = array("i", bytes(4 * m))
        self._layer[start : end + 1] = zeros
        tail[start : end + 1] = zeros
        # Tails over the new window, backwards from the unchanged suffix.
        after = {q: tail[n2 - uses[q][past[q]]] if past[q] >= 0 else 0 for q in qubits}
        readers = {}  # each written bit's largest tail among its readers past the window
        for b in (op.clbit for op in window if op.clbit is not None):
            readers[b] = max((tail[n2 - v] for v in uses.get(~b, ())[: past[~b] + 1]), default=0)
        _sweep_back(window, start, n2, after, readers, tail, writer)
        # Add the terms that cross the cut into the new window: `after` now
        # holds each qubit's tail at its first use from the cut on.
        top = 0
        for q in qubits:
            t = front.get(q, 0) + after[q]
            self._add(t)
            top = max(top, t)
        for p, op in enumerate(window, start):
            if op.condition is not None:
                top = max(top, self._read_terms(op, p, self._add))
        self._known = start
        self._ahead.clear()
        d = self.depth
        while d > top and d not in self._terms:
            d -= 1
        self.depth = max(d, top)


def depth(c: Circuit) -> int:
    """ASAP depth of the circuit."""
    return depth_of(c.instructions)


def stats(c: Circuit, known_depth: int | None = None) -> DepthReport:
    """Depth and gate/measurement counts; `known_depth`, when the caller
    holds `depth(c)` exactly, saves the schedule."""
    gates = [ins.gate for ins in c.instructions]  # counted by identity, in C
    measures = gates.count(Gate.MEASURE)
    return DepthReport(
        depth(c) if known_depth is None else known_depth,
        len(gates) - measures - gates.count(Gate.BARRIER),
        gates.count(Gate.CX) + gates.count(Gate.CZ),
        measures,
    )
