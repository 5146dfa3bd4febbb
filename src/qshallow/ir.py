"""Core circuit IR: instructions, validation, ASAP depth analysis.

A circuit is an ordered instruction list over a flat qubit index space plus a
flat classical-bit space.  Circuits are immutable and valid: construction
checks every invariant `validate` lists and raises ValueError on a violation,
so the passes, `stats` and `emit` take any `Circuit` they are given as valid.
Every edit returns a new value, so circuits are safe to share across threads.

Depth is defined by as-soon-as-possible layering: an instruction starts one
layer after the latest earlier instruction it depends on.  Dependencies are
shared qubits, the classical bit a measurement writes, and (for conditioned
gates) the bits the condition reads.  Barriers order the instructions on their
qubits but occupy no layer themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence


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


ROTATION_GATES = frozenset({Gate.RX, Gate.RY, Gate.RZ})
TWO_QUBIT_GATES = frozenset({Gate.CX, Gate.CZ})
#: Gates diagonal in the computational basis; any two of these commute.
DIAGONAL_GATES = frozenset({Gate.Z, Gate.RZ, Gate.CZ})


@dataclass(frozen=True)
class Condition:
    """Classical parity control: apply the gate iff XOR of the listed bits is 1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))


@dataclass(frozen=True)
class Instruction:
    gate: Gate
    qubits: tuple[int, ...]
    angle: float | None = None
    clbit: int | None = None
    condition: Condition | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))


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


_ARITY = {
    Gate.H: 1, Gate.X: 1, Gate.Y: 1, Gate.Z: 1,
    Gate.RX: 1, Gate.RY: 1, Gate.RZ: 1,
    Gate.CX: 2, Gate.CZ: 2, Gate.MEASURE: 1,
}


def validate(c: Circuit) -> list[str]:
    """Return all invariant violations; an empty list means the circuit is valid."""
    errors: list[str] = []
    if c.num_qubits < 0:
        errors.append("num_qubits must be non-negative")
    if c.num_clbits < 0:
        errors.append("num_clbits must be non-negative")
    written: set[int] = set()
    for i, ins in enumerate(c.instructions):
        mark = len(errors)
        expected = _ARITY.get(ins.gate)
        if expected is not None and len(ins.qubits) != expected:
            errors.append(f"expected {expected} qubit operand(s), got {len(ins.qubits)}")
        if ins.gate is Gate.BARRIER and not ins.qubits:
            errors.append("barrier needs at least one qubit")
        for q in ins.qubits:
            if not 0 <= q < c.num_qubits:
                errors.append(f"qubit index {q} out of range")
        if len(set(ins.qubits)) != len(ins.qubits):
            errors.append("duplicate operand")
        if (ins.angle is not None) != (ins.gate in ROTATION_GATES):
            errors.append("angle present iff gate is a rotation")
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
            where = f"instruction {i} ({ins.gate.value})"
            errors[mark:] = [f"{where}: {e}" for e in errors[mark:]]
    return errors


def _splice(items: Sequence, blocks: Mapping[int, Sequence]) -> list:
    """Copy of `items` with each position in `blocks` replaced by its block;
    an empty block deletes it.  Every rewrite is laid out here: the runs
    between touched positions are copied by slice, not walked."""
    out: list = []
    prev = 0
    for i in sorted(blocks):
        out += items[prev:i]
        out += blocks[i]
        prev = i + 1
    out += items[prev:]
    return out


def depth_of(instructions: Sequence[Instruction]) -> int:
    """ASAP layer count of an instruction sequence scheduled from scratch."""
    qubit_avail: dict[int, int] = {}
    clbit_written: dict[int, int] = {}
    max_layer = 0
    for ins in instructions:
        if ins.gate is Gate.BARRIER:
            # Synchronize operand qubits at the latest layer among them, cost-free.
            layer = 0
            for q in ins.qubits:
                a = qubit_avail.get(q, 0)
                if a > layer:
                    layer = a
            for q in ins.qubits:
                qubit_avail[q] = layer
            continue
        layer = 0
        for q in ins.qubits:
            a = qubit_avail.get(q, 0)
            if a > layer:
                layer = a
        if ins.condition is not None:
            for b in ins.condition.bits:
                a = clbit_written.get(b, 0)
                if a > layer:
                    layer = a
        if ins.clbit is not None:
            a = clbit_written.get(ins.clbit, 0)
            if a > layer:
                layer = a
        layer += 1
        for q in ins.qubits:
            qubit_avail[q] = layer
        if ins.clbit is not None:
            clbit_written[ins.clbit] = layer
        if layer > max_layer:
            max_layer = layer
    return max_layer


def depth(c: Circuit) -> int:
    """ASAP depth of the circuit."""
    return depth_of(c.instructions)


def stats(c: Circuit) -> DepthReport:
    """Depth and gate/measurement counts."""
    gate_count = 0
    two_qubit = 0
    measures = 0
    for ins in c.instructions:
        if ins.gate is Gate.MEASURE:
            measures += 1
        elif ins.gate is not Gate.BARRIER:
            gate_count += 1
            if ins.gate in TWO_QUBIT_GATES:
                two_qubit += 1
    return DepthReport(depth(c), gate_count, two_qubit, measures)

