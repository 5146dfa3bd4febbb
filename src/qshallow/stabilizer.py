"""Exact equivalence checks for rewrites, at any width, by stabilizer methods.

Every gate here is a Clifford (H, X, Y, Z, CX, CZ) or a single-qubit Pauli
rotation, and every rewrite re-synthesises Cliffords or moves operations by
commutation.  So a rewrite is settled exactly in polynomial time, without a
2^n state (Aaronson & Gottesman, arXiv:quant-ph/0406196):

* Deferred form.  Each classical bit b gets an ancilla qubit, the wire ~b.  A
  measurement becomes a CX onto its bit's ancilla, and an X or Z conditioned
  on the parity of k bits becomes k CX or CZ gates from their ancillas.  A bit
  is written at most once (`ir.validate`), so one ancilla per bit is enough,
  and two lists with equal deferred unitaries act alike on qubits and bits.
* Pauli form.  Each rotation's axis is pulled back through the Clifford gates
  before it, so a gate list is a list of Pauli rotations followed by one
  Clifford, the frame.  The frame F is kept as the images F^-1 P F of each
  wire's X and Z, one row per generator, so appending a gate combines at most
  two rows: O(width / 64) word operations.

A Pauli is a triple (x, z, r) of bit masks over the wires' bit indices and a
phase exponent: the operator i^r X^x Z^z.  Products then need no table, only
the count of Z-before-X crossings.

Only a conditioned gate other than X or Z has no deferred Clifford form;
`same_unitary` and `prepares_same` raise `NoPauliForm` for it, with a reason.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .ir import Gate, Instruction

Pauli = tuple[int, int, int]
#: A pulled-back rotation exp(-i angle/2 P): P's x and z masks, P's sign folded into the angle.
Rotation = tuple[int, int, float]


class NoPauliForm(Exception):
    """The gate list has no deferred Clifford-plus-rotation form; the message
    is the reason."""


def _mul(p: Pauli, q: Pauli) -> Pauli:
    return p[0] ^ q[0], p[1] ^ q[1], (p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()) & 3


def _neg(p: Pauli) -> Pauli:
    return p[0], p[1], (p[2] + 2) & 3


def _commute(a: Rotation, b: Rotation) -> bool:
    return not ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


class _Frame:
    """The Pauli form of a gate list, built gate by gate.

    `rows[w]` is [F^-1 X_w F, F^-1 Z_w F] for the frame F so far; a wire
    without a row is untouched.  `bit` numbers the wires; frames that are
    compared must share it.
    """

    def __init__(self, bit: dict[int, int]):
        self.bit = bit
        self.rows: dict[int, list[Pauli]] = {}
        self.rotations: list[Rotation] = []

    def row(self, w: int) -> list[Pauli]:
        r = self.rows.get(w)
        if r is None:
            b = self.bit.setdefault(w, len(self.bit))
            r = self.rows[w] = [(1 << b, 0, 0), (0, 1 << b, 0)]
        return r

    def cx(self, c: int, t: int) -> None:
        # CX X_c CX = X_c X_t and CX Z_t CX = Z_c Z_t.
        rc, rt = self.row(c), self.row(t)
        rc[0] = _mul(rc[0], rt[0])
        rt[1] = _mul(rc[1], rt[1])

    def cz(self, a: int, b: int) -> None:
        # CZ X_a CZ = X_a Z_b, and the same with a and b swapped.
        ra, rb = self.row(a), self.row(b)
        ra[0], rb[0] = _mul(ra[0], rb[1]), _mul(ra[1], rb[0])

    def push(self, op: Instruction) -> None:
        """Append `op` in deferred form."""
        gate = op.gate
        if gate is Gate.BARRIER:
            return
        if gate is Gate.MEASURE:
            self.cx(op.qubits[0], ~op.clbit)
            return
        if op.condition is not None:
            if gate is Gate.X:
                for b in op.condition.bits:
                    self.cx(~b, op.qubits[0])
            elif gate is Gate.Z:
                for b in op.condition.bits:
                    self.cz(~b, op.qubits[0])
            else:
                raise NoPauliForm(f"conditioned {gate.value}")
            return
        if gate is Gate.CX:
            self.cx(*op.qubits)
        elif gate is Gate.CZ:
            self.cz(*op.qubits)
        else:
            r = self.row(op.qubits[0])
            if gate is Gate.H:
                r.reverse()
            elif gate is Gate.X:
                r[1] = _neg(r[1])
            elif gate is Gate.Z:
                r[0] = _neg(r[0])
            elif gate is Gate.Y:
                r[0], r[1] = _neg(r[0]), _neg(r[1])
            else:
                self._rotate(r, gate, op.angle)

    def _rotate(self, r: list[Pauli], gate: Gate, angle: float) -> None:
        if gate is Gate.RX:
            x, z, p = r[0]
        elif gate is Gate.RZ:
            x, z, p = r[1]
        else:  # Y = i X Z
            x, z, p = _mul(r[0], r[1])
            p += 1
        # i^p X^x Z^z is Hermitian: it is +-1 times the Pauli string with Y
        # wherever x and z overlap, and exp(-ia/2 (-P)) = exp(-i(-a)/2 P).
        if (p - (x & z).bit_count()) & 3:
            angle = -angle
        self.rotations.append((x, z, angle))


def _form(ops: Sequence[Instruction], bit: dict[int, int]) -> _Frame:
    frame = _Frame(bit)
    for op in ops:
        frame.push(op)
    return frame


def _peel(first: Sequence[Rotation], second: Sequence[Rotation]) -> bool:
    """Whether the rotation lists are equal modulo commutation: each rotation
    of `first` in turn must match one of what is left of `second` that
    commutes with everything left before it."""
    rest = list(second)
    for rot in first:
        for k, other in enumerate(rest):
            if other == rot:
                del rest[k]
                break
            if not _commute(other, rot):
                return False
        else:
            return False
    return not rest


def same_unitary(before: Sequence[Instruction], after: Sequence[Instruction]) -> bool:
    """Whether the two lists are the same unitary up to a global phase, in
    deferred form over their qubits and bits.  True is a proof.  False means
    the frames differ or the rotation lists do not peel to nothing; the latter
    does not disprove equality, but commutation alone never leaves one."""
    bit: dict[int, int] = {}
    a, b = _form(before, bit), _form(after, bit)
    wires = a.rows.keys() | b.rows.keys()
    return all(a.row(w) == b.row(w) for w in wires) and _peel(a.rotations, b.rotations)


def _inverse(ops: Sequence[Instruction]) -> list[Instruction]:
    out = []
    for op in reversed(ops):
        if op.gate is Gate.MEASURE or op.condition is not None:
            raise NoPauliForm(f"{op.gate.value} has no inverse")
        out.append(op if op.angle is None else replace(op, angle=-op.angle))
    return out


def prepares_same(site: Sequence[Instruction], block: Sequence[Instruction]) -> bool:
    """Whether `block`, on the qubits of the unitary `site` and reading only
    bits it writes itself, leaves those qubits in the state `site` prepares
    from |0...0>, in every measurement branch.

    The miter - `block` in deferred form, then `site` inverted - must leave
    every qubit in |0> with certainty: then the qubits hold the site's state,
    unentangled with the ancillas.  A qubit's final Z pulled back through the
    miter must be +Z^z for some z, whose value on |0...0> is 1.  The rows
    cost O(|miter| * width / 64) word operations.  A miter holding a rotation
    is not proven.
    """
    qubits = {q for op in site for q in op.qubits}
    written: set[int] = set()
    for op in block:
        if not qubits.issuperset(op.qubits):
            return False  # only the site's qubits are known to start in |0>
        if op.condition is not None and not written.issuperset(op.condition.bits):
            return False  # only the block's own bits are known
        if op.clbit is not None:
            written.add(op.clbit)
    frame = _form([*block, *_inverse(site)], {})
    return not frame.rotations and all(
        x == 0 and r == 0 for x, _, r in (frame.row(q)[1] for q in qubits)
    )
