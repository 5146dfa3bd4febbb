"""Brute-force semantic ground truth for circuit transformations.

Dense statevector simulation with exhaustive measurement-branch enumeration.
Everything here is deliberately simple and independent of the rewrite passes,
so it can serve as the oracle that checks them.

Basis convention: qubit k is bit k of the basis index (qubit 0 is the least
significant bit).  A statevector over n qubits therefore has amplitude[i]
belonging to the computational state whose binary expansion is i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Gate, Instruction

#: Hard cap keeping every oracle call desk-scale (4096 amplitudes).
MAX_QUBITS = 12

#: Branches below this probability are pruned during enumeration.
PRUNE_PROBABILITY = 1e-12

_SQRT2_INV = 1.0 / math.sqrt(2.0)

_FIXED_1Q = {
    Gate.H: np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    Gate.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Gate.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Gate.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

# CX/CZ matrices are laid out in |q_first, q_second> order, q_first = control.
_CX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)


def gate_matrix(gate: Gate, angle: float | None = None) -> np.ndarray:
    """Matrix of a single gate kind (RZ(t) = diag(e^{-it/2}, e^{it/2}))."""
    if gate in _FIXED_1Q:
        return _FIXED_1Q[gate]
    if gate is Gate.RX:
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if gate is Gate.RY:
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate is Gate.RZ:
        return np.array(
            [[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]], dtype=complex
        )
    if gate is Gate.CX:
        return _CX
    if gate is Gate.CZ:
        return _CZ
    raise ValueError(f"{gate.value} has no unitary matrix")


def _apply_matrix(arr: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply a k-qubit gate matrix along the given tensor axes of `arr`."""
    k = len(axes)
    mat_t = mat.reshape([2] * (2 * k))
    arr = np.tensordot(mat_t, arr, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(arr, range(k), axes)


def _axis(q: int, n: int) -> int:
    # Qubit 0 is the least significant bit, i.e. the last tensor axis.
    return n - 1 - q


def _apply_instruction(state: np.ndarray, ins: Instruction, n: int) -> np.ndarray:
    # CX and CZ act on few amplitudes; slice updates beat a full tensordot.
    if ins.gate is Gate.CX:
        c, t = ins.qubits
        sel0, sel1 = [slice(None)] * state.ndim, [slice(None)] * state.ndim
        sel0[_axis(c, n)] = sel1[_axis(c, n)] = 1
        sel0[_axis(t, n)], sel1[_axis(t, n)] = 0, 1
        lo, hi = state[tuple(sel0)].copy(), state[tuple(sel1)]
        state[tuple(sel0)] = hi
        state[tuple(sel1)] = lo
        return state
    if ins.gate is Gate.CZ:
        sel = [slice(None)] * state.ndim
        for q in ins.qubits:
            sel[_axis(q, n)] = 1
        state[tuple(sel)] *= -1
        return state
    mat = gate_matrix(ins.gate, ins.angle)
    axes = [_axis(q, n) for q in ins.qubits]
    return _apply_matrix(state, mat, axes)


def unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a measurement-free, condition-free circuit."""
    if c.num_qubits > MAX_QUBITS:
        raise ValueError(f"too many qubits for unitary extraction ({c.num_qubits} > {MAX_QUBITS})")
    for ins in c.instructions:
        if ins.gate is Gate.MEASURE:
            raise ValueError("unitary extraction requires a measurement-free circuit")
        if ins.condition is not None:
            raise ValueError("unitary extraction requires a condition-free circuit")
    dim = 2 ** c.num_qubits
    u = np.eye(dim, dtype=complex).reshape([2] * c.num_qubits + [dim])
    for ins in c.instructions:
        if ins.gate is Gate.BARRIER:
            continue
        u = _apply_instruction(u, ins, c.num_qubits)
    return u.reshape(dim, dim)


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome branch: recorded bits, its probability, final state."""

    outcomes: dict[int, int]
    probability: float
    state: np.ndarray


def branches(c: Circuit, basis_state: int = 0) -> list[Branch]:
    """Enumerate all measurement branches of `c` started from a basis state.

    Depth-first over measurement outcomes; branches with probability below
    PRUNE_PROBABILITY are dropped.  A conditioned gate fires iff the parity of
    its recorded bits is 1; conditioning on an unmeasured bit is an error.
    """
    n = c.num_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"too many qubits for branch enumeration ({n} > {MAX_QUBITS})")
    dim = 2 ** n
    if not 0 <= basis_state < dim:
        raise ValueError(f"basis state {basis_state} out of range for {n} qubits")
    init = np.zeros(dim, dtype=complex)
    init[basis_state] = 1.0
    instrs = c.instructions
    out: list[Branch] = []
    # Stack of (state, next instruction index, recorded outcomes, probability).
    stack: list[tuple[np.ndarray, int, dict[int, int], float]] = [(init, 0, {}, 1.0)]
    while stack:
        state, i, outcomes, prob = stack.pop()
        while i < len(instrs):
            ins = instrs[i]
            i += 1
            if ins.gate is Gate.BARRIER:
                continue
            if ins.gate is Gate.MEASURE:
                q = ins.qubits[0]
                tensor = state.reshape([2] * n)
                ax = _axis(q, n)
                alternatives = []
                for value in (0, 1):
                    sl: list[object] = [slice(None)] * n
                    sl[ax] = 1 - value
                    proj = tensor.copy()
                    proj[tuple(sl)] = 0.0
                    p = float(np.sum(np.abs(proj) ** 2))
                    if p >= PRUNE_PROBABILITY:
                        alternatives.append((value, p, (proj / math.sqrt(p)).reshape(-1)))
                base_outcomes, base_prob = outcomes, prob
                first = True
                for value, p, collapsed in alternatives:
                    recorded = dict(base_outcomes)
                    recorded[ins.clbit] = value
                    if first:
                        state, outcomes, prob = collapsed, recorded, base_prob * p
                        first = False
                    else:
                        stack.append((collapsed, i, recorded, base_prob * p))
                continue
            if ins.condition is not None:
                parity = 0
                for b in ins.condition.bits:
                    if b not in outcomes:
                        raise ValueError(
                            f"condition on classical bit {b} before its measurement"
                        )
                    parity ^= outcomes[b]
                if parity != 1:
                    continue
            state = _apply_instruction(state.reshape([2] * n), ins, n).reshape(-1)
        out.append(Branch(outcomes, prob, state.reshape(-1)))
    return out


def states_equal_up_to_phase(reference: np.ndarray, other: np.ndarray, tol: float) -> bool:
    """Max-amplitude equality after removing the global phase.

    The phase is normalized on the largest-magnitude entry of `reference`,
    which keeps the comparison stable against near-zero entries.
    """
    reference = np.asarray(reference).reshape(-1)
    other = np.asarray(other).reshape(-1)
    if reference.shape != other.shape:
        return False
    pivot = int(np.argmax(np.abs(reference)))
    if abs(other[pivot]) < PRUNE_PROBABILITY:
        return False
    phase = reference[pivot] / other[pivot]
    phase /= abs(phase)
    return float(np.max(np.abs(reference - phase * other))) <= tol


def equivalent_unitary(c1: Circuit, c2: Circuit, tol: float = 1e-9) -> bool:
    """True iff the circuits implement the same unitary up to a global phase."""
    if c1.num_qubits != c2.num_qubits:
        raise ValueError("qubit counts differ")
    return states_equal_up_to_phase(unitary(c1), unitary(c2), tol)


def equivalent_on_zero(c1: Circuit, c2: Circuit, tol: float = 1e-9) -> bool:
    """True iff every branch of `c2` from |0...0> reproduces `c1`'s output state.

    `c1` must be deterministic (a single branch).  Classical bits are
    discarded; each branch state must match up to a global phase.
    """
    if c1.num_qubits != c2.num_qubits:
        raise ValueError("qubit counts differ")
    reference_branches = branches(c1, 0)
    if len(reference_branches) != 1:
        raise ValueError("reference circuit must have a single measurement branch")
    reference = reference_branches[0].state
    return all(
        states_equal_up_to_phase(reference, br.state, tol) for br in branches(c2, 0)
    )
