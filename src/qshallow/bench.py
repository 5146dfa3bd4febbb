"""Deterministic benchmark circuit families.

GHZ preparations, plain CX/CZ chains, intertwined-chain stress cases, and
VQE-style ansatz circuits (rotation layers alternating with entanglement
layers).  All generators are pure functions of their parameters; ansatz angles
come from a seeded PCG64 stream, so a (spec, seed) pair always reproduces the
same circuit.  numpy, which draws them, is imported by the two generators that
use it, so importing this module (as the CLI does) does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ir import Circuit, Instruction, cx, cz, h, rx, ry, rz

#: Identifier of the angle stream, recorded in benchmark CSV headers.
RNG_IDENTIFIER = "numpy-pcg64"

ANSATZ_FAMILIES = ("efficient_su2", "real_amplitudes", "two_local")
ENTANGLEMENTS = ("linear", "reverse_linear", "circular", "sca", "full")


def gen_ghz_standard(n: int) -> Circuit:
    """H plus a CX chain: the textbook linear-depth GHZ preparation."""
    if n < 2:
        raise ValueError("need at least 2 qubits")
    body = [h(0)] + [cx(i, i + 1) for i in range(n - 1)]
    return Circuit(n, 0, tuple(body))


def gen_cx_chain(n: int, direction: str = "forward") -> Circuit:
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if direction == "forward":
        body = [cx(i, i + 1) for i in range(n - 1)]
    elif direction == "reverse":
        body = [cx(i, i - 1) for i in range(n - 1, 0, -1)]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return Circuit(n, 0, tuple(body))


def gen_cz_chain(n: int) -> Circuit:
    if n < 2:
        raise ValueError("need at least 2 qubits")
    return Circuit(n, 0, tuple(cz(i, i + 1) for i in range(n - 1)))


def gen_intertwined(n_chains: int, chain_len: int) -> Circuit:
    """Disjoint-qubit plain CX chains with their gates round-robin interleaved.

    `chain_len` counts gates per chain, so each chain spans chain_len + 1
    qubits and the circuit has n_chains * chain_len CX gates.
    """
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    if chain_len < 1:
        raise ValueError("need at least 1 gate per chain")
    width = chain_len + 1
    body: list[Instruction] = []
    for g in range(chain_len):
        for k in range(n_chains):
            base = k * width
            body.append(cx(base + g, base + g + 1))
    return Circuit(n_chains * width, 0, tuple(body))


@dataclass(frozen=True)
class AnsatzSpec:
    family: str
    n: int
    reps: int
    entanglement: str
    seed: int


def _entanglement_pairs(kind: str, n: int, rep: int) -> list[tuple[int, int]]:
    linear = [(i, i + 1) for i in range(n - 1)]
    if kind == "linear":
        return linear
    if kind == "reverse_linear":
        return [(i, i - 1) for i in range(n - 1, 0, -1)]
    if kind == "circular":
        return linear + [(n - 1, 0)]
    if kind == "sca":
        # Shifted-circular-alternating: the circular block is shifted by one
        # position per repetition and control/target swap on odd repetitions.
        base = linear + [(n - 1, 0)]
        shifted = [((a + rep) % n, (b + rep) % n) for a, b in base]
        if rep % 2 == 1:
            shifted = [(b, a) for a, b in shifted]
        return shifted
    if kind == "full":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown entanglement {kind!r}")


def gen_ansatz(spec: AnsatzSpec) -> Circuit:
    """Rotation/entanglement ansatz in the named family.

    efficient_su2 uses an RY layer followed by an RZ layer per rotation block;
    real_amplitudes and two_local use a single RY layer.  Each repetition is a
    rotation block plus an entanglement layer; a final rotation block closes
    the circuit.
    """
    if spec.family not in ANSATZ_FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.entanglement not in ENTANGLEMENTS:
        raise ValueError(f"unknown entanglement {spec.entanglement!r}")
    if spec.n < 2:
        raise ValueError("need at least 2 qubits")
    if spec.reps < 1:
        raise ValueError("need at least 1 repetition")
    import numpy as np

    rng = np.random.default_rng(spec.seed)

    def angle() -> float:
        return float(rng.uniform(0.0, 2.0 * np.pi))

    body: list[Instruction] = []

    def rotation_block() -> None:
        for q in range(spec.n):
            body.append(ry(q, angle()))
        if spec.family == "efficient_su2":
            for q in range(spec.n):
                body.append(rz(q, angle()))

    for rep in range(spec.reps):
        rotation_block()
        for a, b in _entanglement_pairs(spec.entanglement, spec.n, rep):
            body.append(cx(a, b))
    rotation_block()
    return Circuit(spec.n, 0, tuple(body))


def gen_random(num_qubits: int, num_instructions: int, seed: int) -> Circuit:
    """Seeded random measurement-free circuit over H/RX/RY/RZ/CX/CZ."""
    if num_qubits < 2:
        raise ValueError("need at least 2 qubits")
    import numpy as np

    rng = np.random.default_rng(seed)
    body: list[Instruction] = []
    kinds = ("h", "rx", "ry", "rz", "cx", "cz")
    for _ in range(num_instructions):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in ("cx", "cz"):
            a, b = rng.choice(num_qubits, size=2, replace=False)
            body.append(cx(int(a), int(b)) if kind == "cx" else cz(int(a), int(b)))
        elif kind == "h":
            body.append(h(int(rng.integers(num_qubits))))
        else:
            q = int(rng.integers(num_qubits))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            body.append({"rx": rx, "ry": ry, "rz": rz}[kind](q, theta))
    return Circuit(num_qubits, 0, tuple(body))
