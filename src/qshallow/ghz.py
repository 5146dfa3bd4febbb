"""Detection and depth-reduced reconstruction of GHZ-preparation subroutines.

A GHZ site is a Hadamard on a fresh qubit followed by CX gates that fan the
superposition out, either chain-style (each control is the previous target) or
star-style (one control, many targets).  Detected sites can be rebuilt in two
ways:

* `build_ghz_log` - a doubling cascade with depth 1 + ceil(log2 n), no
  measurements (robust against measurement noise).
* `build_ghz_parallel` - a fusion construction with constant depth 6 and
  floor(n/2) mid-circuit measurements plus feedforward corrections.

Both substitutions are state-preparation identities: they hold from |0...0>,
which is why detection insists every member qubit is fresh.  The chain
scanner offers each site, in start order among the chains, with
`detect_ghz` as its site source (`chains.ChainScanner`); the pipeline picks
its construction as it does a chain's rewrite (`pipeline._replacement_for`),
then gates, verifies and splices it.
"""
from __future__ import annotations

from enum import Enum
from typing import Sequence

from .chains import _REPLACED, ChainCandidate, ChainKind
from .ir import Condition, Gate, Instruction, UseTable, UseWalk, cx, h, measure
from .ir import x as x_gate


class GhzMode(Enum):
    OFF = "off"
    ROBUST = "robust"
    PARALLEL = "parallel"


def detect_ghz(
    ins: Sequence[Instruction], table: UseTable, h_idx: int, state: Sequence[int]
) -> ChainCandidate | None:
    """The GHZ-preparation site that the unconditioned H at `h_idx` starts,
    if its qubit is fresh there: then CX gates onto fresh targets forming a
    pure chain or a pure fan-out.  It is a `ChainKind.GHZ` candidate: its
    start is the H, its qubits the members, root first; None below two
    members.

    The site ends at the first instruction that touches a member qubit
    without extending the pattern, or that a rewrite holds (`state`, the
    scanner's seed states, is `_REPLACED` there): no rewrite's gate is
    rewritten again.  Instructions on unrelated qubits may interleave.
    Every member joins at its first use, so sites are disjoint in qubits and
    in gate indices.

    Only instructions on member qubits can extend or end a site, so it is
    grown by walking the members' uses in `table`, the use table of `ins`,
    whose freshness test (`UseTable.fresh`) holds across its cut: a site
    costs its gates plus the one that ends it.
    """
    root = ins[h_idx].qubits[0]
    if not table.fresh(root, h_idx):
        return None
    members = [root]
    gate_indices = [h_idx]
    shape: str | None = None
    last = root
    walk = UseWalk(table, table.n)  # the uses of the members
    walk.add(root, h_idx + 1)
    for j in walk:
        op = ins[j]
        if op.gate is not Gate.CX or op.condition is not None or state[j] == _REPLACED:
            break
        ctrl, tgt = op.qubits
        extends_chain = ctrl == last and shape in (None, "chain")
        extends_fanout = ctrl == root and shape in (None, "fanout")
        if not (extends_chain or extends_fanout) or not table.fresh(tgt, j):
            break  # the pattern does not continue, or the target is not fresh
        if shape is None and len(members) >= 2:
            shape = "chain" if ctrl == last else "fanout"
        members.append(tgt)
        gate_indices.append(j)
        last = tgt
        walk.add(tgt, j + 1)
    if len(members) < 2:
        return None
    return ChainCandidate(ChainKind.GHZ, tuple(gate_indices), tuple(members), h_idx, ())


def build_ghz_log(members: Sequence[int]) -> list[Instruction]:
    """Doubling cascade: every qubit already in the superposition fans out to a
    partner 2^d positions away.  Depth 1 + ceil(log2 n), n-1 CX gates."""
    n = len(members)
    if n < 2:
        raise ValueError("need at least 2 members")
    out = [h(members[0])]
    step = 1
    while step < n:
        for i in range(min(step, n - step)):
            out.append(cx(members[i], members[i + step]))
        step *= 2
    return out


def build_ghz_parallel(members: Sequence[int], fresh_clbits: Sequence[int]) -> list[Instruction]:
    """Constant-depth fusion construction over the member positions.

    Even-position members are data qubits (Hadamards); odd-position members
    are fusion qubits, each receiving CX from both neighbouring data qubits
    and then measured.  For even n the last fusion qubit has no right
    neighbour, so it fuses the last and first data qubits instead; its outcome
    is redundant but the measurement count stays floor(n/2).  One feedforward
    layer fixes the data parity (X conditioned on the prefix parity of the
    outcomes) and resets each fusion qubit (X conditioned on its own outcome),
    then one CX layer re-entangles the fusion qubits into the GHZ state.

    Layer count is exactly 6 for every n >= 3.
    """
    n = len(members)
    if n < 3:
        raise ValueError("need at least 3 members")
    data = [members[i] for i in range(0, n, 2)]
    fusion = [members[i] for i in range(1, n, 2)]
    if len(fusion) != len(fresh_clbits):
        raise ValueError(f"need {len(fusion)} fresh classical bits, got {len(fresh_clbits)}")
    clbits = list(fresh_clbits)

    out: list[Instruction] = [h(d) for d in data]
    for k, f in enumerate(fusion):
        out.append(cx(data[k], f))
    for k, f in enumerate(fusion):
        right = data[k + 1] if k + 1 < len(data) else data[0]
        out.append(cx(right, f))
    for k, f in enumerate(fusion):
        out.append(measure(f, clbits[k]))
    for k in range(1, len(data)):
        out.append(x_gate(data[k], condition=Condition(tuple(clbits[:k]))))
    for k, f in enumerate(fusion):
        out.append(x_gate(f, condition=Condition((clbits[k],))))
    for k, f in enumerate(fusion):
        out.append(cx(data[k], f))
    return out

