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
which is why detection insists every member qubit is fresh.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal, Sequence

from .ir import Circuit, Condition, Gate, Instruction, cx, h, measure
from .ir import x as x_gate


class GhzMode(Enum):
    OFF = "off"
    ROBUST = "robust"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class GhzSite:
    hadamard_index: int
    root: int
    members: tuple[int, ...]
    gate_indices: frozenset[int]
    shape: Literal["chain", "fanout"]


def detect_ghz(c: Circuit) -> list[GhzSite]:
    """Find GHZ-preparation sites: H on a fresh qubit, then CX gates onto fresh
    targets forming a pure chain or a pure fan-out.

    A site ends at the first instruction that touches a member qubit without
    extending the pattern.  Instructions on unrelated qubits may interleave.
    Sites are disjoint in gate indices.
    """
    first_use: dict[int, int] = {}
    for i, ins in enumerate(c.instructions):
        for q in ins.qubits:
            first_use.setdefault(q, i)

    claimed: set[int] = set()
    sites: list[GhzSite] = []
    for h_idx, ins in enumerate(c.instructions):
        if ins.gate is not Gate.H or ins.condition is not None or h_idx in claimed:
            continue
        root = ins.qubits[0]
        if first_use[root] != h_idx:
            continue
        members = [root]
        gate_indices = [h_idx]
        shape: str | None = None
        last = root
        for j in range(h_idx + 1, len(c.instructions)):
            op = c.instructions[j]
            if j in claimed:
                if set(op.qubits) & set(members):
                    break
                continue
            if op.gate is Gate.CX and op.condition is None:
                ctrl, tgt = op.qubits
                fresh = first_use[tgt] == j
                extends_chain = ctrl == last and shape in (None, "chain")
                extends_fanout = ctrl == root and shape in (None, "fanout")
                if fresh and (extends_chain or extends_fanout):
                    if shape is None and len(members) >= 2:
                        shape = "chain" if ctrl == last else "fanout"
                    members.append(tgt)
                    gate_indices.append(j)
                    last = tgt
                    continue
            if set(op.qubits) & set(members):
                break
        if len(members) >= 2:
            claimed.update(gate_indices)
            sites.append(
                GhzSite(
                    hadamard_index=h_idx,
                    root=root,
                    members=tuple(members),
                    gate_indices=frozenset(gate_indices),
                    shape=shape or "chain",
                )
            )
    return sites


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


def rebuild_ghz_sites(
    c: Circuit, mode: GhzMode
) -> tuple[Circuit, list[GhzSite], list[tuple[GhzSite, list[Instruction]]]]:
    """Replace every detected GHZ site with the construction chosen by `mode`.

    Returns the rewritten circuit, every detected site, and the (site, block)
    pairs actually spliced in.
    """
    sites = detect_ghz(c)
    if mode is GhzMode.OFF or not sites:
        return c, sites, []

    next_clbit = c.num_clbits
    replaced: list[tuple[GhzSite, list[Instruction]]] = []
    for site in sites:
        if mode is GhzMode.ROBUST:
            block = build_ghz_log(site.members)
        else:
            if len(site.members) < 3:
                continue  # the fusion scheme needs a middle qubit; leave as is
            k = len(site.members) // 2
            block = build_ghz_parallel(site.members, range(next_clbit, next_clbit + k))
            next_clbit += k
        replaced.append((site, block))

    replacements = {site.hadamard_index: block for site, block in replaced}
    removed = {i for site, _ in replaced for i in site.gate_indices}
    instructions: list[Instruction] = []
    for i, ins in enumerate(c.instructions):
        if i in replacements:
            instructions.extend(replacements[i])
        elif i not in removed:
            instructions.append(ins)
    out = Circuit(c.num_qubits, next_clbit, tuple(instructions))
    return out, sites, replaced
