"""Gated GHZ and chain rewrites, and the full compile pipeline.

Every rewrite takes the same steps; only the candidate source and the verify
oracle differ.  In conservative mode a rewrite must strictly reduce the depth
of its window - its gates plus the next `DEPTH_SCOPE` operations - and the
rewritten whole circuit must be no deeper than the pass's base, as no bounded
window sees context before it that skews the schedule.  A rewrite is laid out
once (`chains._rewrite`); that list is rechecked, verified and installed.

GHZ sites (`detect_ghz`, checked from |0...0>) are on fresh qubits, so no
dependency path meets two blocks: each site is gated against the pass's input
and the blocks kept are spliced at once.  Chains (`ChainScanner`, checked as
unitaries) come one at a time, each against the depth the last accept left.

Modes (`chain_mode` gates every rewrite):

* conservative - apply on strict window improvement that the whole circuit
                 keeps; GHZ sites are gated too.
* always       - apply every chain and GHZ site (may increase depth).
* off          - skip the chain scan; apply every GHZ site.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from . import ghz, sim
from .chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    _clbits,
    _rewrite,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
)
from .ghz import GhzMode, GhzSite
from .ir import Circuit, Condition, Gate, Instruction, depth_of

#: Operations after a candidate's last gate that its window includes.
DEPTH_SCOPE = 100
#: Rewrites on more qubits than this are not verified (dense oracles).
MAX_VERIFY_QUBITS = 10


class ChainMode(Enum):
    OFF = "off"
    CONSERVATIVE = "conservative"
    ALWAYS = "always"


@dataclass(frozen=True)
class PassConfig:
    ghz_mode: GhzMode = GhzMode.OFF
    chain_mode: ChainMode = ChainMode.CONSERVATIVE
    min_chain_gates: int = 5
    cz_to_cx: bool = False
    verify: bool = False

    def __post_init__(self) -> None:
        if self.min_chain_gates < 2:
            raise ValueError("min_chain_gates must be at least 2")


@dataclass(frozen=True)
class GateDecision:
    candidate: ChainCandidate | GhzSite
    depth_before: int
    depth_after: int
    applied: bool


class VerificationError(Exception):
    """A rewrite failed its oracle equivalence check; the original circuit stands."""

    def __init__(self, message: str, candidate: ChainCandidate | GhzSite | None = None):
        super().__init__(message)
        self.candidate = candidate


def _replacement_for(candidate: ChainCandidate, cz_to_cx: bool) -> list[Instruction]:
    if candidate.kind is ChainKind.CZ:
        builder = decompose_cz_to_cx if cz_to_cx else decompose_cz
        return builder(candidate.qubit_seq)
    return decompose_forward(candidate.qubit_seq)


def _window_gate(
    ins: Sequence[Instruction], cand, replacement: Sequence[Instruction], mode: ChainMode
) -> GateDecision:
    """Window depths before and after the rewrite, and whether it passes.  Ops
    displaced out of a chain are the same on both sides and stay out: counting
    them would let an unrelated chain's depth mask a genuine improvement."""
    tail_start = cand.end_index + 1
    tail = ins[tail_start : tail_start + DEPTH_SCOPE]
    before = depth_of([*(ins[i] for i in cand.gate_indices), *tail])
    after = depth_of([*replacement, *tail])
    return GateDecision(cand, before, after, mode is not ChainMode.CONSERVATIVE or after < before)


def _lay_out(ins: Sequence[Instruction], rewrites: list[tuple], base: int | None):
    """`ins` with the (candidate, replacement) `rewrites` laid out; returns the
    rewrites kept, their layout and the new base.

    Given a `base`, this is conservative mode's whole-circuit recheck.  Several
    rewrites come only when no dependency path meets two of them (GHZ blocks):
    they are tried as one batch, and one by one only if that is deeper, which
    keeps exactly the rewrites that pass alone (a path meets one at most)."""
    rewritten = _rewrite(ins, rewrites)
    if base is None:
        return rewrites, rewritten, None
    depth = depth_of(rewritten)
    if depth <= base:
        return rewrites, rewritten, depth
    if len(rewrites) == 1:
        return [], ins, base
    kept = [r for r in rewrites if depth_of(_rewrite(ins, [r])) <= base]
    return kept, _rewrite(ins, kept), base


def _verify_rewrite(
    ins: Sequence[Instruction],
    cand: ChainCandidate | GhzSite,
    replacement: Sequence[Instruction],
    rewritten: Sequence[Instruction],
) -> bool:
    """Oracle check of one rewrite of `ins` on its own qubits and classical
    bits, both renumbered from 0, barriers dropped; raises VerificationError
    on a mismatch.  Returns False, checking nothing, for rewrites on more than
    MAX_VERIFY_QUBITS qubits and for chain windows with a measurement or a
    condition (the unitary oracle takes neither)."""
    if isinstance(cand, GhzSite):  # a state-preparation identity on fresh qubits
        before, after = [ins[i] for i in cand.gate_indices], replacement
        oracle = sim.equivalent_on_zero
    else:  # the lists share what precedes the chain and follows its last gate
        end = cand.end_index + 1
        before = ins[cand.start_index : end]
        after = rewritten[cand.start_index : len(rewritten) - len(ins) + end]
        oracle = sim.equivalent_unitary
        if any(_clbits(op) for op in (*before, *after)):
            return False
    qubits = sorted({q for op in before for q in op.qubits})
    if len(qubits) > MAX_VERIFY_QUBITS:
        return False
    qmap = {q: i for i, q in enumerate(qubits)}
    clbits = sorted({b for op in (*before, *after) for b in _clbits(op)})
    cmap = {b: i for i, b in enumerate(clbits)}

    def rebuilt(instrs: Sequence[Instruction]) -> Circuit:
        body = tuple(
            replace(
                op,
                qubits=tuple(qmap[q] for q in op.qubits),
                clbit=cmap.get(op.clbit),
                condition=op.condition and Condition(tuple(cmap[b] for b in op.condition.bits)),
            )
            for op in instrs
            if op.gate is not Gate.BARRIER
        )
        return Circuit(len(qubits), len(clbits), body)

    if not oracle(rebuilt(before), rebuilt(after), tol=1e-9):
        raise VerificationError(
            f"{cand.kind.value} rewrite at instruction {cand.start_index} "
            f"({len(cand.gate_indices)} gates) failed oracle equivalence",
            cand,
        )
    return True


def gate_ghz_sites(c: Circuit, config: PassConfig) -> tuple[Circuit, list[GateDecision], bool]:
    """Rebuild the detected GHZ sites as `config.ghz_mode` says, gated per
    `config.chain_mode`.  Returns like `gate_and_apply`, one decision per site.
    """
    if config.ghz_mode is GhzMode.OFF:
        return c, [], config.verify
    ins = c.instructions
    sites = ghz.detect_ghz(c)
    blocks = ghz.site_blocks(sites, config.ghz_mode, c.num_clbits)
    # A site without a block keeps its gates, so its window does not change.
    decisions = [
        _window_gate(ins, site, block or [ins[i] for i in site.gate_indices], config.chain_mode)
        for site, block in zip(sites, blocks)
    ]
    kept = [(d.candidate, b) for d, b in zip(decisions, blocks) if d.applied and b is not None]
    if kept:
        base = depth_of(ins) if config.chain_mode is ChainMode.CONSERVATIVE else None
        kept, rewritten, _ = _lay_out(ins, kept, base)
    kept_at = {site.start_index for site, _ in kept}
    decisions = [replace(d, applied=d.candidate.start_index in kept_at) for d in decisions]
    if not kept:
        return c, decisions, config.verify
    if config.ghz_mode is GhzMode.PARALLEL and len(kept) < len(sites) - blocks.count(None):
        # Number the fresh bits of the blocks kept without gaps.
        kept_sites = [site for site, _ in kept]
        kept = list(zip(kept_sites, ghz.site_blocks(kept_sites, config.ghz_mode, c.num_clbits)))
        rewritten = _rewrite(ins, kept)
    verified = config.verify
    if config.verify:
        for site, block in kept:
            verified = _verify_rewrite(ins, site, block, rewritten) and verified
    fresh = sum(op.gate is Gate.MEASURE for _, block in kept for op in block)
    return Circuit(c.num_qubits, c.num_clbits + fresh, tuple(rewritten)), decisions, verified


def gate_and_apply(c: Circuit, config: PassConfig) -> tuple[Circuit, list[GateDecision], bool]:
    """Scan for chains and apply their decompositions per the configured mode.

    Returns the rewritten circuit, one decision record per candidate in
    discovery order, and whether `config.verify` checked every rewrite applied.
    Raises VerificationError if a requested oracle check fails.
    """
    if config.chain_mode is ChainMode.OFF:
        return c, [], config.verify

    scanner = ChainScanner(c, min_gates=config.min_chain_gates)
    decisions: list[GateDecision] = []
    verified = config.verify
    base = depth_of(scanner.instructions) if config.chain_mode is ChainMode.CONSERVATIVE else None
    while (cand := scanner.next()) is not None:
        ins = scanner.instructions
        replacement = _replacement_for(cand, config.cz_to_cx)
        decision = _window_gate(ins, cand, replacement, config.chain_mode)
        if decision.applied:
            kept, rewritten, base = _lay_out(ins, [(cand, replacement)], base)
            decision = replace(decision, applied=bool(kept))
        if decision.applied:
            if config.verify:
                verified = _verify_rewrite(ins, cand, replacement, rewritten) and verified
            scanner.accept(rewritten)
        else:
            scanner.skip()
        decisions.append(decision)
    if not any(d.applied for d in decisions):
        return c, decisions, verified
    return scanner.circuit, decisions, verified


@dataclass
class CompileResult:
    circuit: Circuit
    decisions: list[GateDecision] = field(default_factory=list)
    verified: bool = False


def compile_circuit(c: Circuit, config: PassConfig) -> CompileResult:
    """The GHZ pass, then the chain pass.  `verified` is true when
    `config.verify` is set and every applied rewrite was checked."""
    out, ghz_decisions, ghz_verified = gate_ghz_sites(c, config)
    out, chain_decisions, chains_verified = gate_and_apply(out, config)
    return CompileResult(out, ghz_decisions + chain_decisions, ghz_verified and chains_verified)
