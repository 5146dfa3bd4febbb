"""Improvement-aware application of chain rewrites, and the full compile pipeline.

The chain pass never has to make the circuit worse: in conservative mode a
candidate decomposition is applied only if it strictly reduces the depth of
its evaluation window *and* does not increase the depth of the whole circuit.
The window check alone is the cheap filter (chain plus the following
`depth_scope` operations, compared on identical window boundaries); the
whole-circuit recheck closes the gap where context before the window skews the
schedule in a way no bounded window can see.  Each rewrite that passes the
window check is laid out once; that one list is rechecked, verified and
installed.

Modes:

* conservative - evaluate, apply only on strict window improvement that the
                 whole circuit keeps.
* always       - evaluate, apply unconditionally (may increase depth).
* off          - leave the circuit untouched.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

from . import sim
from .chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    _clbits,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
)
from .ghz import GhzMode, GhzSite, rebuild_ghz_sites
from .ir import Circuit, Condition, Gate, Instruction, depth_of


class ChainMode(Enum):
    OFF = "off"
    CONSERVATIVE = "conservative"
    ALWAYS = "always"


@dataclass(frozen=True)
class PassConfig:
    ghz_mode: GhzMode = GhzMode.OFF
    chain_mode: ChainMode = ChainMode.CONSERVATIVE
    min_chain_gates: int = 5
    depth_scope: int = 100
    cz_to_cx: bool = False
    verify: bool = False
    max_verify_qubits: int = 10

    def __post_init__(self) -> None:
        if self.min_chain_gates < 2:
            raise ValueError("min_chain_gates must be at least 2")
        if self.depth_scope < 0:
            raise ValueError("depth_scope must be non-negative")


@dataclass(frozen=True)
class GateDecision:
    candidate: ChainCandidate
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


def _verify_rewrite(
    before: Sequence[Instruction],
    after: Sequence[Instruction],
    oracle: Callable[[Circuit, Circuit], bool],
    max_qubits: int,
    what: str,
    candidate: ChainCandidate | GhzSite,
) -> None:
    """Oracle check of one rewrite on its own qubits and classical bits, both
    renumbered from 0, barriers dropped; raises VerificationError on a mismatch.

    Rewrites touching more than `max_qubits` qubits are skipped."""
    qubits = sorted({q for ins in before for q in ins.qubits})
    if len(qubits) > max_qubits:
        return
    qmap = {q: i for i, q in enumerate(qubits)}
    clbits = sorted({b for ins in (*before, *after) for b in _clbits(ins)})
    cmap = {b: i for i, b in enumerate(clbits)}

    def rebuilt(instrs: Sequence[Instruction]) -> Circuit:
        body = tuple(
            replace(
                ins,
                qubits=tuple(qmap[q] for q in ins.qubits),
                clbit=cmap.get(ins.clbit),
                condition=ins.condition and Condition(tuple(cmap[b] for b in ins.condition.bits)),
            )
            for ins in instrs
            if ins.gate is not Gate.BARRIER
        )
        return Circuit(len(qubits), len(clbits), body)

    if not oracle(rebuilt(before), rebuilt(after), tol=1e-9):
        raise VerificationError(f"{what} failed oracle equivalence", candidate)


def gate_and_apply(c: Circuit, config: PassConfig) -> tuple[Circuit, list[GateDecision]]:
    """Scan for chains and apply their decompositions per the configured mode.

    Returns the rewritten circuit and one decision record per candidate, in
    discovery order.  Raises VerificationError if a requested oracle check
    fails (no partial result is returned in that case).
    """
    if config.chain_mode is ChainMode.OFF:
        return c, []

    scanner = ChainScanner(c, min_gates=config.min_chain_gates)
    decisions: list[GateDecision] = []
    base_depth = depth_of(scanner.instructions)
    while (cand := scanner.next()) is not None:
        ins = scanner.instructions
        replacement = _replacement_for(cand, config.cz_to_cx)
        # Ops displaced out of the chain are left out of the window: they are
        # the same on both sides, and counting them would let an unrelated
        # chain's depth mask a genuine improvement.
        tail_start = cand.end_index + 1
        tail = ins[tail_start : tail_start + config.depth_scope]
        d_before = depth_of([ins[i] for i in cand.gate_indices] + tail)
        d_after = depth_of(replacement + tail)
        apply_it = config.chain_mode is ChainMode.ALWAYS or d_after < d_before
        if apply_it:
            rewritten = scanner.rewrite(replacement)
            if config.chain_mode is ChainMode.CONSERVATIVE:
                # Whole-circuit recheck: never degrade, even when the context
                # outside the window skews the schedule.
                new_depth = depth_of(rewritten)
                apply_it = new_depth <= base_depth
                if apply_it:
                    base_depth = new_depth

        if apply_it and config.verify:
            # Both lists share the prefix before the chain and the suffix
            # after its last gate.
            window = ins[cand.start_index : tail_start]
            new_window = rewritten[cand.start_index : len(rewritten) - len(ins) + tail_start]
            if not any(_clbits(op) for op in window + new_window):  # no measurement or condition
                _verify_rewrite(
                    window, new_window, sim.equivalent_unitary, config.max_verify_qubits,
                    f"chain rewrite at instruction {cand.start_index} "
                    f"({cand.kind.value}, {len(cand.gate_indices)} gates)",
                    cand,
                )

        if apply_it:
            scanner.accept(rewritten)
        else:
            scanner.skip()
        decisions.append(GateDecision(cand, d_before, d_after, apply_it))
    if not any(d.applied for d in decisions):
        return c, decisions
    return scanner.circuit, decisions


@dataclass
class CompileResult:
    circuit: Circuit
    ghz_sites_found: int = 0
    ghz_sites_replaced: int = 0
    chains_found: int = 0
    chains_applied: int = 0
    decisions: list[GateDecision] = field(default_factory=list)
    verified: bool = False


def compile_circuit(
    c: Circuit,
    config: PassConfig,
    passes: Sequence[str] = ("ghz", "chains"),
) -> CompileResult:
    """Run the configured passes in order (default: GHZ rewrite, then chains)."""
    result = CompileResult(circuit=c)
    for name in passes:
        if name == "ghz":
            rebuilt, sites, replaced = rebuild_ghz_sites(result.circuit, config.ghz_mode)
            if config.verify:
                original = result.circuit.instructions
                for site, block in replaced:
                    _verify_rewrite(
                        [original[i] for i in sorted(site.gate_indices)], block,
                        sim.equivalent_on_zero, config.max_verify_qubits,
                        f"GHZ rewrite at instruction {site.hadamard_index}", site,
                    )
            result.ghz_sites_found += len(sites)
            result.ghz_sites_replaced += len(replaced)
            result.circuit = rebuilt
        elif name == "chains":
            rewritten, decisions = gate_and_apply(result.circuit, config)
            result.chains_found += len(decisions)
            result.chains_applied += sum(d.applied for d in decisions)
            result.decisions.extend(decisions)
            result.circuit = rewritten
        else:
            raise ValueError(f"unknown pass {name!r}")
    result.verified = config.verify
    return result
