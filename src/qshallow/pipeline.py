"""Improvement-aware application of chain rewrites, and the full compile pipeline.

The chain pass never has to make the circuit worse: in conservative mode a
candidate decomposition is applied only if it strictly reduces the depth of
its evaluation window *and* does not increase the depth of the whole circuit.
The window check alone is the documented fast path (chain plus the following
`depth_scope` operations, compared on identical window boundaries); the
whole-circuit recheck closes the gap where context before the window skews the
schedule in a way no bounded window can see.

Modes:

* conservative - evaluate, apply only on strict window improvement.
* always       - evaluate, apply unconditionally (may increase depth).
* fast         - apply unconditionally with no depth evaluation at all.
* off          - leave the circuit untouched.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from . import sim
from .chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
    decompose_reverse,
)
from .ghz import GhzMode, GhzSite, rebuild_ghz_sites
from .ir import Circuit, Gate, Instruction, depth, depth_of, validate


class ChainMode(Enum):
    OFF = "off"
    CONSERVATIVE = "conservative"
    ALWAYS = "always"
    FAST = "fast"


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
    depth_before: int | None
    depth_after: int | None
    applied: bool


class VerificationError(Exception):
    """A rewrite failed its oracle equivalence check; the original circuit stands."""

    def __init__(self, message: str, candidate: ChainCandidate | GhzSite | None = None):
        super().__init__(message)
        self.candidate = candidate


def scoped_depth(c: Circuit, candidate: ChainCandidate, scope: int) -> int:
    """Depth of the chain under test plus the `scope` operations after its
    last gate, clamped to the circuit end.

    Interleaved operations displaced out of the chain are not part of the
    evaluation: they appear unchanged on both sides of the before/after
    comparison, and counting them would let an unrelated chain's depth mask a
    genuine improvement.
    """
    gates = [c.instructions[i] for i in candidate.gate_indices]
    stop = min(len(c.instructions), candidate.end_index + 1 + scope)
    return depth_of(gates + list(c.instructions[candidate.end_index + 1 : stop]))


def _replacement_for(candidate: ChainCandidate, cz_to_cx: bool) -> list[Instruction]:
    if candidate.kind is ChainKind.CZ:
        builder = decompose_cz_to_cx if cz_to_cx else decompose_cz
        return builder(candidate.qubit_seq)
    if candidate.kind is ChainKind.REVERSE_CX:
        return decompose_reverse(candidate.qubit_seq)
    return decompose_forward(candidate.qubit_seq)


def _window_is_unitary(instructions: Sequence[Instruction]) -> bool:
    return all(
        ins.gate is not Gate.MEASURE and ins.condition is None for ins in instructions
    )


def _verify_window(
    before: Sequence[Instruction],
    after: Sequence[Instruction],
    max_qubits: int,
) -> bool:
    """Oracle check that two instruction windows agree as unitaries.

    Windows touching more than `max_qubits` qubits, or containing
    measurements/conditions, are skipped (returns True)."""
    qubits = sorted({q for ins in before for q in ins.qubits})
    if len(qubits) > max_qubits:
        return True
    if not (_window_is_unitary(before) and _window_is_unitary(after)):
        return True
    remap = {q: i for i, q in enumerate(qubits)}

    def rebuilt(instrs: Sequence[Instruction]) -> Circuit:
        body = tuple(
            Instruction(ins.gate, tuple(remap[q] for q in ins.qubits), angle=ins.angle)
            for ins in instrs
            if ins.gate is not Gate.BARRIER
        )
        return Circuit(len(qubits), 0, body)

    return sim.equivalent_unitary(rebuilt(before), rebuilt(after), tol=1e-9)


def gate_and_apply(c: Circuit, config: PassConfig) -> tuple[Circuit, list[GateDecision]]:
    """Scan for chains and apply their decompositions per the configured mode.

    Returns the rewritten circuit and one decision record per candidate, in
    discovery order.  Raises VerificationError if a requested oracle check
    fails (no partial result is returned in that case).
    """
    if config.chain_mode is ChainMode.OFF:
        errors = validate(c)
        if errors:
            raise ValueError("invalid circuit: " + "; ".join(errors))
        return c, []

    scanner = ChainScanner(c, min_gates=config.min_chain_gates)  # validates c
    decisions: list[GateDecision] = []
    current = c
    base_depth = depth_of(scanner.instructions)
    while (cand := scanner.next()) is not None:
        replacement = _replacement_for(cand, config.cz_to_cx)
        window, displaced_before, displaced_after = scanner.window_instructions(cand)
        new_window = displaced_before + replacement + displaced_after

        if config.chain_mode is ChainMode.FAST:
            apply_it = True
            d_before = d_after = None
        else:
            tail = scanner.tail_instructions(cand, config.depth_scope)
            chain_gates = [scanner.instructions[i] for i in cand.gate_indices]
            d_before = depth_of(chain_gates + tail)
            d_after = depth_of(replacement + tail)
            if config.chain_mode is ChainMode.ALWAYS:
                apply_it = True
            else:
                apply_it = d_after < d_before
                if apply_it:
                    # Whole-circuit recheck: never degrade, even when the
                    # context outside the window skews the schedule.
                    prospective = (
                        scanner.instructions[: cand.start_index]
                        + new_window
                        + scanner.instructions[cand.end_index + 1 :]
                    )
                    if depth_of(prospective) > base_depth:
                        apply_it = False

        if apply_it and config.verify:
            if not _verify_window(window, new_window, config.max_verify_qubits):
                raise VerificationError(
                    f"chain rewrite at instruction {cand.start_index} "
                    f"({cand.kind.value}, {len(cand.gate_indices)} gates) failed "
                    "oracle equivalence",
                    cand,
                )

        if apply_it:
            current = scanner.accept(replacement)
            if config.chain_mode is ChainMode.CONSERVATIVE:
                base_depth = depth_of(scanner.instructions)
        else:
            scanner.skip()
        decisions.append(GateDecision(cand, d_before, d_after, apply_it))
    return current, decisions


@dataclass
class CompileResult:
    circuit: Circuit
    ghz_sites_found: int = 0
    ghz_sites_replaced: int = 0
    chains_found: int = 0
    chains_applied: int = 0
    decisions: list[GateDecision] = field(default_factory=list)
    verified: bool = False


def _verify_ghz_sites(
    original: Circuit, sites: list[GhzSite], mode: GhzMode, config: PassConfig
) -> None:
    from .ghz import build_ghz_log, build_ghz_parallel

    for site in sites:
        members = site.members
        if len(members) > config.max_verify_qubits:
            continue
        if mode is GhzMode.PARALLEL and len(members) < 3:
            continue
        remap = {q: i for i, q in enumerate(members)}
        site_instrs = tuple(
            Instruction(ins.gate, tuple(remap[q] for q in ins.qubits), angle=ins.angle)
            for ins in (original.instructions[i] for i in sorted(site.gate_indices))
        )
        reference = Circuit(len(members), 0, site_instrs)
        if mode is GhzMode.ROBUST:
            block = build_ghz_log(range(len(members)))
            replaced = Circuit(len(members), 0, tuple(block))
        else:
            k = len(members) // 2
            block = build_ghz_parallel(range(len(members)), range(k))
            replaced = Circuit(len(members), k, tuple(block))
        if not sim.equivalent_on_zero(reference, replaced, tol=1e-9):
            raise VerificationError(
                f"GHZ rewrite at instruction {site.hadamard_index} failed oracle "
                "equivalence",
                site,
            )


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
            if config.verify and replaced:
                _verify_ghz_sites(result.circuit, sites, config.ghz_mode, config)
            result.ghz_sites_found += len(sites)
            result.ghz_sites_replaced += replaced
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
