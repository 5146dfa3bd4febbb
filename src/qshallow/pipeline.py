"""Gated GHZ and chain rewrites, and the full compile pipeline.

Every candidate - a GHZ site, a CX/CZ chain or a CX run whose parity map
is chains' inverse or a fan-out, each a `ChainCandidate` - takes one
path: `_replacement_for` builds its rewrite, `_gate` decides it,
`_verify_rewrite` proves it, and the pass takes it in, laid out by one rule
(`chains._window`; a GHZ site moves no op).  Only the candidate source and
the check differ.  A site whose rewrite is None keeps its gates.

In conservative mode a rewrite must strictly reduce the depth of its window -
its gates plus the next `DEPTH_SCOPE` operations - and the rewritten whole
circuit must be no deeper than the current one, as no bounded window sees
context before it that skews the schedule.  The window test sweeps the
`DEPTH_SCOPE` tail back once (`ir.paths_of`: per wire, the longest path
entering the tail there) and joins it with each side's per-wire fronts
(`ir.depth_of` fills them; `ir.depth_joined`), so no window is scheduled
twice.  The whole-circuit test is exact and never schedules the whole
circuit: an `ir.DepthIndex`, built once per list, first refuses a rewrite
whose block alone, placed on the fronts before it, already makes a path
longer than the circuit, and otherwise walks only the operations the
rewrite can move.  A GHZ site whose window reaches the end of the list
needs no index: its members are fresh and its window is the rest of the
list, so every path through its block is one the window test counted, and
every other path ran in the input (the proof is in `_gate`).  A compile
whose sites all end their lists builds no index.

Each list gets one per-wire use table (`ir.UseTable`), held by the index.
GHZ sites (`detect_ghz` on the input's table, checked from |0...0>) are on
fresh qubits, so no dependency path meets two blocks: each site is gated on
its own against the pass's input and the blocks kept are spliced at once
(`ir._splice`).  Chains (`ChainScanner` on the same table, checked as
unitaries) come one at a time, each against the depth the last accept left,
which the index takes in over the rewritten window; the scanner refreshes
the table.  When the GHZ pass keeps no block, the chain pass reuses its
index and table.  The scanner asks the index for the table only when it
first grows a seed, so a list of kept blocks and non-seeds costs the chain
pass no table.  A layered circuit repeats its chains: the chain pass
builds each distinct rewrite (kind and qubit sequence, and a run's gates)
once and shares it, and schedules each side of its window test - the
chain's gates, the rewrite - once, so a repeated ladder's window costs
O(its wires plus `DEPTH_SCOPE`).  It sweeps each window tail once until
the next accept changes the list: the chains grown after a skipped one
often end at the same gate.

Rewrites are final.  The GHZ pass returns the positions its kept blocks
take in the list it returns, and `compile_circuit` hands them to the chain
pass (`gate_and_apply`'s `replaced`), whose scanner treats them as it
treats its own accepted rewrites: their gates neither seed nor extend a
chain.  So the chain pass never grows a chain inside a block, and a site's
constructed depth - 1 + ceil(log2 n) robust, 6 parallel - is what it
leaves in every `chain_mode`.

The report's depths come from the indexes where they hold them exactly:
the input's is the depth of the index built over the input, before any
accept, and the output's the chain pass's index's depth after its last
accept (`CompileResult.input_depth`, `output_depth`).  Only a list that no
index covered - no candidate reached the whole-circuit test, or the mode
gates nothing - is scheduled again for the report.

With `verify`, `stabilizer` checks every rewrite applied exactly, at any
width: a GHZ block must prepare its site's state in every measurement branch,
and a chain window must equal its rewrite as a unitary in deferred form.  A
mismatch raises VerificationError.  Only a window holding a conditioned gate
other than X or Z has no form to check; it is skipped, and `Coverage` counts
it under its reason.

Modes (`chain_mode` gates every rewrite):

* conservative - apply on strict window improvement that the whole circuit
                 keeps; GHZ sites are gated too.
* always       - apply every chain and GHZ site (may increase depth).
* off          - skip the chain scan; apply every GHZ site.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from . import ghz
from .chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    _window,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
    decompose_run,
)
from .ghz import GhzMode
from .ir import (
    Circuit,
    DepthIndex,
    Gate,
    Instruction,
    _splice,
    depth_joined,
    depth_of,
    paths_of,
)
from .stabilizer import NoPauliForm, prepares_same, same_unitary

#: Operations after a candidate's last gate that its window includes.
DEPTH_SCOPE = 100


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
    candidate: ChainCandidate
    depth_before: int
    depth_after: int
    applied: bool


@dataclass
class Coverage:
    """What `PassConfig.verify` settled: the rewrites proven, and the
    rewrites skipped for want of a form to check, counted per reason."""

    checked: int = 0
    skipped: Counter[str] = field(default_factory=Counter)

    def __add__(self, other: Coverage) -> Coverage:
        return Coverage(self.checked + other.checked, self.skipped + other.skipped)


class VerificationError(Exception):
    """A rewrite failed its exact equivalence check; the original circuit stands."""

    def __init__(self, message: str, candidate: ChainCandidate | None = None):
        super().__init__(message)
        self.candidate = candidate


def _replacement_for(
    candidate: ChainCandidate, config: PassConfig, clbit: int = 0
) -> list[Instruction] | None:
    """The rewrite of `candidate` under `config`: a CX chain's forward
    decomposition, a CX run's (`decompose_run`), a CZ chain's (lowered to
    CX with `cz_to_cx`), a GHZ site's construction in `ghz_mode`, its fresh
    bits numbered from `clbit`.  None where the site keeps its gates: GHZ
    rebuilding is off, or the fusion scheme lacks a middle qubit."""
    seq = candidate.qubit_seq
    if candidate.kind is ChainKind.CX:
        return decompose_forward(seq)
    if candidate.kind is ChainKind.CZ:
        return decompose_cz_to_cx(seq) if config.cz_to_cx else decompose_cz(seq)
    if candidate.kind is not ChainKind.GHZ:
        return decompose_run(candidate.kind, seq, candidate.splits)
    if config.ghz_mode is GhzMode.ROBUST:
        return ghz.build_ghz_log(seq)
    if config.ghz_mode is GhzMode.OFF or len(seq) < 3:
        return None
    return ghz.build_ghz_parallel(seq, range(clbit, clbit + len(seq) // 2))


def _sides(
    ins: Sequence[Instruction], cand: ChainCandidate, replacement: Sequence[Instruction] | None
) -> tuple[tuple[int, dict[int, int]], tuple[int, dict[int, int]]]:
    """The schedules of a candidate's gates and of its rewrite (the gates'
    own for a None replacement), each its depth and per-wire fronts."""
    fronts: dict[int, int] = {}
    gates = (depth_of([ins[i] for i in cand.gate_indices], fronts), fronts)
    if replacement is None:
        return gates, gates
    fronts = {}
    return gates, (depth_of(replacement, fronts), fronts)


def _built_key(ins: Sequence[Instruction], cand: ChainCandidate) -> tuple:
    """What fixes a chain candidate's gates' qubit sets and, under one
    config, its rewrite: a chain's kind and qubit sequence, and a CX run's
    kind and gates, as two runs of one map may differ in their gates."""
    key = (cand.kind.value, cand.qubit_seq)
    if cand.kind is ChainKind.INVERSE or cand.kind is ChainKind.FANOUT:
        key += tuple(ins[i].qubits for i in cand.gate_indices)
    return key


def _gate(
    ins: Sequence[Instruction],
    cand: ChainCandidate,
    replacement: Sequence[Instruction] | None,
    mode: ChainMode,
    index: DepthIndex | None = None,
    sides: tuple[tuple[int, dict[int, int]], tuple[int, dict[int, int]]] | None = None,
    tails: dict[int, tuple[int, dict[int, int]]] | None = None,
) -> GateDecision:
    """Window depths before and after the rewrite, and whether it passes: in
    conservative mode the window must get strictly shallower, and then, with
    `index` over `ins`, the whole list must stay no deeper.  A None
    replacement keeps the gates and is never applied.  Ops displaced out of a
    chain are the same on both sides and stay out of the window: counting
    them would let an unrelated chain's depth mask a genuine improvement.

    The window's tail is swept once and joined with each side's schedule,
    `sides` when the caller has them (`_sides`) and else scheduled here.
    `tails` keeps each sweep by the tail's start, for a caller that gates
    several candidates of one list: a skipped chain's successors often end
    at the same gate.

    A GHZ site whose tail reaches the end of `ins` is settled by the window
    test alone, and `index` is never asked.  `detect_ghz` makes every member
    fresh before the site and lets no other op in the window touch one, and
    the block's bits are fresh.  So every path through the block starts in
    it and runs on into the tail, which is the whole rest of the list: it is
    counted in `after`.  Every other path avoids the block and took no site
    gate's place, so it already ran in `ins` and is at most `index.depth`.
    And `after < before <= index.depth`, since `before` schedules a
    subsequence of `ins`.  So the rewritten list is no deeper.  A site whose
    tail the scope cuts is gated by `index` as a chain is."""
    tail_start = cand.end_index + 1
    tails = {} if tails is None else tails
    tail = tails.get(tail_start)
    if tail is None:
        tail = tails[tail_start] = paths_of(ins[tail_start : tail_start + DEPTH_SCOPE])
    gates, rewrite = _sides(ins, cand, replacement) if sides is None else sides
    before = depth_joined(gates, tail)
    if replacement is None:
        return GateDecision(cand, before, before, False)
    after = depth_joined(rewrite, tail)
    conservative = mode is ChainMode.CONSERVATIVE
    applied = not conservative or after < before
    if cand.kind is ChainKind.GHZ and len(ins) - tail_start <= DEPTH_SCOPE:
        return GateDecision(cand, before, after, applied)  # the window settles it
    if applied and conservative and index is not None:
        # The block placed after the chain: the replacement, then the moved-after ops.
        block = [*replacement, *(ins[i] for i in cand.moved_after)]
        removed = (*cand.gate_indices, *cand.moved_after)
        applied = index.admits(ins, cand.start_index, cand.end_index, removed, block)
    return GateDecision(cand, before, after, applied)


def _verify_rewrite(
    ins: Sequence[Instruction],
    cand: ChainCandidate,
    after: Sequence[Instruction],
    coverage: Coverage,
) -> None:
    """Exact check of one rewrite of `ins` - a GHZ site's block, or a chain's
    window as `_window` lays it out - counted in `coverage`; raises
    VerificationError unless it is proven.  A GHZ block must prepare its
    site's state from |0...0>; a chain window must be the same unitary in
    deferred form.  Only a window with no such form is skipped."""
    try:
        if cand.kind is ChainKind.GHZ:
            proven = prepares_same([ins[i] for i in cand.gate_indices], after)
        else:
            proven = same_unitary(ins[cand.start_index : cand.end_index + 1], after)
    except NoPauliForm as exc:
        coverage.skipped[str(exc)] += 1
        return
    if not proven:
        raise VerificationError(
            f"{cand.kind.value} rewrite at instruction {cand.start_index} "
            f"({len(cand.gate_indices)} gates) failed exact equivalence",
            cand,
        )
    coverage.checked += 1


def gate_ghz_sites(
    c: Circuit, config: PassConfig, index: DepthIndex | None = None
) -> tuple[Circuit, list[GateDecision], Coverage | None, list[int]]:
    """Rebuild the detected GHZ sites as `config.ghz_mode` says, gated per
    `config.chain_mode` (with `index`, if given, over `c`'s instructions; its
    use table serves detection).  Returns like `gate_and_apply`, one decision
    per site, and then the positions of the kept blocks' ops in the returned
    circuit's list, ascending: the `replaced` of the chain pass.
    """
    coverage = Coverage() if config.verify else None
    if config.ghz_mode is GhzMode.OFF:
        return c, [], coverage, []
    ins = c.instructions
    index = DepthIndex() if index is None else index
    decisions: list[GateDecision] = []
    layout: dict[int, Sequence[Instruction]] = {}
    clbit = c.num_clbits  # the next fresh bit
    # No dependency path meets two blocks: each site is gated against the input.
    for site in ghz.detect_ghz(c, index.uses_of(ins)):
        block = _replacement_for(site, config, clbit)
        decision = _gate(ins, site, block, config.chain_mode, index)
        decisions.append(decision)
        if decision.applied:
            if coverage is not None:
                _verify_rewrite(ins, site, block, coverage)
            # Laid out as `_window` lays out a rewrite; a GHZ site moves no op.
            layout.update(dict.fromkeys(site.gate_indices, ()))
            layout[site.end_index] = block
            clbit += sum(op.gate is Gate.MEASURE for op in block)
    if not layout:
        return c, decisions, coverage, []
    kept: list[int] = []
    shift = 0  # how far the blocks spliced so far move the positions after them
    for i in sorted(layout):
        kept += range(i + shift, i + shift + len(layout[i]))
        shift += len(layout[i]) - 1
    out = Circuit(c.num_qubits, clbit, tuple(_splice(ins, layout)))
    return out, decisions, coverage, kept


def gate_and_apply(
    c: Circuit,
    config: PassConfig,
    index: DepthIndex | None = None,
    replaced: Iterable[int] = (),
) -> tuple[Circuit, list[GateDecision], Coverage | None]:
    """Scan for chains and apply their decompositions per the configured mode
    (in conservative mode, gated by `index` over `c`'s instructions if given;
    the scanner takes its use table from it in every mode, on its first
    growth).  The ops at the positions in `replaced` are an earlier
    rewrite's output and join no chain.

    Returns the rewritten circuit, one decision record per candidate in
    discovery order, and, if `config.verify` is set, the `Coverage` of the
    rewrites applied (else None).  Raises VerificationError if a rewrite
    fails its check.
    """
    coverage = Coverage() if config.verify else None
    if config.chain_mode is ChainMode.OFF:
        return c, [], coverage

    index = DepthIndex() if index is None else index
    scanner = ChainScanner(c, config.min_chain_gates, index.uses_of, replaced)
    decisions: list[GateDecision] = []
    if config.chain_mode is not ChainMode.CONSERVATIVE:
        index = None
    # Each distinct candidate's rewrite and the schedules of both its sides,
    # built once (`_built_key`).  Read only, as `_gate`, `_window` and the
    # verifier copy what they take from the rewrite.
    built: dict[tuple, tuple] = {}
    # The window tails swept since the list last changed, by their start.
    tails: dict[int, tuple[int, dict[int, int]]] = {}
    while (cand := scanner.next()) is not None:
        ins = scanner.instructions
        key = _built_key(ins, cand)
        entry = built.get(key)
        if entry is None:
            replacement = _replacement_for(cand, config)
            entry = built[key] = (replacement, _sides(ins, cand, replacement))
        replacement, sides = entry
        decision = _gate(ins, cand, replacement, config.chain_mode, index, sides, tails)
        if decision.applied:
            window = _window(ins, cand, replacement)
            if coverage is not None:
                _verify_rewrite(ins, cand, window, coverage)
            if index is not None:
                index.accept(ins, cand.start_index, cand.end_index, window)
            scanner.accept(window)  # splices the list and its use table
            tails.clear()
        else:
            scanner.skip()
        decisions.append(decision)
    if not any(d.applied for d in decisions):
        return c, decisions, coverage
    return scanner.circuit, decisions, coverage


@dataclass
class CompileResult:
    circuit: Circuit
    decisions: list[GateDecision] = field(default_factory=list)
    #: What `config.verify` settled; None when it is off.
    coverage: Coverage | None = None
    #: `depth` of the input and of `circuit`, where an index of the compile
    #: holds it exactly; None where none covered that list.
    input_depth: int | None = None
    output_depth: int | None = None

    @property
    def verified(self) -> bool:
        """Whether verification was on and checked every rewrite applied."""
        return self.coverage is not None and not self.coverage.skipped


def compile_circuit(c: Circuit, config: PassConfig) -> CompileResult:
    """The GHZ pass, then the chain pass, which leaves the GHZ blocks as built.

    The result carries each depth an index of the compile holds exactly:
    the input's, from the index built over it (by either pass, if the GHZ
    pass keeps no block), and the output's, from the chain pass's index."""
    index = DepthIndex()
    out, ghz_decisions, ghz_coverage, blocks = gate_ghz_sites(c, config, index)
    input_depth = index.built_depth
    if out is not c:
        index = DepthIndex()  # the GHZ pass changed the list
    final, chain_decisions, chain_coverage = gate_and_apply(out, config, index, blocks)
    if out is c:
        input_depth = index.built_depth
    # Only the conservative gate builds an index, and it takes in every
    # rewrite the chain pass applies.
    output_depth = None if index.built_depth is None else index.depth
    coverage = None if ghz_coverage is None else ghz_coverage + chain_coverage
    return CompileResult(
        final, ghz_decisions + chain_decisions, coverage, input_depth, output_depth
    )
