"""GHZ site detection and the two depth-reduced reconstructions."""
from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qshallow.bench import (
    ANSATZ_FAMILIES,
    ENTANGLEMENTS,
    AnsatzSpec,
    gen_ansatz,
    gen_cx_chain,
    gen_ghz_standard,
    gen_intertwined,
    gen_random,
)
from qshallow import ghz
from qshallow.chains import ChainCandidate, ChainKind, ChainScanner, find_chains
from qshallow.ghz import (
    GhzMode,
    build_ghz_log,
    build_ghz_parallel,
    detect_ghz,
)
from qshallow.ir import (
    Circuit,
    Condition,
    Gate,
    Instruction,
    barrier,
    cx,
    cz,
    depth,
    depth_of,
    h,
    measure,
    ry,
    rz,
    stats,
    x,
    z,
)
from qshallow.pipeline import (
    ChainMode,
    PassConfig,
    compile_circuit,
)
from qshallow.qasm import emit, parse
from qshallow.sim import branches, equivalent_on_zero
from qshallow.stabilizer import prepares_same


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


def _sites(c: Circuit) -> list[ChainCandidate]:
    """Every GHZ site of `c`, as a scan with chains off offers them."""
    return find_chains(c, sites=detect_ghz, chains=False)


def _count_window_work(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the length of every tail the window gate sweeps and of every
    side it schedules."""
    from qshallow import pipeline

    sweeps, schedules = [], []
    paths_of, depth_of = pipeline.paths_of, pipeline.depth_of
    monkeypatch.setattr(pipeline, "paths_of", lambda ins: sweeps.append(len(ins)) or paths_of(ins))
    monkeypatch.setattr(
        pipeline, "depth_of", lambda ins, *rest: schedules.append(len(ins)) or depth_of(ins, *rest)
    )
    return sweeps, schedules


def _count_index_builds(monkeypatch) -> list[int]:
    """Record the length of every list a `DepthIndex` is built over."""
    from qshallow import ir

    calls = []
    build = ir.DepthIndex._build
    monkeypatch.setattr(ir.DepthIndex, "_build",
                        lambda self, ins: calls.append(len(ins)) or build(self, ins))
    return calls


def _rebuilt(c: Circuit, mode: GhzMode) -> Circuit:
    """GHZ sites alone, ungated: with chains off every site is rebuilt."""
    return compile_circuit(c, PassConfig(ghz_mode=mode, chain_mode=ChainMode.OFF)).circuit


def _shape(c: Circuit, site: ChainCandidate) -> str:
    """A site is a fan-out when every CX control is the root; a site of one CX
    is a chain."""
    controls = {c.instructions[i].qubits[0] for i in site.gate_indices[1:]}
    return "fanout" if len(site.gate_indices) > 2 and controls == {site.qubit_seq[0]} else "chain"


class TestDetect:
    def test_chain_site(self):
        c = circ(3, h(0), cx(0, 1), cx(1, 2))
        sites = _sites(c)
        assert len(sites) == 1
        site = sites[0]
        assert site.kind is ChainKind.GHZ and site.moved_after == ()
        assert _shape(c, site) == "chain"
        assert site.qubit_seq == (0, 1, 2)
        assert site.start_index == 0 and site.end_index == 2
        assert site.gate_indices == (0, 1, 2)

    def test_fanout_site(self):
        c = circ(3, h(0), cx(0, 1), cx(0, 2))
        sites = _sites(c)
        assert len(sites) == 1
        assert _shape(c, sites[0]) == "fanout"
        assert sites[0].qubit_seq == (0, 1, 2)

    def test_stale_target_is_no_site(self):
        assert _sites(circ(2, x(1), h(0), cx(0, 1))) == []

    def test_stale_root_is_no_site(self):
        assert _sites(circ(2, x(0), h(0), cx(0, 1))) == []

    def test_bare_hadamard_is_no_site(self):
        assert _sites(circ(2, h(0), cz(0, 1))) == []

    def test_mixed_tree_takes_pure_prefix(self):
        # Fan-out then chain continuation: only the fan-out prefix is a site.
        sites = _sites(circ(4, h(0), cx(0, 1), cx(0, 2), cx(2, 3)))
        assert len(sites) == 1
        assert sites[0].qubit_seq == (0, 1, 2)

    def test_interleaved_foreign_qubit_tolerated(self):
        sites = _sites(circ(4, h(0), x(3), cx(0, 1), rz(3, 0.2), cx(1, 2)))
        assert len(sites) == 1
        assert sites[0].qubit_seq == (0, 1, 2)

    def test_barrier_on_member_stops_site(self):
        sites = _sites(circ(3, h(0), cx(0, 1), barrier(0, 1, 2), cx(1, 2)))
        assert len(sites) == 1
        assert sites[0].qubit_seq == (0, 1)

    def test_two_disjoint_sites(self):
        sites = _sites(circ(4, h(0), h(2), cx(0, 1), cx(2, 3)))
        assert len(sites) == 2
        assert {s.qubit_seq[0] for s in sites} == {0, 2}

    def test_substituting_stale_site_would_be_unsound(self):
        # The freshness guard exists because the rewrites are state-preparation
        # identities: with X q1 applied first, swapping the chain for the
        # doubling cascade changes the output state.
        stale = circ(3, x(1), h(0), cx(0, 1), cx(1, 2))
        pretend = circ(3, x(1), *build_ghz_log([0, 1, 2]))
        assert not equivalent_on_zero(stale, pretend)
        assert _sites(stale) == []


class TestBuildLog:
    def test_n4_exact_gates(self):
        assert build_ghz_log([0, 1, 2, 3]) == [h(0), cx(0, 1), cx(0, 2), cx(1, 3)]

    def test_n2_is_standard(self):
        assert build_ghz_log([0, 1]) == [h(0), cx(0, 1)]

    @pytest.mark.parametrize("n", range(2, 65))
    def test_depth_exactly_one_plus_ceil_log2(self, n):
        c = Circuit(n, 0, tuple(build_ghz_log(range(n))))
        assert stats(c).depth == 1 + math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_gate_count_is_n(self, n):
        assert len(build_ghz_log(range(n))) == n

    def test_members_can_be_arbitrary_qubits(self):
        block = build_ghz_log([4, 2, 7])
        assert block == [h(4), cx(4, 2), cx(4, 7)]


class TestBuildParallel:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_branch_is_ghz(self, n):
        c = Circuit(n, n // 2, tuple(build_ghz_parallel(range(n), range(n // 2))))
        assert equivalent_on_zero(gen_ghz_standard(n), c, tol=1e-9)

    def test_n5_has_four_branches(self):
        c = Circuit(5, 2, tuple(build_ghz_parallel(range(5), range(2))))
        out = branches(c)
        assert len(out) == 4
        assert abs(sum(b.probability for b in out) - 1) < 1e-9

    def test_n3_single_measurement(self):
        block = build_ghz_parallel(range(3), [0])
        c = Circuit(3, 1, tuple(block))
        assert stats(c).measure_count == 1

    @pytest.mark.parametrize("n", range(3, 65))
    def test_depth_constant_six(self, n):
        c = Circuit(n, n // 2, tuple(build_ghz_parallel(range(n), range(n // 2))))
        assert stats(c).depth == 6

    def test_depth_independent_of_size(self):
        d8 = stats(Circuit(8, 4, tuple(build_ghz_parallel(range(8), range(4))))).depth
        d64 = stats(Circuit(64, 32, tuple(build_ghz_parallel(range(64), range(32))))).depth
        assert d8 == d64

    def test_measure_count_floor_half(self):
        for n in (3, 4, 9, 16, 33):
            c = Circuit(n, n // 2, tuple(build_ghz_parallel(range(n), range(n // 2))))
            assert stats(c).measure_count == n // 2

    def test_clbit_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classical bits"):
            build_ghz_parallel(range(5), [0])


class TestApplyPass:
    def test_off_is_identity(self):
        c = gen_ghz_standard(6)
        assert _rebuilt(c, GhzMode.OFF).instructions == c.instructions

    def test_robust_ghz16(self):
        out = _rebuilt(gen_ghz_standard(16), GhzMode.ROBUST)
        assert stats(out).depth == 5

    def test_parallel_ghz16(self):
        out = _rebuilt(gen_ghz_standard(16), GhzMode.PARALLEL)
        report = stats(out)
        assert report.depth == 6
        assert report.measure_count == 8

    @pytest.mark.parametrize("n", range(2, 13))
    def test_robust_equivalent_on_zero(self, n):
        std = gen_ghz_standard(n)
        assert equivalent_on_zero(std, _rebuilt(std, GhzMode.ROBUST), tol=1e-9)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_parallel_equivalent_on_zero(self, n):
        std = gen_ghz_standard(n)
        assert equivalent_on_zero(std, _rebuilt(std, GhzMode.PARALLEL), tol=1e-9)

    def test_member_order_preserved_for_fanout(self):
        c = circ(4, h(1), cx(1, 3), cx(1, 0), cx(1, 2))
        out = _rebuilt(c, GhzMode.ROBUST)
        assert out.instructions[0] == h(1)
        assert equivalent_on_zero(c, out)

    def test_parallel_skips_two_member_sites(self):
        c = circ(2, h(0), cx(0, 1))
        out = _rebuilt(c, GhzMode.PARALLEL)
        assert out.instructions == c.instructions

    def test_nothing_replaced_returns_input(self):
        c = circ(4, h(0), cx(0, 1), h(2), cx(2, 3))
        config = PassConfig(ghz_mode=GhzMode.PARALLEL, chain_mode=ChainMode.OFF)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [False, False]
        assert result.circuit is c

    def test_surrounding_instructions_survive(self):
        c = circ(4, x(3), h(0), cx(0, 1), cx(1, 2), rz(3, 0.5), cx(2, 3))
        out = _rebuilt(c, GhzMode.ROBUST)
        kept = [ins for ins in out.instructions if ins in (x(3), rz(3, 0.5), cx(2, 3))]
        assert kept == [x(3), rz(3, 0.5), cx(2, 3)]

    def test_parallel_allocates_fresh_clbits(self):
        c = Circuit(5, 2, tuple(gen_ghz_standard(5).instructions))
        out = _rebuilt(c, GhzMode.PARALLEL)
        assert out.num_clbits == 4
        used = {ins.clbit for ins in out.instructions if ins.gate is Gate.MEASURE}
        assert used == {2, 3}

    def test_fanout_sites_replaced_too(self):
        c = circ(5, h(0), *[cx(0, t) for t in range(1, 5)])
        out = _rebuilt(c, GhzMode.ROBUST)
        assert stats(out).depth == 1 + math.ceil(math.log2(5))
        assert equivalent_on_zero(c, out)


# -- detection against the forward scan over every later instruction ----------


def _forward_scan_detect(c: Circuit) -> list[ChainCandidate]:
    """Reference detection: from each fresh H, walk every later instruction
    until one touches a member without extending the pattern."""
    first_use: dict[int, int] = {}
    for i, ins in enumerate(c.instructions):
        for q in ins.qubits:
            first_use.setdefault(q, i)

    claimed: set[int] = set()
    sites: list[ChainCandidate] = []
    for h_idx, ins in enumerate(c.instructions):
        if ins.gate is not Gate.H or ins.condition is not None or h_idx in claimed:
            continue
        root = ins.qubits[0]
        if first_use[root] != h_idx:
            continue
        members = [root]
        gate_indices = [h_idx]
        shape = None
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
                ChainCandidate(ChainKind.GHZ, tuple(gate_indices), tuple(members), h_idx, ())
            )
    return sites


def _ghz_rich_circuit(seed: int) -> Circuit:
    """Several GHZ preparations (chain, fan-out or mixed links, sometimes
    behind a conditioned H) on random qubit subsets, merged in random order
    with stray H/CX/CZ gates, rotations, mid-circuit measurements,
    parity-conditioned X/H/CX and partial barriers."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    num_clbits = rng.randint(0, 3)
    # Disjoint qubit blocks keep most preparations fresh; a random subset
    # sometimes overlaps another preparation instead.
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 3))))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    streams = []
    for block in blocks:
        qs = block if rng.random() < 0.8 else rng.sample(range(n), rng.randint(1, n))
        shape = rng.choice(("chain", "fanout", "mixed"))
        prep = [h(qs[0])]
        for i in range(1, len(qs)):
            if shape == "chain":
                ctrl = qs[i - 1]
            elif shape == "fanout":
                ctrl = qs[0]
            else:
                ctrl = rng.choice(qs[:i])
            prep.append(cx(ctrl, qs[i]))
        if num_clbits and rng.random() < 0.15:  # a conditioned H seeds no site
            prep[0] = Instruction(Gate.H, (qs[0],), condition=Condition((0,)))
        streams.append(prep)
    bits = list(range(num_clbits))
    rng.shuffle(bits)
    noise = []
    for _ in range(rng.randint(0, 25)):
        r = rng.random()
        if r < 0.2:
            noise.append(h(rng.randrange(n)))
        elif r < 0.45 and n > 1:
            a, b = rng.sample(range(n), 2)
            noise.append(cx(a, b) if rng.random() < 0.8 else cz(a, b))
        elif r < 0.55 and bits:
            noise.append(measure(rng.randrange(n), bits.pop()))
        elif r < 0.65 and num_clbits:
            cond = Condition(tuple(sorted(rng.sample(range(num_clbits), rng.randint(1, num_clbits)))))
            gate = rng.choice((Gate.X, Gate.H, Gate.CX) if n > 1 else (Gate.X, Gate.H))
            qubits = rng.sample(range(n), 2 if gate is Gate.CX else 1)
            noise.append(Instruction(gate, tuple(qubits), condition=cond))
        elif r < 0.72:
            noise.append(barrier(*rng.sample(range(n), rng.randint(1, n))))
        else:
            noise.append(rz(rng.randrange(n), 0.4))
    streams.append(noise)
    body = []
    while any(streams):
        stream = rng.choice([s for s in streams if s])
        body.append(stream.pop(0))
    return Circuit(n, num_clbits, tuple(body))


def _ghz_bench_circuits() -> list[Circuit]:
    out = [gen_ghz_standard(n) for n in (2, 3, 8, 33)]
    out += [_rebuilt(gen_ghz_standard(n), m)
            for n in (5, 16) for m in (GhzMode.ROBUST, GhzMode.PARALLEL)]
    out += [gen_cx_chain(n, d) for n in (5, 12) for d in ("forward", "reverse")]
    out += [gen_intertwined(3, 6)]
    out += [
        gen_ansatz(AnsatzSpec(family, 6, 2, ent, 3))
        for family in ANSATZ_FAMILIES
        for ent in ENTANGLEMENTS
    ]
    out += [gen_random(8, 80, seed=s) for s in range(10)]
    return out


@pytest.mark.parametrize("block", range(4))
def test_detect_matches_forward_scan(block):
    """2,000 GHZ-rich random circuits plus the bench families: the same sites
    as the walk over every later instruction."""
    circuits = [_ghz_rich_circuit(s) for s in range(block * 500, (block + 1) * 500)]
    circuits += _ghz_bench_circuits() if block == 0 else []
    for c in circuits:
        assert _sites(c) == _forward_scan_detect(c), c


def test_detect_corpus_exercises_every_shape():
    circuits = [_ghz_rich_circuit(s) for s in range(2000)]
    found = [(c, site) for c in circuits for site in _sites(c)]
    sites = [site for _, site in found]
    assert {_shape(c, site) for c, site in found} == {"chain", "fanout"}
    assert sum(len(site.qubit_seq) >= 4 for site in sites) > 100
    interleaved = [site for site in sites if max(site.gate_indices) - site.start_index
                   >= len(site.gate_indices)]
    assert len(interleaved) > 100
    assert sum(len(_sites(c)) >= 2 for c in circuits) > 100
    ops = [ins for c in circuits for ins in c.instructions]
    assert any(ins.gate is Gate.MEASURE for ins in ops)
    assert any(ins.condition is not None for ins in ops)
    assert any(ins.gate is Gate.BARRIER for ins in ops)


class _CountingList(list):
    """Instruction list that counts the positions read by index."""

    reads = 0

    def __getitem__(self, index):
        _CountingList.reads += 1
        return list.__getitem__(self, index)


def _h_layer_then_rings(n: int) -> Circuit:
    body = [h(q) for q in range(n)]
    for _ in range(3):
        for q in range(n):
            body += [cx(q, (q + 1) % n), rz((q + 1) % n, 0.3), cx(q, (q + 1) % n)]
    return circ(n, *body)


def _fresh_h_then_one_pair(n: int) -> Circuit:
    return circ(n, *(h(q) for q in range(n)), *(cx(0, 1) for _ in range(20 * n)))


@pytest.mark.parametrize(
    "shape", [_h_layer_then_rings, _fresh_h_then_one_pair], ids=["rings", "one_pair"]
)
def test_detect_reads_scale_near_linearly(shape, monkeypatch):
    # Counts instructions read by position, not wall time: doubling the width
    # may at most about double the work (the forward scan quadruples it).
    counts = []
    for n in (250, 500):
        scanner = ChainScanner(shape(n), sites=detect_ghz, chains=False)
        scanner.instructions = _CountingList(scanner.instructions)
        monkeypatch.setattr(_CountingList, "reads", 0)
        while scanner.next() is not None:
            scanner.skip()
        counts.append(_CountingList.reads)
    assert 0 < counts[1] <= 2.5 * counts[0], counts



# -- GHZ sites through the shared gate -----------------------------------------


def _reference_block(site: ChainCandidate, mode: GhzMode, clbit: int):
    if mode is GhzMode.ROBUST:
        return build_ghz_log(site.qubit_seq)
    if len(site.qubit_seq) < 3:
        return None
    return build_ghz_parallel(site.qubit_seq, range(clbit, clbit + len(site.qubit_seq) // 2))


def _reference_rebuild(c: Circuit, mode: GhzMode, only=None, anchor_last=True) -> Circuit:
    """The GHZ rewrite ungated and per site: every site with a
    construction (those starting in `only`, if given) is rebuilt, fresh bits
    numbered in site order.  `anchor_last` puts each block at the site's last
    gate, where the shared layout puts it; the old pass put it at the H.  No op
    in between touches a member, so the two differ only by commuting ops."""
    next_clbit = c.num_clbits
    blocks = {}
    for site in _sites(c):
        block = _reference_block(site, mode, next_clbit)
        if block is None or (only is not None and site.start_index not in only):
            continue
        next_clbit += sum(op.gate is Gate.MEASURE for op in block)
        blocks.update(dict.fromkeys(site.gate_indices, ()))
        blocks[site.end_index if anchor_last else site.start_index] = block
    if not blocks:
        return c
    body = [op for i, ins in enumerate(c.instructions) for op in blocks.get(i, (ins,))]
    return Circuit(c.num_qubits, next_clbit, tuple(body))


def _reference_gated(c: Circuit, mode: GhzMode) -> tuple[Circuit, list[str]]:
    """The conservative gate applied to each site on its own: a site is
    rebuilt iff its block is strictly shallower than its gates over the next
    100 ops, and the input with that block alone is no deeper than the input.
    Also returns each site's fate: "kept", "window", "recheck" or "none"."""
    ins = c.instructions
    kept, fates = set(), []
    for site in _sites(c):
        block = _reference_block(site, mode, c.num_clbits)
        tail = list(ins[site.end_index + 1 : site.end_index + 101])
        if block is None:
            fates.append("none")
        elif depth_of(block + tail) >= depth_of([ins[i] for i in site.gate_indices] + tail):
            fates.append("window")
        elif depth(_reference_rebuild(c, mode, {site.start_index})) > depth(c):
            fates.append("recheck")
        else:
            fates.append("kept")
            kept.add(site.start_index)
    return _reference_rebuild(c, mode, kept), fates


def _ghz_chain(qubits) -> list[Instruction]:
    qs = list(qubits)
    return [h(qs[0]), *(cx(a, b) for a, b in zip(qs, qs[1:]))]


def _late_root(offset: int) -> list[Instruction]:
    """An 8-member GHZ chain whose block wins its window but deepens the
    circuit: the 100 ops after it sit on the last member, which either block
    frees earlier than the chain, and the 200 after those on the root, which
    either block frees later."""
    qs = range(offset, offset + 8)
    return [*_ghz_chain(qs), *[rz(qs[-1], 0.1)] * 100, *[rz(qs[0], 0.2)] * 200]


def _gate_corpus(block: int) -> list[Circuit]:
    """GHZ-rich random circuits.  Every fourth also holds, on fresh qubits, a
    `_late_root` site spliced into the random body at a random position and
    an 8-member chain at the end, which every gate keeps."""
    out = []
    for seed in range(block * 200, (block + 1) * 200):
        c = _ghz_rich_circuit(seed)
        if seed % 4 == 0:
            n = c.num_qubits
            body = list(c.instructions)
            at = random.Random(seed).randint(0, len(body))
            body[at:at] = _late_root(n)
            c = Circuit(n + 16, c.num_clbits, (*body, *_ghz_chain(range(n + 8, n + 16))))
        out.append(c)
    return out


_GHZ_MODES = [GhzMode.ROBUST, GhzMode.PARALLEL]


def _count_use_tables(monkeypatch) -> list[int]:
    """Record the length of every list a `UseTable` is built over."""
    from qshallow import ir

    calls = []
    init = ir.UseTable.__init__
    monkeypatch.setattr(ir.UseTable, "__init__",
                        lambda self, ins: calls.append(len(ins)) or init(self, ins))
    return calls


def _kinds(result) -> list[tuple[str, bool]]:
    return [(d.candidate.kind.value, d.applied) for d in result.decisions]


#: Chains of fewer gates are no candidates: the pass offers sites alone.
_NO_CHAINS = 100


class TestGatedPass:
    """GHZ sites come from the chain scanner in start order and go through
    the pass's window gate, whole-circuit recheck, verifier, layout and
    decision record."""

    @pytest.mark.parametrize("mode", _GHZ_MODES)
    @pytest.mark.parametrize("block", range(2))
    def test_conservative_output_is_never_deeper(self, mode, block):
        # Each site is gated against the list the accepts before it left:
        # the output is never deeper than the input, and a site is kept only
        # where its window gets shallower.  Every rewrite applied is proven
        # or counted as skipped.
        config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.CONSERVATIVE, min_chain_gates=2,
                            verify=True)
        for c in _gate_corpus(block):
            result = compile_circuit(c, config)
            assert depth(result.circuit) <= depth(c), c
            sites = [d for d in result.decisions if d.candidate.kind is ChainKind.GHZ]
            assert all(d.depth_after < d.depth_before for d in sites if d.applied)
            coverage = result.coverage
            applied = sum(d.applied for d in result.decisions)
            assert coverage.checked + sum(coverage.skipped.values()) == applied

    def test_gate_corpus_exercises_every_fate(self):
        fates = {mode: [_reference_gated(c, mode)[1] for b in range(2) for c in _gate_corpus(b)]
                 for mode in _GHZ_MODES}
        flat = {mode: [f for fs in per_circuit for f in fs] for mode, per_circuit in fates.items()}
        assert set(flat[GhzMode.ROBUST]) == {"kept", "window", "recheck"}
        assert set(flat[GhzMode.PARALLEL]) == {"kept", "window", "recheck", "none"}
        for mode in _GHZ_MODES:  # a batch that is deeper than its best site
            assert sum({"kept", "recheck"} <= set(fs) for fs in fates[mode]) > 5

    @pytest.mark.parametrize("mode", _GHZ_MODES)
    @pytest.mark.parametrize("chains", [ChainMode.OFF, ChainMode.ALWAYS])
    def test_ungated_modes_apply_every_site(self, mode, chains):
        config = PassConfig(ghz_mode=mode, chain_mode=chains, min_chain_gates=2)
        for c in _gate_corpus(0):
            result = compile_circuit(c, config)
            sites = [d for d in result.decisions if d.candidate.kind is ChainKind.GHZ]
            built = [_reference_block(d.candidate, mode, 0) is not None for d in sites]
            assert [d.applied for d in sites] == built
            if chains is ChainMode.OFF:
                # Sites alone: every site rebuilt in place of its last gate,
                # fresh bits numbered in site order.
                out, reference = result.circuit, _reference_rebuild(c, mode)
                assert (out.num_clbits, out.instructions) == (
                    reference.num_clbits, reference.instructions), c
                # The old layout, block at the H, is the same circuit.
                assert stats(reference) == stats(_reference_rebuild(c, mode, anchor_last=False))

    @pytest.mark.parametrize("mode", _GHZ_MODES)
    def test_deeper_site_is_dropped_alone(self, mode, monkeypatch):
        c = circ(16, *_late_root(0), *_ghz_chain(range(8, 16)))
        sweeps, schedules = _count_window_work(monkeypatch)
        builds = _count_index_builds(monkeypatch)
        config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=_NO_CHAINS)
        result = compile_circuit(c, config)
        out = result.circuit
        late, plain = result.decisions
        assert late.depth_after < late.depth_before and not late.applied
        assert plain.applied
        # Only window work, per site one tail sweep and its two sides (a
        # site is offered once): the depth index, built once over the input
        # by the late site, gates it; the plain site's window settles it.
        assert (len(sweeps), len(schedules)) == (2, 2 * 2)
        assert max(sweeps + schedules) < len(c.instructions) - 8
        assert builds == [len(c.instructions)]
        assert depth(out) <= depth(c)
        # The fresh bits of the block kept start right after the input's.
        measured = sorted(op.clbit for op in out.instructions if op.gate is Gate.MEASURE)
        assert measured == list(range(out.num_clbits))

    def test_each_site_is_built_once(self, monkeypatch):
        # The late site wins its window but is dropped by the exact gate; the
        # site kept numbers its fresh bits from the input's without a rebuild.
        c = circ(16, *_late_root(0), *_ghz_chain(range(8, 16)))
        built = []

        def counting(members, fresh_clbits, _build=ghz.build_ghz_parallel):
            built.append((tuple(members), tuple(fresh_clbits)))
            return _build(members, fresh_clbits)

        monkeypatch.setattr(ghz, "build_ghz_parallel", counting)
        config = PassConfig(ghz_mode=GhzMode.PARALLEL, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=_NO_CHAINS)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [False, True]
        assert built == [(tuple(range(8)), (0, 1, 2, 3)), (tuple(range(8, 16)), (0, 1, 2, 3))]
        assert result.circuit.num_clbits == 4

    @pytest.mark.parametrize("k", [50, 100])
    def test_rechecks_do_not_grow_with_sites(self, k, monkeypatch):
        # One rz per member keeps the next chain out of most of the window.
        body = []
        for s in range(k):
            qs = range(64 * s, 64 * s + 64)
            body += [*_ghz_chain(qs), *(rz(q, 0.1) for q in qs), barrier(*qs)]
        c = circ(64 * k, *body)
        sweeps, schedules = _count_window_work(monkeypatch)
        builds = _count_index_builds(monkeypatch)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=_NO_CHAINS)
        result = compile_circuit(c, config)
        assert len(result.decisions) == k and all(d.applied for d in result.decisions)
        # Windows only: a site's tail, its gates and its block.
        assert len(sweeps) == k and max(sweeps) <= 100
        assert len(schedules) == 2 * k and max(schedules) <= 64
        assert builds == [len(c.instructions)]
        assert (depth(c), depth(result.circuit)) == (65, 1 + 6 + 1)

    def test_one_index_build_per_changed_list(self, monkeypatch):
        # One pass: one use table per compile, and at most one index, built
        # over the input wherever a gate asks for it before the first accept.
        builds = _count_index_builds(monkeypatch)
        tables = _count_use_tables(monkeypatch)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        # The site's window reaches the end of the list, which settles it,
        # and the scan leaves the block be: it finds no seed, so gates
        # nothing.  No index is built.
        c = gen_ghz_standard(64)
        result = compile_circuit(c, config)
        assert result.decisions[0].applied and depth(result.circuit) == 7
        assert (builds, tables) == ([], [len(c.instructions)])
        # The chain comes first and builds the index; the site ends the
        # list, so its window settles it, and the index takes it in.
        tables.clear()
        c = circ(25, *(cx(i, i + 1) for i in range(8, 24)), *_ghz_chain(range(8)))
        result = compile_circuit(c, config)
        assert _kinds(result) == [("cx", True), ("ghz", True)]
        assert builds == tables == [len(c.instructions)]
        assert (result.input_depth, result.output_depth) == (depth(c), depth(result.circuit))
        # The scope cuts the site's tail: the site's gate builds the index
        # over the input, and the chain is gated by the same index after the
        # site's accept (a robust block has as many ops as its site).
        builds.clear()
        tables.clear()
        c = circ(25, *_ghz_chain(range(8)), *[rz(7, 0.1)] * 100,
                 *(cx(i, i + 1) for i in range(8, 24)))
        result = compile_circuit(c, config)
        assert _kinds(result) == [("ghz", True), ("cx", True)]
        assert builds == tables == [len(c.instructions)]
        # The site is refused, and chains follow it.
        builds.clear()
        tables.clear()
        c = circ(25, *_late_root(0), *(cx(i, i + 1) for i in range(8, 24)))
        result = compile_circuit(c, config)
        assert _kinds(result) == [("ghz", False), ("cx", False), ("cx", True)]
        assert builds == tables == [len(c.instructions)]

    def test_index_built_after_an_accept_is_exact(self, monkeypatch):
        # A site settled by its window is taken in before any gate asks for
        # the index; the chain after it builds the index over the list the
        # accept left, past the table's cut.  Its depths are exact, and the
        # input's is scheduled for the report.
        builds = _count_index_builds(monkeypatch)
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=2)
        # The deepest path runs from the prefix through bit 0 to its reader.
        c = circ(30, *[x(29)] * 10, measure(29, 0), *_ghz_chain(range(8)), cx(8, 9), cx(9, 10),
                 cx(10, 11), x(28, condition=Condition((0,))), cx(11, 12), cx(12, 13),
                 clbits=1)
        result = compile_circuit(c, config)
        assert _kinds(result) == [("ghz", True), ("cx", True)]
        assert builds == [len(c.instructions)]
        assert result.input_depth is None
        assert result.output_depth == depth(result.circuit) == depth(c) == 12

    @pytest.mark.parametrize("mode", _GHZ_MODES)
    @pytest.mark.parametrize("n", [16, 2000])
    def test_site_ending_the_list_builds_no_index(self, mode, n, monkeypatch):
        # The window test settles a site whose window reaches the list end:
        # no depth index is built, and no layer is learned.
        from qshallow import ir

        builds = _count_index_builds(monkeypatch)
        learned = []
        learn = ir.DepthIndex._learn
        monkeypatch.setattr(ir.DepthIndex, "_learn",
                            lambda self, ins, upto: learned.append(upto) or learn(self, ins, upto))
        c = gen_ghz_standard(n)
        result = compile_circuit(c, PassConfig(ghz_mode=mode, chain_mode=ChainMode.CONSERVATIVE))
        assert [d.applied for d in result.decisions] == [True]
        assert depth(result.circuit) < depth(c)
        assert builds == learned == []

    @pytest.mark.parametrize("mode", _GHZ_MODES)
    def test_kept_block_takes_its_sites_last_gate(self, mode):
        # The late site is refused and the plain one kept: its block takes
        # the place of its last gate, and every other op stays.
        c = circ(16, *_late_root(0), *_ghz_chain(range(8, 16)))
        config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=_NO_CHAINS)
        result = compile_circuit(c, config)
        assert [d.applied for d in result.decisions] == [False, True]
        block = (build_ghz_log(range(8, 16)) if mode is GhzMode.ROBUST
                 else build_ghz_parallel(range(8, 16), range(4)))
        assert result.circuit.instructions == (*_late_root(0), *block)

    def test_nothing_kept_returns_the_input(self):
        c = circ(16, *_late_root(0))
        for ghz_mode in (GhzMode.OFF, GhzMode.ROBUST):
            config = PassConfig(ghz_mode=ghz_mode, chain_mode=ChainMode.CONSERVATIVE,
                                min_chain_gates=_NO_CHAINS)
            assert compile_circuit(c, config).circuit is c

    @pytest.mark.parametrize("ghz_mode", _GHZ_MODES)
    @pytest.mark.parametrize("chains", [ChainMode.CONSERVATIVE, ChainMode.ALWAYS])
    def test_chains_never_take_a_kept_block_op(self, ghz_mode, chains, monkeypatch):
        from qshallow import pipeline

        seen = []  # per chain decision, its gates as the scanner's list held them
        kept = set()  # the ops of the blocks kept
        gate = pipeline._gate

        def recording(ins, cand, replacement, *rest):
            decision = gate(ins, cand, replacement, *rest)
            if cand.kind is not ChainKind.GHZ:
                seen.append([ins[i] for i in cand.gate_indices])
            elif decision.applied:
                kept.update(id(op) for op in replacement)
            return decision

        monkeypatch.setattr(pipeline, "_gate", recording)
        config = PassConfig(ghz_mode=ghz_mode, chain_mode=chains, min_chain_gates=2,
                            verify=True)
        blocks_seen = chains_seen = 0
        for c in _gate_corpus(0) + _gate_corpus(1):
            seen.clear()
            kept.clear()
            compile_circuit(c, config)
            assert not any(id(op) in kept for gates in seen for op in gates), c
            # Nor any rewrite's op: every chain's gates are the input's own.
            inputs = {id(op) for op in c.instructions}
            assert all(id(op) in inputs for gates in seen for op in gates), c
            blocks_seen += bool(kept)
            chains_seen += len(seen)
        assert blocks_seen > 100 and chains_seen > 100

    @pytest.mark.parametrize("min_gates", [2, 5])
    @pytest.mark.parametrize("chains", list(ChainMode))
    @pytest.mark.parametrize("n", [16, 64, 256, 2000])
    def test_ghz_depth_holds_under_every_chain_mode(self, n, chains, min_gates):
        # Before blocks were final, always mode at min_chain_gates 2 rewrote
        # the robust cascade's fan-outs: depths 6, 10, 16, 24.
        c = gen_ghz_standard(n)
        robust = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=chains, min_chain_gates=min_gates)
        result = compile_circuit(c, robust)
        emitted = parse(emit(result.circuit))
        assert depth(emitted) == 1 + math.ceil(math.log2(n))
        assert len(emitted.instructions) == n
        assert [d.candidate.kind for d in result.decisions] == [ChainKind.GHZ]
        # In memory: the emitted parity feedforward is deeper for n >= 8.
        parallel = PassConfig(ghz_mode=GhzMode.PARALLEL, chain_mode=chains,
                              min_chain_gates=min_gates)
        result = compile_circuit(c, parallel)
        assert depth(result.circuit) == 6
        assert [d.candidate.kind for d in result.decisions] == [ChainKind.GHZ]

    def test_no_chain_grows_inside_a_cascade(self, monkeypatch):
        from qshallow.chains import ChainScanner

        grows = []
        grow = ChainScanner._grow
        monkeypatch.setattr(ChainScanner, "_grow",
                            lambda self, seed: grows.append(seed) or grow(self, seed))
        config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.CONSERVATIVE)
        result = compile_circuit(gen_ghz_standard(2000), config)
        assert depth(result.circuit) == 12
        assert grows == []  # 1,776 growths when the cascade was scanned

    @pytest.mark.parametrize("label, c", [
        ("ghz/4", gen_ghz_standard(4)),
        ("random/30", gen_random(4 + 30 % 9, 20 + (30 * 37) % 181, seed=30)),
        ("random/212", gen_random(4 + 212 % 9, 20 + (212 * 37) % 181, seed=212)),
    ])
    def test_corpus_files_keep_their_depth(self, label, c):
        # The benchmark corpus's configuration made these deeper when the GHZ
        # pass was not gated: 4 -> 6, 12 -> 15 and 21 -> 24.
        config = PassConfig(ghz_mode=GhzMode.PARALLEL, chain_mode=ChainMode.CONSERVATIVE,
                            min_chain_gates=2, verify=True)
        out = compile_circuit(c, config).circuit
        assert depth(out) == depth(parse(emit(out))) == {"ghz/4": 4, "random/30": 12,
                                                          "random/212": 21}[label]
        assert depth(c) == depth(out)

    def test_report_lists_decisions_in_start_order(self, tmp_path):
        from qshallow.cli import main

        src = tmp_path / "in.qasm"
        src.write_text(emit(circ(16, *_late_root(0), *_ghz_chain(range(8, 16)))))
        argv = ["compile", "--in", str(src), "--out", str(tmp_path / "out.qasm"), "--ghz",
                "robust", "--chains", "conservative", "--report", str(tmp_path / "r.json")]
        assert main(argv) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        # The late site, the chain its refused gates seed, then the plain site.
        assert [(d["kind"], d["applied"]) for d in report["decisions"]] == [
            ("ghz", False), ("cx", False), ("ghz", True)]
        assert (report["ghz_sites_found"], report["ghz_sites_replaced"]) == (2, 1)
        assert report["chains_found"] == 1


# -- freshness across the use table's cut --------------------------------------


@pytest.mark.parametrize("mode", _GHZ_MODES)
@pytest.mark.parametrize("stale", [6, 7], ids=["root", "target"])
def test_use_before_an_accepted_chain_keeps_a_qubit_stale(mode, stale):
    # The only earlier use of q6 or q7 lies before the chain taken in first,
    # whose start cuts it out of the use table; the qubit is still no fresh
    # member, so h(6), cx(6, 7), cx(7, 8) is no site.  Rebuilt as one, the
    # output would prepare another state.
    c = circ(9, x(stale), *(cx(q, q + 1) for q in range(5)), h(6), cx(6, 7), cx(7, 8))
    config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
    result = compile_circuit(c, config)
    assert _kinds(result) == [("cx", True), ("cx", True)]
    assert prepares_same(c.instructions, result.circuit.instructions)


def test_no_site_grows_over_a_rewrite():
    # h(3) moves before the chain 0-1-2-3-4, whose halving then opens with
    # cx(1, 2) and cx(3, 4): q3 and q4 are fresh there, yet a rewrite's
    # gate joins no site.
    c = circ(5, cx(0, 1), cx(1, 2), h(3), cx(2, 3), cx(3, 4))
    config = PassConfig(ghz_mode=GhzMode.ROBUST, chain_mode=ChainMode.ALWAYS, min_chain_gates=2)
    result = compile_circuit(c, config)
    assert _kinds(result) == [("cx", True)]
    assert result.circuit.instructions[:3] == (h(3), cx(1, 2), cx(3, 4))


@st.composite
def _clifford_circuits(draw) -> Circuit:
    """Random h, x, z, cx and cz gates on qubits that come into use one by
    one: CX chains on the qubits in use, single gates, and GHZ-like
    preparations, each an h on a new qubit, then a CX path onto new or
    used qubits.  So fresh roots turn up after chains, beside stale
    targets."""
    n = draw(st.integers(3, 10))
    body: list[Instruction] = []
    live = 1  # qubits 0..live-1 are in use
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["chain", "ghz", "single"]))
        if kind == "ghz" and live < n:
            last, live = live, live + 1
            body.append(h(last))
            for _ in range(draw(st.integers(1, 3))):
                if live < n and draw(st.booleans()):
                    target, live = live, live + 1
                else:
                    target = draw(st.integers(0, live - 1))
                if target != last:
                    body.append(cx(last, target))
                    last = target
        elif kind == "chain" and live >= 2:
            seq = draw(st.permutations(range(live)))[: draw(st.integers(2, min(live, 5)))]
            body += [cx(a, b) for a, b in zip(seq, seq[1:])]
        elif live >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(live)))[:2]
            body.append(cz(a, b))
        else:
            body.append(draw(st.sampled_from((h, x, z)))(draw(st.integers(0, live - 1))))
    return circ(n, *body)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_clifford_circuits(), st.sampled_from(_GHZ_MODES), st.sampled_from([2, 3]))
def test_one_pass_prepares_the_inputs_state(c, mode, min_gates):
    # Every site and chain applied, none verified on its own: the whole
    # output still prepares the input's state from |0...0>.
    config = PassConfig(ghz_mode=mode, chain_mode=ChainMode.ALWAYS, min_chain_gates=min_gates)
    out = compile_circuit(c, config).circuit
    assert prepares_same(c.instructions, out.instructions), c
