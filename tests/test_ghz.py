"""GHZ site detection and the two depth-reduced reconstructions."""
from __future__ import annotations

import math
import random

import pytest

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
from qshallow.ghz import (
    GhzMode,
    rebuild_ghz_sites,
    build_ghz_log,
    build_ghz_parallel,
    detect_ghz,
)
from qshallow.ghz import GhzSite
from qshallow.ir import (
    Circuit,
    Condition,
    Gate,
    Instruction,
    barrier,
    cx,
    cz,
    h,
    measure,
    ry,
    rz,
    stats,
    x,
)
from qshallow.sim import branches, equivalent_on_zero


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


class TestDetect:
    def test_chain_site(self):
        sites = detect_ghz(circ(3, h(0), cx(0, 1), cx(1, 2)))
        assert len(sites) == 1
        site = sites[0]
        assert site.shape == "chain"
        assert site.members == (0, 1, 2)
        assert site.root == 0
        assert site.gate_indices == frozenset({0, 1, 2})

    def test_fanout_site(self):
        sites = detect_ghz(circ(3, h(0), cx(0, 1), cx(0, 2)))
        assert len(sites) == 1
        assert sites[0].shape == "fanout"
        assert sites[0].members == (0, 1, 2)

    def test_stale_target_is_no_site(self):
        assert detect_ghz(circ(2, x(1), h(0), cx(0, 1))) == []

    def test_stale_root_is_no_site(self):
        assert detect_ghz(circ(2, x(0), h(0), cx(0, 1))) == []

    def test_bare_hadamard_is_no_site(self):
        assert detect_ghz(circ(2, h(0), cz(0, 1))) == []

    def test_mixed_tree_takes_pure_prefix(self):
        # Fan-out then chain continuation: only the fan-out prefix is a site.
        sites = detect_ghz(circ(4, h(0), cx(0, 1), cx(0, 2), cx(2, 3)))
        assert len(sites) == 1
        assert sites[0].members == (0, 1, 2)

    def test_interleaved_foreign_qubit_tolerated(self):
        sites = detect_ghz(circ(4, h(0), x(3), cx(0, 1), rz(3, 0.2), cx(1, 2)))
        assert len(sites) == 1
        assert sites[0].members == (0, 1, 2)

    def test_barrier_on_member_stops_site(self):
        sites = detect_ghz(circ(3, h(0), cx(0, 1), barrier(0, 1, 2), cx(1, 2)))
        assert len(sites) == 1
        assert sites[0].members == (0, 1)

    def test_two_disjoint_sites(self):
        sites = detect_ghz(circ(4, h(0), h(2), cx(0, 1), cx(2, 3)))
        assert len(sites) == 2
        assert {s.root for s in sites} == {0, 2}

    def test_substituting_stale_site_would_be_unsound(self):
        # The freshness guard exists because the rewrites are state-preparation
        # identities: with X q1 applied first, swapping the chain for the
        # doubling cascade changes the output state.
        stale = circ(3, x(1), h(0), cx(0, 1), cx(1, 2))
        pretend = circ(3, x(1), *build_ghz_log([0, 1, 2]))
        assert not equivalent_on_zero(stale, pretend)
        assert detect_ghz(stale) == []


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
        assert rebuild_ghz_sites(c, GhzMode.OFF)[0].instructions == c.instructions

    def test_robust_ghz16(self):
        out = rebuild_ghz_sites(gen_ghz_standard(16), GhzMode.ROBUST)[0]
        assert stats(out).depth == 5

    def test_parallel_ghz16(self):
        out = rebuild_ghz_sites(gen_ghz_standard(16), GhzMode.PARALLEL)[0]
        report = stats(out)
        assert report.depth == 6
        assert report.measure_count == 8

    @pytest.mark.parametrize("n", range(2, 13))
    def test_robust_equivalent_on_zero(self, n):
        std = gen_ghz_standard(n)
        assert equivalent_on_zero(std, rebuild_ghz_sites(std, GhzMode.ROBUST)[0], tol=1e-9)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_parallel_equivalent_on_zero(self, n):
        std = gen_ghz_standard(n)
        assert equivalent_on_zero(std, rebuild_ghz_sites(std, GhzMode.PARALLEL)[0], tol=1e-9)

    def test_member_order_preserved_for_fanout(self):
        c = circ(4, h(1), cx(1, 3), cx(1, 0), cx(1, 2))
        out = rebuild_ghz_sites(c, GhzMode.ROBUST)[0]
        assert out.instructions[0] == h(1)
        assert equivalent_on_zero(c, out)

    def test_parallel_skips_two_member_sites(self):
        c = circ(2, h(0), cx(0, 1))
        out = rebuild_ghz_sites(c, GhzMode.PARALLEL)[0]
        assert out.instructions == c.instructions

    def test_nothing_replaced_returns_input(self):
        c = circ(4, h(0), cx(0, 1), h(2), cx(2, 3))
        out, sites, replaced = rebuild_ghz_sites(c, GhzMode.PARALLEL)
        assert len(sites) == 2 and replaced == []
        assert out is c

    def test_surrounding_instructions_survive(self):
        c = circ(4, x(3), h(0), cx(0, 1), cx(1, 2), rz(3, 0.5), cx(2, 3))
        out = rebuild_ghz_sites(c, GhzMode.ROBUST)[0]
        kept = [ins for ins in out.instructions if ins in (x(3), rz(3, 0.5), cx(2, 3))]
        assert kept == [x(3), rz(3, 0.5), cx(2, 3)]

    def test_parallel_allocates_fresh_clbits(self):
        c = Circuit(5, 2, tuple(gen_ghz_standard(5).instructions))
        out = rebuild_ghz_sites(c, GhzMode.PARALLEL)[0]
        assert out.num_clbits == 4
        used = {ins.clbit for ins in out.instructions if ins.gate is Gate.MEASURE}
        assert used == {2, 3}

    def test_fanout_sites_replaced_too(self):
        c = circ(5, h(0), *[cx(0, t) for t in range(1, 5)])
        out = rebuild_ghz_sites(c, GhzMode.ROBUST)[0]
        assert stats(out).depth == 1 + math.ceil(math.log2(5))
        assert equivalent_on_zero(c, out)


# -- detection against the forward scan over every later instruction ----------


def _forward_scan_detect(c: Circuit) -> list[GhzSite]:
    """Reference detection: from each fresh H, walk every later instruction
    until one touches a member without extending the pattern."""
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
            sites.append(GhzSite(h_idx, root, tuple(members), frozenset(gate_indices),
                                 shape or "chain"))
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
    out += [rebuild_ghz_sites(gen_ghz_standard(n), m)[0]
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
        assert detect_ghz(c) == _forward_scan_detect(c), c


def test_detect_corpus_exercises_every_shape():
    circuits = [_ghz_rich_circuit(s) for s in range(2000)]
    sites = [site for c in circuits for site in detect_ghz(c)]
    assert {site.shape for site in sites} == {"chain", "fanout"}
    assert sum(len(site.members) >= 4 for site in sites) > 100
    interleaved = [site for site in sites if max(site.gate_indices) - site.hadamard_index
                   >= len(site.gate_indices)]
    assert len(interleaved) > 100
    assert sum(len(detect_ghz(c)) >= 2 for c in circuits) > 100
    ops = [ins for c in circuits for ins in c.instructions]
    assert any(ins.gate is Gate.MEASURE for ins in ops)
    assert any(ins.condition is not None for ins in ops)
    assert any(ins.gate is Gate.BARRIER for ins in ops)


class _CountingTuple(tuple):
    """Instruction tuple that counts the positions read by index."""

    reads = 0

    def __getitem__(self, index):
        _CountingTuple.reads += 1
        return tuple.__getitem__(self, index)


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
        c = shape(n)
        object.__setattr__(c, "instructions", _CountingTuple(c.instructions))
        monkeypatch.setattr(_CountingTuple, "reads", 0)
        detect_ghz(c)
        counts.append(_CountingTuple.reads)
    assert 0 < counts[1] <= 2.5 * counts[0], counts
