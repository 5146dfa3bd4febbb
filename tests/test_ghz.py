"""GHZ site detection and the two depth-reduced reconstructions."""
from __future__ import annotations

import math

import pytest

from qshallow.bench import gen_ghz_standard
from qshallow.ghz import (
    GhzMode,
    rebuild_ghz_sites,
    build_ghz_log,
    build_ghz_parallel,
    detect_ghz,
)
from qshallow.ir import Circuit, Gate, barrier, cx, cz, h, ry, rz, stats, x
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
