"""Circuit IR: validation at construction, ASAP depth, stats."""
from __future__ import annotations

import dataclasses

import pytest
from hypothesis import assume, given, settings, strategies as st

from qshallow.ir import (
    Circuit,
    Condition,
    DepthReport,
    Gate,
    Instruction,
    _splice,
    barrier,
    cx,
    cz,
    depth,
    depth_of,
    h,
    measure,
    rx,
    rz,
    stats,
    validate,
    x,
)


def circ(n, *instructions, clbits=0):
    return Circuit(n, clbits, tuple(instructions))


class TestValidate:
    """Every invariant violation raises at construction, with the message of
    `validate`, also when the circuit is derived with dataclasses.replace."""

    def test_well_formed(self):
        assert validate(circ(2, cx(0, 1))) == []

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match=r"^invalid circuit: instruction 0 \(cx\): "
                           r"qubit index 5 out of range$"):
            circ(2, cx(0, 5))
        with pytest.raises(ValueError, match="qubit index 1 out of range"):
            dataclasses.replace(circ(2, cx(0, 1)), num_qubits=1)

    def test_duplicate_operand(self):
        with pytest.raises(ValueError, match="instruction 0 \\(cx\\): duplicate operand"):
            circ(2, Instruction(Gate.CX, (0, 0)))

    def test_clbit_reassignment(self):
        with pytest.raises(ValueError, match="instruction 1 \\(measure\\): "
                           "clbit 0 written more than once"):
            circ(2, measure(0, 0), measure(1, 0), clbits=1)
        ok = circ(2, measure(0, 0), measure(1, 1), clbits=2)
        with pytest.raises(ValueError, match="written more than once"):
            dataclasses.replace(ok, instructions=(measure(0, 0), measure(1, 0)))

    def test_angle_only_on_rotations(self):
        with pytest.raises(ValueError, match="angle present iff gate is a rotation"):
            circ(1, Instruction(Gate.H, (0,), angle=1.0))
        with pytest.raises(ValueError, match="angle present iff gate is a rotation"):
            circ(1, Instruction(Gate.RX, (0,)))

    def test_measure_condition_forbidden(self):
        bad = Instruction(Gate.MEASURE, (0,), clbit=0, condition=Condition((0,)))
        with pytest.raises(ValueError, match="must not be conditioned"):
            circ(1, bad, clbits=1)

    def test_condition_bit_range(self):
        with pytest.raises(ValueError, match="condition bit 3 out of range"):
            circ(1, x(0, condition=Condition((3,))), clbits=1)
        ok = circ(1, x(0, condition=Condition((0,))), clbits=1)
        with pytest.raises(ValueError, match="condition bit 0 out of range"):
            dataclasses.replace(ok, num_clbits=0)

    def test_all_violations_joined(self):
        with pytest.raises(ValueError) as err:
            Circuit(-1, 0, (cx(0, 0),))
        assert str(err.value) == (
            "invalid circuit: num_qubits must be non-negative; "
            "instruction 0 (cx): qubit index 0 out of range; "
            "instruction 0 (cx): qubit index 0 out of range; "
            "instruction 0 (cx): duplicate operand"
        )


class TestDepth:
    def test_single_gate(self):
        assert depth(circ(1, h(0))) == 1

    def test_sequential_chain(self):
        assert depth(circ(3, h(0), cx(0, 1), cx(1, 2))) == 3

    def test_disjoint_parallel(self):
        assert depth(circ(4, cx(0, 1), cx(2, 3))) == 1

    def test_empty(self):
        assert depth(circ(1)) == 0

    def test_classical_dependency(self):
        c = circ(2, measure(0, 0), x(1, condition=Condition((0,))), clbits=1)
        assert depth(c) == 2

    def test_condition_readers_parallelize(self):
        # Two gates conditioned on the same bit are read-read: same layer.
        c = circ(
            3,
            measure(0, 0),
            x(1, condition=Condition((0,))),
            x(2, condition=Condition((0,))),
            clbits=1,
        )
        assert depth(c) == 2

    def test_barrier_orders_but_costs_nothing(self):
        assert depth(circ(4, barrier(0, 1, 2, 3))) == 0
        assert depth(circ(4, cx(0, 1), cx(2, 3))) == 1
        assert depth(circ(4, cx(0, 1), barrier(0, 1, 2, 3), cx(2, 3))) == 2

    def test_window(self):
        # A slice of the instruction list is scheduled from scratch.
        c = circ(3, h(0), cx(0, 1), cx(1, 2))
        assert depth_of(c.instructions[0:3]) == 3
        assert depth_of(c.instructions[1:3]) == 2
        assert depth_of(c.instructions[2:2]) == 0

    def test_measure_occupies_a_layer(self):
        assert depth(circ(1, h(0), measure(0, 0), clbits=1)) == 2


class TestStats:
    def test_ghz4_shape(self):
        from qshallow.bench import gen_ghz_standard

        report = stats(gen_ghz_standard(4))
        assert report == DepthReport(depth=4, gate_count=4, two_qubit_count=3, measure_count=0)

    def test_empty_circuit(self):
        assert stats(circ(1)) == DepthReport(0, 0, 0, 0)

    def test_classical_dependency_depth(self):
        c = circ(2, measure(0, 0), x(1, condition=Condition((0,))), clbits=1)
        assert stats(c).depth == 2
        assert stats(c).measure_count == 1
        assert stats(c).gate_count == 1

    def test_invalid_circuit_raises(self):
        # No invalid circuit reaches stats: building one raises.
        with pytest.raises(ValueError, match="out of range"):
            stats(circ(1, cx(0, 5)))


# -- property tests ----------------------------------------------------------

_gates = st.one_of(
    st.builds(h, st.integers(0, 5)),
    st.builds(rx, st.integers(0, 5), st.floats(0.1, 6.0)),
    st.builds(rz, st.integers(0, 5), st.floats(0.1, 6.0)),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]).map(
        lambda p: cx(*p)
    ),
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]).map(
        lambda p: cz(*p)
    ),
)
_circuits = st.lists(_gates, max_size=30).map(lambda body: Circuit(6, 0, tuple(body)))


@settings(max_examples=60, deadline=None)
@given(_circuits, st.data())
def test_removing_an_instruction_never_increases_depth(c, data):
    if not c.instructions:
        return
    i = data.draw(st.integers(0, len(c.instructions) - 1))
    smaller = Circuit(c.num_qubits, 0, c.instructions[:i] + c.instructions[i + 1 :])
    assert depth(smaller) <= depth(c)


@settings(max_examples=60, deadline=None)
@given(_circuits)
def test_depth_at_least_busiest_qubit(c):
    per_qubit: dict[int, int] = {}
    for ins in c.instructions:
        if ins.gate is Gate.BARRIER:
            continue
        for q in ins.qubits:
            per_qubit[q] = per_qubit.get(q, 0) + 1
    assert depth(c) >= max(per_qubit.values(), default=0)


# -- the splice every rewrite is laid out with ---------------------------------


def test_splice_replaces_and_deletes():
    assert _splice("abcdef", {1: "XY", 3: (), 4: "Z"}) == list("aXYcZf")
    assert _splice("abc", {0: (), 2: "Q"}) == ["b", "Q"]
    items = ["a", "b"]
    copy = _splice(items, {0: ["a"]})
    assert copy == items and copy is not items


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(), max_size=20),
    st.dictionaries(st.integers(0, 19), st.lists(st.integers(), max_size=3), max_size=6),
)
def test_splice_matches_walk_over_every_position(items, blocks):
    blocks = {i: b for i, b in blocks.items() if i < len(items)}
    assume(blocks)
    want = []
    for i, item in enumerate(items):
        want.extend(blocks.get(i, [item]))
    assert _splice(items, blocks) == want
