"""Circuit IR: validation at construction, ASAP depth, stats."""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from qshallow.ir import (
    Circuit,
    Condition,
    DepthReport,
    Gate,
    Instruction,
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

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
    def test_angle_must_be_finite(self, angle):
        # `emit` would write `rx(nan)`, which no reader takes back.
        with pytest.raises(ValueError, match="instruction 1 \\(rx\\): angle must be finite"):
            circ(2, cx(0, 1), rx(1, angle))

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


def _reference_validate(c) -> list[str]:
    """`validate` as one list of checks per instruction, with no short
    branch for a valid gate: the messages the short branch must leave as
    they are."""
    errors: list[str] = []
    if c.num_qubits < 0:
        errors.append("num_qubits must be non-negative")
    if c.num_clbits < 0:
        errors.append("num_clbits must be non-negative")
    written: set[int] = set()
    for i, ins in enumerate(c.instructions):
        mark = len(errors)
        expected = ins.gate.arity
        if expected is not None and len(ins.qubits) != expected:
            errors.append(f"expected {expected} qubit operand(s), got {len(ins.qubits)}")
        if ins.gate is Gate.BARRIER and not ins.qubits:
            errors.append("barrier needs at least one qubit")
        for q in ins.qubits:
            if not 0 <= q < c.num_qubits:
                errors.append(f"qubit index {q} out of range")
        if len(set(ins.qubits)) != len(ins.qubits):
            errors.append("duplicate operand")
        if (ins.angle is not None) != ins.gate.is_rotation:
            errors.append("angle present iff gate is a rotation")
        elif ins.angle is not None and not math.isfinite(ins.angle):
            errors.append("angle must be finite")
        if (ins.clbit is not None) != (ins.gate is Gate.MEASURE):
            errors.append("clbit present iff gate is a measurement")
        if ins.gate is Gate.MEASURE:
            if ins.condition is not None:
                errors.append("measurement must not be conditioned")
            if ins.clbit is not None:
                if not 0 <= ins.clbit < c.num_clbits:
                    errors.append(f"clbit index {ins.clbit} out of range")
                elif ins.clbit in written:
                    errors.append(f"clbit {ins.clbit} written more than once")
                else:
                    written.add(ins.clbit)
        if ins.condition is not None:
            if not ins.condition.bits:
                errors.append("condition needs at least one bit")
            for b in ins.condition.bits:
                if not 0 <= b < c.num_clbits:
                    errors.append(f"condition bit {b} out of range")
        if len(errors) > mark:
            where = f"instruction {i} ({ins.gate.value})"
            errors[mark:] = [f"{where}: {e}" for e in errors[mark:]]
    return errors


_likely_valid = st.one_of(
    st.builds(h, st.integers(0, 3)),
    st.builds(rx, st.integers(0, 3), st.sampled_from([0.0, -0.0, 2.5])),
    st.builds(cx, st.integers(0, 3), st.integers(0, 3)),
    st.builds(cz, st.integers(0, 3), st.integers(0, 3)),
    st.builds(measure, st.integers(0, 3), st.integers(0, 2)),
)
#: Values for one field of an instruction, valid or not.
_FIELD_VALUES = {
    "gate": st.sampled_from(list(Gate)),
    "qubits": st.lists(st.integers(-1, 4), max_size=3).map(tuple),
    "angle": st.sampled_from([None, 0.0, -0.0, 1.5, float("nan"), float("inf")]),
    "clbit": st.sampled_from([None, -1, 0, 1, 3]),
    "condition": st.sampled_from([None, Condition(()), Condition((0,)), Condition((1, 4))]),
}


@st.composite
def _near_valid_instructions(draw):
    """A well-formed gate with up to two of its fields redrawn."""
    ins = draw(_likely_valid)
    for name in draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), max_size=2)):
        ins = dataclasses.replace(ins, **{name: draw(_FIELD_VALUES[name])})
    return ins


@settings(max_examples=400, deadline=None)
@given(
    st.integers(-1, 4),
    st.integers(-1, 3),
    st.lists(_near_valid_instructions(), max_size=12),
)
def test_validate_matches_the_full_checks(num_qubits, num_clbits, body):
    # A stand-in: a `Circuit` refuses to exist unless it is valid.
    c = SimpleNamespace(num_qubits=num_qubits, num_clbits=num_clbits, instructions=tuple(body))
    assert validate(c) == _reference_validate(c)


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

    def test_register_far_wider_than_the_list(self):
        # Nothing is sized by the registers.
        c = Circuit(10**18, 10**18, (h(5), measure(5, 10**17), x(7, condition=Condition((10**17,)))))
        assert stats(c) == DepthReport(3, 2, 0, 1)

    def test_as_dict_is_the_fields_in_order(self):
        report = stats(circ(2, h(0), cx(0, 1), measure(1, 0), clbits=1))
        assert report.as_dict() == dataclasses.asdict(report)
        assert list(report.as_dict()) == [f.name for f in dataclasses.fields(DepthReport)]

    def test_known_depth_is_taken_counts_are_not(self):
        c = circ(2, h(0), cx(0, 1), measure(1, 0), clbits=1)
        assert stats(c, known_depth=3) == stats(c)
        assert stats(c, known_depth=7) == DepthReport(7, 2, 1, 1)


class TestRecords:
    def test_instruction_and_condition_are_slotted(self):
        op = Instruction(Gate.RZ, [1], 0.5, condition=Condition([0, 1]))
        assert not hasattr(op, "__dict__") and not hasattr(op.condition, "__dict__")
        assert op.qubits == (1,) and op.condition.bits == (0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.angle = 1.0
        assert hash(op) == hash(Instruction(Gate.RZ, (1,), 0.5, condition=Condition((0, 1))))

    def test_replace_still_normalises(self):
        # The stabilizer derives instructions with dataclasses.replace.
        op = dataclasses.replace(cx(0, 1), qubits=[2, 3], condition=Condition([1]))
        assert op == Instruction(Gate.CX, (2, 3), condition=Condition((1,)))
        assert dataclasses.replace(op, condition=None) == cx(2, 3)

    def test_gate_names_are_plain_attributes(self):
        for gate in Gate:
            assert gate.qasm_name == gate.value
            assert "qasm_name" in vars(gate)


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
