"""QASM 2.0 subset reader/writer."""
from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from qshallow import qasm
from qshallow.bench import (
    ANSATZ_FAMILIES,
    ENTANGLEMENTS,
    AnsatzSpec,
    gen_ansatz,
    gen_cx_chain,
    gen_cz_chain,
    gen_ghz_standard,
    gen_intertwined,
    gen_random,
)
from qshallow.ghz import GhzMode
from qshallow.pipeline import ChainMode, PassConfig, compile_circuit
from qshallow.ir import Circuit, Condition, Gate, Instruction, cx, h, measure, rz, x
from qshallow.qasm import ParseError, emit, parse
from qshallow.sim import branches, states_equal_up_to_phase


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParse:
    def test_minimal_cx(self):
        c = parse(HEADER + "qreg q[2];\ncx q[0],q[1];")
        assert c.num_qubits == 2
        assert c.instructions == (cx(0, 1),)

    def test_include_optional(self):
        c = parse("OPENQASM 2.0; qreg q[1]; h q[0];")
        assert c.instructions == (h(0),)

    def test_register_flattening_in_declaration_order(self):
        c = parse(HEADER + "qreg a[2]; qreg b[2]; cx a[1],b[0];")
        assert c.num_qubits == 4
        assert c.instructions == (cx(1, 2),)

    def test_angle_forms(self):
        c = parse(
            HEADER
            + "qreg q[1];"
            + "rx(1.5) q[0]; rx(2) q[0]; rx(pi) q[0]; rx(-pi) q[0];"
            + "rx(pi/2) q[0]; rx(3*pi/4) q[0]; rx(2*pi) q[0]; rx(1e-3) q[0];"
        )
        angles = [ins.angle for ins in c.instructions]
        assert angles == pytest.approx(
            [1.5, 2.0, math.pi, -math.pi, math.pi / 2, 3 * math.pi / 4, 2 * math.pi, 1e-3]
        )

    def test_broadcast_single_qubit_gate(self):
        c = parse(HEADER + "qreg q[3]; h q;")
        assert c.instructions == (h(0), h(1), h(2))

    def test_barrier_and_measure(self):
        c = parse(HEADER + "qreg q[2]; creg c[1]; barrier q; measure q[0] -> c[0];")
        assert c.instructions == (
            Instruction(Gate.BARRIER, (0, 1)),
            measure(0, 0),
        )

    def test_single_bit_condition(self):
        c = parse(HEADER + "qreg q[2]; creg f[1]; measure q[0] -> f[0]; if(f==1) x q[1];")
        assert c.instructions[1] == x(1, condition=Condition((0,)))

    def test_comments_and_whitespace(self):
        c = parse("// leading\nOPENQASM 2.0;\nqreg q[1];  // decl\n\n  h   q[0]\n ;")
        assert c.instructions == (h(0),)

    def test_empty_body(self):
        c = parse(HEADER + "qreg q[1];")
        assert c.num_qubits == 1 and c.instructions == ()


_HUGE = "1" * 5000


class TestParseErrors:
    @pytest.mark.parametrize(
        "src, kind, fragment",
        [
            ("OPENQASM 2.0; qreg q[1]; t q[0];", "unsupported-construct", "subset"),
            ("OPENQASM 2.0; qreg q[1]; cz q[0],q[0];", "semantic", "duplicate"),
            ("OPENQASM 2.0; cx q[0],q[1];", "semantic", "undeclared"),
            ("OPENQASM 2.0; qreg q[2]; cx q[0];", "semantic", "argument"),
            ("OPENQASM 2.0; qreg q[1]; h q[4];", "semantic", "out of range"),
            ("OPENQASM 2.0; qreg q[1]; rx q[0];", "semantic", "angle"),
            ("OPENQASM 2.0; qreg q[1]; h(1.0) q[0];", "semantic", "parameter"),
            ("OPENQASM 2.0 qreg q[1];", "syntax", "expected"),
            ("OPENQASM 2.0; include \"other.inc\";", "unsupported-construct", "include"),
            ("OPENQASM 2.0; gate foo a { }", "unsupported-construct", "subset"),
            ("OPENQASM 2.0; qreg q[1]; creg c[2]; if(c==1) x q[0];",
             "unsupported-construct", "one-bit"),
            ("OPENQASM 2.0; qreg q[1]; creg c[1]; if(c==1) measure q[0] -> c[0];",
             "unsupported-construct", "conditioned measure"),
            ("OPENQASM 2.0; qreg q[1]; creg c[1]; measure q[0] -> c[0];"
             "measure q[0] -> c[0];", "semantic", "more than once"),
            ("OPENQASM 2.0; qreg q[1]; @;", "syntax", "unexpected character"),
            ("OPENQASM 2.0; qreg q[1]; rx(pi/0) q[0];", "semantic", "division by zero"),
            ("OPENQASM 2.0; qreg q[1]; rx(2*pi/0) q[0];", "semantic", "division by zero"),
            ("OPENQASM 2.0; qreg q[1]; rx(1e999) q[0];", "semantic", "not finite"),
            ("OPENQASM 2.0; qreg q[1]; rx(-1e999) q[0];", "semantic", "not finite"),
            # Past Python's int() digit limit.
            pytest.param(f"OPENQASM 2.0; qreg q[1]; h q[{_HUGE}];", "semantic", "too long",
                         id="5000-digit-index"),
            pytest.param(f"OPENQASM 2.0; qreg q[{_HUGE}];", "semantic", "too long",
                         id="5000-digit-qreg"),
            pytest.param(f"OPENQASM 2.0; creg c[{_HUGE}];", "semantic", "too long",
                         id="5000-digit-creg"),
        ],
    )
    def test_error_kinds(self, src, kind, fragment):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.kind == kind
        assert fragment in err.value.message

    def test_spans_are_populated(self):
        with pytest.raises(ParseError) as err:
            parse('OPENQASM 2.0;\nqreg q[1];\nt q[0];')
        assert err.value.span.line == 3
        assert err.value.span.column == 1

    def test_parser_is_total_on_junk(self):
        for junk in ("", "garbage", "OPENQASM", "OPENQASM 2.0; qreg", "\x00"):
            with pytest.raises(ParseError):
                parse(junk)


class TestEmit:
    def test_single_hadamard(self):
        text = emit(Circuit(1, 0, (h(0),)))
        assert text.startswith("OPENQASM 2.0;")
        assert "h q[0];" in text

    def test_parity_condition_lowering(self):
        c = Circuit(3, 2, (x(2, condition=Condition((0, 1))),))
        text = emit(c)
        assert "if(m0==1) x q[2];" in text
        assert "if(m1==1) x q[2];" in text

    def test_lowered_parity_equivalent_per_branch(self):
        # Entangle, measure two bits, correct on their parity; the lowered
        # form must agree with the in-memory form branch by branch.
        original = Circuit(
            3, 2,
            (
                h(0), h(1),
                measure(0, 0), measure(1, 1),
                x(2, condition=Condition((0, 1))),
            ),
        )
        lowered = parse(emit(original))
        orig_branches = {
            tuple(sorted(b.outcomes.items())): b.state for b in branches(original)
        }
        low_branches = {
            tuple(sorted(b.outcomes.items())): b.state for b in branches(lowered)
        }
        assert orig_branches.keys() == low_branches.keys()
        for key, state in orig_branches.items():
            assert states_equal_up_to_phase(state, low_branches[key], 1e-9)

    def test_emitted_text_reparses(self):
        c = Circuit(2, 1, (h(0), cx(0, 1), measure(1, 0)))
        parse(emit(c))

    def test_invalid_circuit_rejected(self):
        # No invalid circuit reaches emit: building one raises.
        with pytest.raises(ValueError):
            emit(Circuit(1, 0, (cx(0, 5),)))

    def test_unread_bits_share_a_register(self):
        # Bits 0-2 and 4-5 are read by no condition; bit 3 is.
        c = Circuit(2, 6, (measure(0, 1), measure(1, 5), x(0, condition=Condition((3,)))))
        text = emit(c)
        cregs = [line for line in text.splitlines() if line.startswith("creg")]
        assert cregs == ["creg m0[3];", "creg m3[1];", "creg m4[2];"]
        assert "measure q[0] -> m0[1];" in text and "measure q[1] -> m4[1];" in text
        back = parse(text)
        assert (back.num_clbits, back.instructions) == (c.num_clbits, c.instructions)

    def test_reparse_keeps_every_measured_bit(self):
        circuits = [_random_dynamic_circuit(s) for s in range(300)]
        unread = 0
        for c in circuits:
            back = parse(emit(c))
            assert back.num_clbits == c.num_clbits
            measured = [(op.qubits, op.clbit) for op in c.instructions if op.clbit is not None]
            assert [(op.qubits, op.clbit) for op in back.instructions
                    if op.clbit is not None] == measured
            read = {b for op in c.instructions if op.condition for b in op.condition.bits}
            unread += any(b not in read for _, b in measured)
        assert unread > 50


_angle = st.floats(min_value=-10, max_value=10, allow_nan=False)
_q6 = st.integers(0, 5)
_instr = st.one_of(
    st.builds(h, _q6),
    st.sampled_from([Gate.RX, Gate.RY, Gate.RZ]).flatmap(
        lambda g: st.tuples(_q6, _angle).map(lambda t: Instruction(g, (t[0],), angle=t[1]))
    ),
    st.tuples(_q6, _q6).filter(lambda p: p[0] != p[1]).map(lambda p: cx(*p)),
    st.tuples(_q6, _q6).filter(lambda p: p[0] != p[1]).map(
        lambda p: Instruction(Gate.CZ, p)
    ),
    st.builds(x, _q6),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_instr, max_size=25))
def test_round_trip_identity_on_condition_free_circuits(body):
    c = Circuit(6, 0, tuple(body))
    assert parse(emit(c)).instructions == c.instructions


def _reference_emit(c: Circuit) -> str:
    """`emit`'s text from the module note's rules, each statement formatted
    on its own: every bit a condition reads is its own register and each run
    of the others one register, named m<first bit>; an angle is written to
    17 significant digits; a k-bit condition becomes k single-bit `if`s."""
    read = {b for op in c.instructions if op.condition is not None for b in op.condition.bits}
    registers: list[tuple[int, int]] = []  # (first bit, size)
    for b in range(c.num_clbits):
        if b in read or not registers or registers[-1][0] in read:
            registers.append((b, 1))
        else:
            registers[-1] = (registers[-1][0], registers[-1][1] + 1)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if c.num_qubits:
        lines.append(f"qreg q[{c.num_qubits}];")
    lines += [f"creg m{first}[{size}];" for first, size in registers]
    for op in c.instructions:
        operands = ",".join(f"q[{q}]" for q in op.qubits)
        if op.gate is Gate.MEASURE:
            first = max(f for f, _ in registers if f <= op.clbit)
            lines.append(f"measure {operands} -> m{first}[{op.clbit - first}];")
        elif op.gate is Gate.BARRIER:
            lines.append(f"barrier {operands};")
        else:
            angle = "" if op.angle is None else "(" + format(op.angle, ".17g") + ")"
            text = f"{op.gate.value}{angle} {operands};"
            bits = () if op.condition is None else op.condition.bits
            lines += [f"if(m{b}==1) {text}" for b in bits] if bits else [text]
    return "\n".join(lines) + "\n"


def test_emit_formats_repeats_as_one_statement_at_a_time():
    # `emit` formats each (gate, qubits) once: 0.0 and -0.0 stay apart.
    body = []
    for k in range(3):
        body += [h(0), cx(0, 1), cx(1, 0), rz(0, 0.0), rz(0, -0.0), rz(0, 0.5 * k),
                 Instruction(Gate.RX, (1,), angle=-0.0), Instruction(Gate.CZ, (0, 1)),
                 Instruction(Gate.RY, (1,), angle=0.0), x(1), rz(1, -0.0)]
    text = emit(Circuit(2, 0, tuple(body)))
    assert text == _reference_emit(Circuit(2, 0, tuple(body)))
    assert text.count("rz(0) q[0];") == 4 and text.count("rz(-0) q[0];") == 3
    assert text.count("rx(-0) q[1];") == 3 and text.count("ry(0) q[1];") == 3


@settings(max_examples=80, deadline=None)
@given(st.lists(_instr, max_size=40))
def test_emit_matches_one_statement_at_a_time(body):
    c = Circuit(6, 0, tuple(body))
    assert emit(c) == _reference_emit(c)


_ODD_ANGLES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-320, -1e-320, 1e300, -1e300, -2.5, -math.pi]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _dynamic_circuits(draw) -> Circuit:
    """Every gate, plain and under one- and multi-bit conditions (rotations
    under one bit only: `emit` cannot lower their parity), measurements
    onto bits in any order, and barriers of any width."""
    n, bits = draw(st.integers(2, 5)), draw(st.integers(0, 5))
    qubit = st.integers(0, n - 1)
    unwritten = draw(st.permutations(range(bits)))
    body = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from([*(g for g in Gate if g.letters), "measure", "barrier"]))
        if kind == "measure":
            if unwritten:
                body.append(measure(draw(qubit), unwritten.pop()))
            continue
        if kind == "barrier":
            width = draw(st.integers(1, n))
            body.append(Instruction(Gate.BARRIER, tuple(draw(st.permutations(range(n)))[:width])))
            continue
        qubits = tuple(draw(st.permutations(range(n)))[: kind.arity])
        angle = draw(_ODD_ANGLES) if kind.is_rotation else None
        condition = None
        if bits and draw(st.booleans()):
            most = 1 if kind.is_rotation else 3
            cond_bits = draw(st.lists(st.integers(0, bits - 1), min_size=1, max_size=most))
            condition = Condition(tuple(cond_bits))
        body.append(Instruction(kind, qubits, angle, condition=condition))
    return Circuit(n, bits, tuple(body))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dynamic_circuits())
def test_emit_matches_reference_formatter(c):
    assert emit(c) == _reference_emit(c)


def test_emit_formats_odd_angles_and_every_statement():
    body = [
        Instruction(Gate.RZ, (0,), -0.0), Instruction(Gate.RX, (1,), 1e-320),
        Instruction(Gate.RY, (0,), 1e300), Instruction(Gate.RZ, (1,), -2.5),
        Instruction(Gate.Y, (0,)), Instruction(Gate.Z, (1,)), Instruction(Gate.CZ, (1, 0)),
        measure(0, 2), Instruction(Gate.BARRIER, (1, 0)),
        x(1, condition=Condition((0,))), Instruction(Gate.CZ, (0, 1), condition=Condition((0, 3))),
        Instruction(Gate.RZ, (0,), -0.5, condition=Condition((3,))),
    ]
    text = emit(Circuit(2, 5, tuple(body)))
    assert text == _reference_emit(Circuit(2, 5, tuple(body)))
    assert text.splitlines()[3:] == [
        "creg m0[1];", "creg m1[2];", "creg m3[1];", "creg m4[1];",
        "rz(-0) q[0];", "rx(9.9998886718268301e-321) q[1];", "ry(1.0000000000000001e+300) q[0];",
        "rz(-2.5) q[1];", "y q[0];", "z q[1];", "cz q[1],q[0];", "measure q[0] -> m1[1];",
        "barrier q[1],q[0];", "if(m0==1) x q[1];", "if(m0==1) cz q[0],q[1];",
        "if(m3==1) cz q[0],q[1];", "if(m3==1) rz(-0.5) q[0];",
    ]


# -- fast path against the grammar ---------------------------------------------

_NEVER = re.compile(r"(?!)")


def _grammar_only(patch) -> None:
    """Route every statement to the grammar: no fast-path regex can match."""
    for name in dir(qasm):
        if name.startswith("_FAST_") and isinstance(getattr(qasm, name), re.Pattern):
            patch.setattr(qasm, name, _NEVER)


def _outcome(text: str):
    """The parsed circuit (angles by repr, so -0.0 != 0.0) or the error."""
    try:
        c = parse(text)
    except ParseError as err:
        return ("error", err.message, err.kind, err.span.line, err.span.column)
    body = tuple(
        (ins.gate, ins.qubits, repr(ins.angle), ins.clbit, ins.condition)
        for ins in c.instructions
    )
    return (c.num_qubits, c.num_clbits, body)


def _assert_paths_agree(text: str, monkeypatch):
    fast = _outcome(text)
    with monkeypatch.context() as m:
        _grammar_only(m)
        assert _outcome(text) == fast
    return fast


def _random_dynamic_circuit(seed: int) -> Circuit:
    """Gates, conditioned gates (parity over several bits for X, one bit for
    the rest), mid-circuit measurements and barriers."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    num_clbits = rng.randint(0, 5)
    unwritten = list(range(num_clbits))
    rng.shuffle(unwritten)
    body: list[Instruction] = []
    angles = (0.0, -0.0, 0.5, -1e-300, 3.0e12, math.pi / 3)
    for _ in range(rng.randint(0, 40)):
        r = rng.random()
        a, b = rng.sample(range(n), 2)
        if r < 0.3:
            body.append(Instruction(rng.choice((Gate.CX, Gate.CZ)), (a, b)))
        elif r < 0.55:
            body.append(Instruction(rng.choice((Gate.H, Gate.X, Gate.Y, Gate.Z)), (a,)))
        elif r < 0.7:
            gate = rng.choice((Gate.RX, Gate.RY, Gate.RZ))
            body.append(Instruction(gate, (a,), angle=rng.choice(angles)))
        elif r < 0.8 and unwritten:
            body.append(measure(a, unwritten.pop()))
        elif r < 0.9 and num_clbits:
            bits = tuple(rng.sample(range(num_clbits), rng.randint(1, num_clbits)))
            body.append(rng.choice((
                x(a, condition=Condition(bits)),
                Instruction(Gate.RY, (a,), angle=0.25, condition=Condition(bits[:1])),
                Instruction(Gate.CZ, (a, b), condition=Condition(bits[:1])),
            )))
        else:
            body.append(Instruction(Gate.BARRIER, tuple(rng.sample(range(n), rng.randint(1, n)))))
    return Circuit(n, num_clbits, tuple(body))


def _bench_family_circuits() -> list[Circuit]:
    out = [gen_ghz_standard(n) for n in (2, 7, 40)]
    out += [gen_cx_chain(n, d) for n in (5, 12) for d in ("forward", "reverse")]
    out += [gen_cz_chain(9), gen_intertwined(3, 6)]
    out += [
        gen_ansatz(AnsatzSpec(family, 6, 2, ent, 3))
        for family in ANSATZ_FAMILIES
        for ent in ENTANGLEMENTS
    ]
    out += [gen_random(8, 80, seed=s) for s in range(5)]
    # GHZ rewrites emit measurements and parity feedforward.
    for mode in (GhzMode.ROBUST, GhzMode.PARALLEL):
        out += [compile_circuit(gen_ghz_standard(n),
                                PassConfig(ghz_mode=mode, chain_mode=ChainMode.OFF)).circuit
                for n in (4, 9, 30)]
    return out


def test_fast_path_matches_grammar_on_emitted_circuits(monkeypatch):
    circuits = _bench_family_circuits() + [_random_dynamic_circuit(s) for s in range(300)]
    texts = [emit(c) for c in circuits]
    assert any("if(" in t for t in texts) and any("barrier" in t for t in texts)
    assert any("measure" in t for t in texts) and any("(-0)" in t for t in texts)
    for c, text in zip(circuits, texts):
        got = _assert_paths_agree(text, monkeypatch)
        assert got[0] == c.num_qubits, got


_SEPARATORS = [" ", "  ", "\t", "\n", "\n  ", "\r\n", " // note\n", " //x\n\n"]
_ANGLES = [
    ["0"], ["0.0"], ["-", "0"], ["-", "0.0"], ["+", "0"], ["1.5"], [".5"], ["2."],
    ["-", ".25"], ["1e-3"], ["1E2"], ["3"], ["0.30000000000000004"], ["pi"],
    ["-", "pi"], ["pi", "/", "2"], ["3", "*", "pi", "/", "4"], ["-", "2", "*", "pi"],
    ["1e999"],
]


def _needs_space(left: str, right: str) -> bool:
    """Two adjacent tokens that would run together without a separator."""
    return all(ch.isalnum() or ch in "_." for ch in (left[-1], right[0]))


_VARIED_HEADER = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n'
    "creg c0[1]; creg c1[1]; creg c2[1]; creg w[2];\n"
)

# Statements that fail a check (the duplicate write after
# `measure q[0] -> c0[0];`): gates with the fast regex's shape, and others the
# grammar reads alone.
_MALFORMED = [stmt.split() for stmt in (
    "measure q [ 1 ] -> c0 [ 0 ] ;",
    "rx q [ 0 ] ;",
    "h ( 0.5 ) q [ 0 ] ;",
    "cx q [ 0 ] ;",
    "h q [ 0 ] , q [ 1 ] ;",
    "rz ( 1 ) q [ 0 ] , q [ 1 ] ;",
    "cz q [ 2 ] , q [ 2 ] ;",
    "x r [ 0 ] ;",
    "x q [ 5 ] ;",
    "x c0 [ 0 ] ;",
    "measure q [ 0 ] -> q [ 1 ] ;",
    "measure q [ 0 ] -> w [ 2 ] ;",
    "barrier q [ 1 ] , q [ 1 ] ;",
    "barrier q [ 9 ] ;",
    "if ( w == 1 ) x q [ 0 ] ;",
    "if ( u == 1 ) x q [ 0 ] ;",
    "if ( c0 == 01 ) x q [ 0 ] ;",
    "if ( c0 == 1 ) measure q [ 0 ] -> w [ 0 ] ;",
    "if ( c0 == 1 ) barrier q [ 0 ] ;",
    "if ( c0 == 1 ) cx q [ 0 ] , q [ 0 ] ;",
    "t q [ 0 ] ;",
    "H q [ 0 ] ;",
    "qreg q [ 2 ] ;",
)]


@st.composite
def _varied_programs(draw):
    """Header plus statements with varied spacing, comments and line breaks;
    now and then one that must fail."""
    n = 5
    statements: list[list[str]] = []
    kinds = ["gate", "rotation", "two", "broadcast", "measure", "if", "barrier"]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds * 3 + ["malformed"]))
        q = [str(i) for i in draw(st.permutations(range(n)))]
        if kind == "gate":
            stmt = [draw(st.sampled_from("hxyz")), "q", "[", q[0], "]", ";"]
        elif kind == "rotation":
            angle = draw(st.sampled_from(_ANGLES))
            stmt = [draw(st.sampled_from(["rx", "ry", "rz"])), "(", *angle, ")",
                    "q", "[", q[0], "]", ";"]
        elif kind == "two":
            stmt = [draw(st.sampled_from(["cx", "cz"])), "q", "[", q[0], "]", ",",
                    "q", "[", q[1], "]", ";"]
        elif kind == "broadcast":
            stmt = [draw(st.sampled_from("hxz")), "q", ";"]
        elif kind == "measure":  # a bit measured twice fails
            creg, bit = draw(st.sampled_from([("c0", "0"), ("c1", "0"), ("c2", "0"),
                                              ("w", "0"), ("w", "1")]))
            stmt = ["measure", "q", "[", q[0], "]", "->", creg, "[", bit, "]", ";"]
        elif kind == "if":
            stmt = ["if", "(", draw(st.sampled_from(["c0", "c1", "c2"])), "==", "1", ")",
                    draw(st.sampled_from(["x", "z", "h"])), "q", "[", q[0], "]", ";"]
        elif kind == "barrier":
            k = draw(st.integers(1, n))
            stmt = ["barrier"]
            for i in range(k):
                stmt += ([","] if i else []) + ["q", "[", q[i], "]"]
            stmt.append(";")
        else:
            stmt = draw(st.sampled_from(_MALFORMED))
        statements.append(stmt)

    def sep(left: str, right: str) -> str:
        options = _SEPARATORS if _needs_space(left, right) else [""] + _SEPARATORS
        return draw(st.sampled_from(options)) if draw(st.booleans()) else options[0]

    parts = [_VARIED_HEADER]
    for stmt in statements:
        tokens = [stmt[0]]
        for left, right in zip(stmt, stmt[1:]):
            tokens += [sep(left, right), right]
        parts.append("".join(tokens))
        parts.append(draw(st.sampled_from(["\n", "", " ", "\n\n", " // tail\n"])))
    return "".join(parts)


def _render(tokens: list[str]) -> str:
    out = tokens[0]
    for left, right in zip(tokens, tokens[1:]):
        out += (" " if _needs_space(left, right) else "") + right
    return out


# A well-formed statement with the gate and operands of each malformed gate
# statement, as near as one can be: the reader resolves each statement shape
# once, and what it kept must not let the malformed one through.
_TWINS = {
    "rx q[0];": "rx(0.5) q[0];",
    "h(0.5)q[0];": "h q[0];",
    "cx q[0];": "cx q[0],q[1];",
    "h q[0],q[1];": "h q[0]; h q[1];",
    "rz(1)q[0],q[1];": "rz(1) q[0]; rz(1) q[1];",
    "cz q[2],q[2];": "cz q[2],q[3];",
    "x r[0];": "x q[0];",
    "x q[5];": "x q[4];",
    "x c0[0];": "x q[0];",
    "if(c0==1)cx q[0],q[0];": "cx q[0],q[1];",
    "H q[0];": "h q[0];",
}


@pytest.mark.parametrize("tokens", _MALFORMED, ids=_render)
def test_failing_statement_reaches_the_grammar(tokens, monkeypatch):
    stmt = _render(tokens)
    twin = _TWINS.get(stmt, "")
    text = _VARIED_HEADER + "measure q[0] -> c0[0];\n" + twin + " " + stmt + "\n"
    got = _assert_paths_agree(text, monkeypatch)
    assert got[0] == "error" and got[3] == 6, got
    assert got[4] >= len(twin) + 2, got  # in the malformed statement, not its twin


@pytest.mark.parametrize("body, bad", [
    ("qreg q[\u0662]; h q[0];", "\u0662"),  # Arabic-Indic two
    ("qreg q[2]; rz(\u0661.\u0665) q[\u0660];", "\u0661"),
    ("qreg q[2]; rz(1.5) q[\u0660];", "\u0660"),
    ("qreg q[2]; cx q[0],q[\uff11];", "\uff11"),  # fullwidth one
    ("qreg q[2]; h\u00a0q[0];", "\u00a0"),  # no-break space
    ("qreg q[2]; cx q[0],\u2003q[1];", "\u2003"),  # em space
    ("qreg q[2]; h q[1];\u3000", "\u3000"),  # ideographic space
    ("qreg q[2]; h q[1];\x1c", "\x1c"),  # a separator `str.isspace` takes
])
def test_non_ascii_digits_and_spaces_are_syntax_errors(body, bad, monkeypatch):
    text = HEADER + body + "\n"
    got = _assert_paths_agree(text, monkeypatch)
    assert got == ("error", f"unexpected character {bad!r}", "syntax", 3, body.index(bad) + 1)


@settings(max_examples=300, deadline=None)
@given(_varied_programs())
def test_fast_path_matches_grammar_on_varied_text(text):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_paths_agree(text, monkeypatch)


def _large_program(statements: int) -> list[str]:
    rng = random.Random(11)
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[64];"]
    lines += [f"creg m{k}[1];" for k in range(16)]
    measured = 0
    while len(lines) < statements:
        a, b = rng.sample(range(64), 2)
        r = rng.random()
        if r < 0.4:
            lines.append(f"cx q[{a}],q[{b}];")
        elif r < 0.8:
            lines.append(f"rz({rng.uniform(-4, 4)!r}) q[{a}];")
        elif r < 0.9:
            lines.append(f"h q[{a}];")
        elif r < 0.95 and measured < 16:
            lines.append(f"measure q[{a}] -> m{measured}[0];")
            measured += 1
        elif measured:
            lines.append(f"if(m{rng.randrange(measured)}==1) x q[{a}];")
        else:
            lines.append(f"barrier q[{a}],q[{b}];")
    return lines


_CORRUPTIONS = [
    ("bad gate name", lambda line: "t q[3];", "unsupported-construct"),
    ("index out of range", lambda line: "h q[64];", "semantic"),
    ("duplicate operand", lambda line: "cx q[7],q[7];", "semantic"),
    ("stray character", lambda line: line[:2] + "@" + line[2:], "syntax"),
    ("missing semicolon", lambda line: line.replace(";", ""), "syntax"),
]


@pytest.mark.parametrize("corruption", _CORRUPTIONS, ids=[c[0] for c in _CORRUPTIONS])
def test_deep_corruption_reports_identical_error(corruption, monkeypatch):
    _, corrupt, kind = corruption
    lines = _large_program(20_000)
    at = random.Random(corruption[0]).randrange(15_000, 19_990)
    lines[at] = corrupt(lines[at])
    got = _assert_paths_agree("\n".join(lines) + "\n", monkeypatch)
    assert got[0] == "error" and got[2] == kind, got
    assert got[3] in (at + 1, at + 2), (got, at)  # a missing ';' shows on the next line


# -- fast-path coverage (counts, no wall clock) ---------------------------------


def _every_gate_kind(repeat: int) -> Circuit:
    body: list[Instruction] = []
    for k in range(repeat):
        a, b = k % 5, (k + 1) % 5
        body += [
            h(a), x(a), Instruction(Gate.Y, (a,)), Instruction(Gate.Z, (a,)),
            Instruction(Gate.RX, (a,), angle=-0.0), Instruction(Gate.RY, (a,), angle=1e-300),
            rz(a, -2.5e17), cx(a, b), Instruction(Gate.CZ, (a, b)),
        ]
    return Circuit(5, 0, tuple(body))


def test_fast_path_reads_every_gate_statement(monkeypatch):
    c = _every_gate_kind(4)
    reached = []
    statement = qasm._Parser.statement

    def counting(self):
        reached.append(self.peek().text)
        statement(self)

    monkeypatch.setattr(qasm._Parser, "statement", counting)
    text = emit(c)
    assert emit(parse(text)) == text
    assert reached == ["include", "qreg"]


def test_body_produces_no_tokens(monkeypatch):
    c = _every_gate_kind(1200)
    assert len(c) > 10_000
    text = emit(c)
    header = text[: text.index("\n", text.rindex("qreg")) + 1]
    scanned = 0
    scan = qasm._scan

    def counting(text, offset):
        nonlocal scanned
        scanned += 1
        return scan(text, offset)

    monkeypatch.setattr(qasm, "_scan", counting)
    parse(header)
    header_tokens, scanned = scanned, 0
    assert emit(parse(text)) == text
    assert scanned == header_tokens
