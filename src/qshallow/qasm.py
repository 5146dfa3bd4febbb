"""OpenQASM 2.0 reader and writer for the supported gate subset.

Supported statements: the `OPENQASM 2.0;` header, an optional
`include "qelib1.inc";`, `qreg`/`creg` declarations, the gates h x y z rx ry
rz cx cz, `measure q -> c;`, `barrier ...;`, and `if(c==1) <gate> ...;` on
one-bit classical registers.  All quantum registers are flattened into one
global qubit index space in declaration order, classical registers likewise.

The reader takes one statement at a time from a text offset.  It first tries
the fast path: one compiled regex matching a whole gate statement on indexed
qubits, with an optional plain real angle (`h q[i];`, `rz(<real>) q[i];`,
`cx a[i],b[j];`).  The match is resolved against the register tables with
every check the grammar makes.  A statement that does not match, or that
would fail a check, goes to the grammar instead: a recursive-descent reader
over tokens scanned lazily from the same offset.  The grammar also reads the
header, the register declarations, `measure`, `barrier`, `if` and the rarer
gate forms (`pi` angles, register broadcast, comments inside a statement).
The fast path never raises, so every ParseError comes from the grammar and
its message, kind and span do not depend on the path.  No token list of the
whole file is ever built; line and column are computed from the offset only
when an error is raised.  Digits and spaces are ASCII only, on both paths.

The fast path resolves each statement shape - gate name, whether an angle is
present, operands - once per parse: a repeated gate appends one shared
`Instruction`, and a rotation still reads and checks its own angle.  A
failed resolution is never kept, so that statement reaches the grammar.

The writer formats the angle-free text of each distinct gate and operand
list once per call; a rotation's angle is formatted per statement, inline,
with no call per statement.  It reads each gate's name from the plain
`Gate.qasm_name`, not through the enum's `value` descriptor.

On emission every classical bit that a condition reads becomes its own
one-bit register, so single-bit `if` comparisons stay expressible; each run
of the other bits between them becomes one register.  Registers are declared
in bit order and named m<k> after their first bit k, so re-parsing keeps the
flat bit numbering.  A parity condition over k bits is lowered to k
consecutive single-bit-conditioned copies of the gate (exact for the
self-inverse gates the rewrite passes emit, since X^m1 · X^m2 = X^(m1 xor m2));
`lowered` states the rule, and the file is scheduled as its result.
"""
from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .ir import Circuit, Condition, Gate, Instruction


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int


class ParseError(Exception):
    """Raised for any malformed/unsupported input; kind is one of
    'syntax', 'unsupported-construct' or 'semantic'."""

    def __init__(self, message: str, span: SourceSpan, kind: str = "syntax"):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span
        self.kind = kind


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1)


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_REAL = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"
_INT = r"\d+"
_TOKEN_RE = re.compile(
    rf"""
      (?P<WS>\s+)
    | (?P<COMMENT>//[^\n]*)
    | (?P<REAL>{_REAL})
    | (?P<INT>{_INT})
    | (?P<ID>{_ID})
    | (?P<STRING>"[^"\n]*")
    | (?P<ARROW>->)
    | (?P<EQ>==)
    | (?P<PUNCT>[;,\[\]()*/+{{}}-])
    """,
    re.VERBOSE | re.ASCII,
)

# The unitary gates, by name: looked up by string, so no enum member is hashed.
_GATE_BY_NAME = {g.qasm_name: g for g in Gate if g.letters}


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _scan(text: str, offset: int) -> _Token:
    """The next token at or after `offset`, skipping whitespace and comments."""
    end = len(text)
    while offset < end:
        m = _TOKEN_RE.match(text, offset)
        if m is None:
            raise ParseError(f"unexpected character {text[offset]!r}", _span(text, offset))
        kind = m.lastgroup
        if kind != "WS" and kind != "COMMENT":
            return _Token(kind, m.group(), offset)
        offset = m.end()
    return _Token("EOF", "", end)


# Fast path: one regex matches one whole gate statement, leading whitespace
# included.  An operand is `reg[i]` with at most nine digits, so `int` never
# sees a long digit string; the angle is a signed REAL or INT literal exactly
# as the tokenizer reads it.
_OPERAND = rf"({_ID})\[(\d{{1,9}})\]"
_FAST_GATE = re.compile(
    rf"\s*([a-z]+)(?:\(([+-]?(?:{_REAL}|{_INT}))\)\s*|\s+){_OPERAND}(?:\s*,\s*{_OPERAND})?\s*;",
    re.ASCII,
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.offset = 0  # start of the next unread token or statement
        self.lookahead: _Token | None = None
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        self.instructions: list[Instruction] = []
        self.written_clbits: set[int] = set()
        #: Fast-path resolutions by statement shape; see `fast_statements`.
        self._resolved: dict[tuple, Instruction | tuple[Gate, tuple[int, ...]]] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        if self.lookahead is None:
            self.lookahead = _scan(self.text, self.offset)
        return self.lookahead

    def advance(self) -> _Token:
        tok = self.peek()
        self.lookahead = None
        self.offset = tok.offset + len(tok.text)
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.advance()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind.lower()
            raise self.error(f"expected {want!r}, found {tok.text!r}", tok, "syntax")
        return tok

    def error(self, message: str, tok: _Token, kind: str) -> ParseError:
        return ParseError(message, _span(self.text, tok.offset), kind)

    # -- fast path ----------------------------------------------------------

    def fast_statements(self) -> None:
        """Read gate statements from the offset until one needs the grammar.

        Leaves the offset at the start of that statement (or at the end of
        the text) and changes no state for it.  Each statement shape is
        resolved once per parse, as the module note says.
        """
        text = self.text
        append = self.instructions.append
        gate_match = _FAST_GATE.match
        resolved = self._resolved
        pos = self.offset
        while (m := gate_match(text, pos)) is not None:
            name, angle_text, reg0, idx0, reg1, idx1 = m.groups()
            shape = (name, angle_text is not None, reg0, idx0, reg1, idx1)
            hit = resolved.get(shape)
            if hit is None:
                hit = self._fast_resolve(*shape)
                if hit is None:
                    break
                resolved[shape] = hit
            if angle_text is None:
                append(hit)
            else:
                angle = float(angle_text)
                if not math.isfinite(angle):
                    break
                append(Instruction(hit[0], hit[1], angle))
            pos = m.end()
        self.offset = pos

    def _fast_qubit(self, name: str, index: str) -> int | None:
        entry = self.qregs.get(name)
        if entry is None or int(index) >= entry[1]:
            return None
        return entry[0] + int(index)

    def _fast_resolve(
        self, name: str, has_angle: bool, reg0: str, idx0: str,
        reg1: str | None, idx1: str | None,
    ) -> Instruction | tuple[Gate, tuple[int, ...]] | None:
        """A fast-path match checked against the register tables: the
        `Instruction`, or a rotation's gate and qubits; None if the grammar
        must read it.  Registers are never redeclared, so a resolution holds
        for the rest of the parse."""
        gate = _GATE_BY_NAME.get(name)
        if gate is None:
            return None
        rotation, two_qubit = gate.is_rotation, gate.arity == 2
        if has_angle != rotation or (reg1 is not None) != two_qubit:
            return None
        q0 = self._fast_qubit(reg0, idx0)
        if q0 is None:
            return None
        if rotation:
            return gate, (q0,)
        if not two_qubit:
            return Instruction(gate, (q0,))
        q1 = self._fast_qubit(reg1, idx1)
        if q1 is None or q1 == q0:
            return None
        return Instruction(gate, (q0, q1))

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Circuit:
        head = self.expect("ID", "OPENQASM")
        version = self.expect("REAL")
        if version.text != "2.0":
            raise self.error(
                f"unsupported OPENQASM version {version.text}", version,
                "unsupported-construct",
            )
        self.expect("PUNCT", ";")
        while True:
            self.fast_statements()
            if self.peek().kind == "EOF":
                break
            self.statement()
        try:  # defense in depth; statement checks should catch these first
            return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))
        except ValueError as exc:
            raise self.error(str(exc), head, "semantic") from exc

    def statement(self) -> None:
        tok = self.peek()
        if tok.kind != "ID":
            raise self.error(f"expected a statement, found {tok.text!r}", tok, "syntax")
        if tok.text == "include":
            self.include()
        elif tok.text in ("qreg", "creg"):
            self.register_decl()
        elif tok.text == "measure":
            self.instructions.append(self.measure_stmt())
        elif tok.text == "barrier":
            self.barrier_stmt()
        elif tok.text == "if":
            self.if_stmt()
        else:
            self.gate_stmt(condition=None)

    def include(self) -> None:
        self.advance()
        target = self.expect("STRING")
        if target.text != '"qelib1.inc"':
            raise self.error(
                f"unsupported include {target.text}", target, "unsupported-construct"
            )
        self.expect("PUNCT", ";")

    def register_decl(self) -> None:
        kw = self.advance()
        name = self.expect("ID")
        self.expect("PUNCT", "[")
        size_tok = self.expect("INT")
        self.expect("PUNCT", "]")
        self.expect("PUNCT", ";")
        size = self._int(size_tok)
        if size < 1:
            raise self.error("register size must be positive", size_tok, "semantic")
        if name.text in self.qregs or name.text in self.cregs:
            raise self.error(f"register {name.text!r} redeclared", name, "semantic")
        if kw.text == "qreg":
            self.qregs[name.text] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name.text] = (self.num_clbits, size)
            self.num_clbits += size

    def _int(self, tok: _Token) -> int:
        """Value of an INT token; `int()` refuses literals past Python's digit limit."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.error(
                f"integer literal of {len(tok.text)} digits is too long", tok, "semantic"
            ) from None

    def _argument(self, table: dict[str, tuple[int, int]], what: str) -> list[int]:
        """One `reg[i]` or bare `reg` argument, flattened to global indices."""
        name = self.expect("ID")
        if name.text not in table:
            raise self.error(f"undeclared {what} register {name.text!r}", name, "semantic")
        offset, size = table[name.text]
        if self.peek().kind == "PUNCT" and self.peek().text == "[":
            self.advance()
            idx_tok = self.expect("INT")
            self.expect("PUNCT", "]")
            idx = self._int(idx_tok)
            if idx >= size:
                raise self.error(
                    f"index {idx} out of range for {name.text}[{size}]",
                    idx_tok, "semantic",
                )
            return [offset + idx]
        return [offset + i for i in range(size)]

    def measure_stmt(self) -> Instruction:
        kw = self.advance()
        src = self._argument(self.qregs, "quantum")
        self.expect("ARROW")
        dst = self._argument(self.cregs, "classical")
        self.expect("PUNCT", ";")
        if len(src) != 1 or len(dst) != 1:
            raise self.error(
                "broadcast measurement is not supported; measure one qubit at a time",
                kw, "unsupported-construct",
            )
        if dst[0] in self.written_clbits:
            raise self.error(
                f"classical bit {dst[0]} written more than once", kw, "semantic"
            )
        self.written_clbits.add(dst[0])
        return Instruction(Gate.MEASURE, (src[0],), clbit=dst[0])

    def barrier_stmt(self) -> None:
        kw = self.advance()
        qubits: list[int] = []
        while True:
            qubits.extend(self._argument(self.qregs, "quantum"))
            if self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect("PUNCT", ";")
        if len(set(qubits)) != len(qubits):
            raise self.error("duplicate operand", kw, "semantic")
        self.instructions.append(Instruction(Gate.BARRIER, tuple(qubits)))

    def if_stmt(self) -> None:
        kw = self.advance()
        self.expect("PUNCT", "(")
        creg = self.expect("ID")
        if creg.text not in self.cregs:
            raise self.error(
                f"undeclared classical register {creg.text!r}", creg, "semantic"
            )
        self.expect("EQ")
        value_tok = self.expect("INT")
        self.expect("PUNCT", ")")
        offset, size = self.cregs[creg.text]
        if size != 1 or value_tok.text != "1":
            raise self.error(
                "only `if(c==1)` on one-bit classical registers is supported",
                kw, "unsupported-construct",
            )
        head = self.peek()
        if head.kind == "ID" and head.text in ("measure", "barrier", "if"):
            raise self.error(
                f"conditioned {head.text} is not supported", head,
                "unsupported-construct",
            )
        self.gate_stmt(condition=Condition((offset,)))

    def gate_stmt(self, condition: Condition | None) -> None:
        name = self.advance()
        gate = _GATE_BY_NAME.get(name.text)
        if gate is None:
            raise self.error(
                f"gate {name.text!r} is outside the supported subset",
                name, "unsupported-construct",
            )
        angle: float | None = None
        if self.peek().text == "(":
            if not gate.is_rotation:
                raise self.error(
                    f"gate {name.text!r} takes no parameter", name, "semantic"
                )
            self.advance()
            angle = self._angle_expr()
            self.expect("PUNCT", ")")
        elif gate.is_rotation:
            raise self.error(f"gate {name.text!r} needs an angle", name, "semantic")

        args: list[list[int]] = []
        while True:
            args.append(self._argument(self.qregs, "quantum"))
            if self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect("PUNCT", ";")

        if len(args) != gate.arity:
            raise self.error(
                f"gate {name.text!r} expects {gate.arity} argument(s), got {len(args)}",
                name, "semantic",
            )
        if gate.arity == 2:
            if len(args[0]) != 1 or len(args[1]) != 1:
                raise self.error(
                    "register broadcast is not supported for two-qubit gates",
                    name, "unsupported-construct",
                )
            operands = (args[0][0], args[1][0])
            if operands[0] == operands[1]:
                raise self.error("duplicate operand", name, "semantic")
            self.instructions.append(
                Instruction(gate, operands, condition=condition)
            )
        else:
            for q in args[0]:  # bare register broadcasts a single-qubit gate
                self.instructions.append(
                    Instruction(gate, (q,), angle=angle, condition=condition)
                )

    def _angle_expr(self) -> float:
        """Angle literal: real, integer, pi, int*pi, pi/int, int*pi/int, signed.

        The value must be finite; a zero divisor is rejected."""
        sign = 1.0
        if self.peek().text in ("-", "+"):
            sign = -1.0 if self.advance().text == "-" else 1.0
        tok = self.advance()
        if tok.kind == "REAL":
            value = float(tok.text)
        elif tok.kind == "INT":
            value = float(tok.text)
            if self.peek().text == "*":
                self.advance()
                self.expect("ID", "pi")
                value *= math.pi
                if self.peek().text == "/":
                    self.advance()
                    value /= self._divisor()
        elif tok.kind == "ID" and tok.text == "pi":
            value = math.pi
            if self.peek().text == "/":
                self.advance()
                value /= self._divisor()
        else:
            raise self.error(f"malformed angle near {tok.text!r}", tok, "syntax")
        if not math.isfinite(value):
            raise self.error(f"angle near {tok.text!r} is not finite", tok, "semantic")
        return sign * value

    def _divisor(self) -> float:
        tok = self.expect("INT")
        divisor = float(tok.text)
        if divisor == 0:
            raise self.error("division by zero in angle", tok, "semantic")
        return divisor


def parse(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a Circuit; raises ParseError otherwise."""
    return _Parser(text).parse()


def lowered(ins: Instruction) -> tuple[Instruction, ...]:
    """`ins` as `emit` writes it: a gate on a k-bit parity condition as k
    copies, each conditioned on one of the bits (see the module note)."""
    cond = ins.condition
    if cond is None or len(cond.bits) == 1:
        return (ins,)
    if ins.gate.is_rotation:
        raise ValueError(
            "multi-bit parity conditions on rotations cannot be lowered "
            "to single-bit conditionals"
        )
    return tuple(Instruction(ins.gate, ins.qubits, condition=Condition((b,))) for b in cond.bits)


def emit(c: Circuit) -> str:
    """Deterministic QASM text; re-parsing reproduces every condition-free
    instruction exactly.  Parity conditions are lowered per the module note."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if c.num_qubits > 0:
        lines.append(f"qreg q[{c.num_qubits}];")
    bits = c.num_clbits
    read = {b for ins in c.instructions if ins.condition is not None for b in ins.condition.bits}
    # The first bit of each register: every read bit, and each run of others.
    firsts = sorted({0, *read, *(b + 1 for b in read)} - {bits}) if bits else []
    for first, end in zip(firsts, [*firsts[1:], bits]):
        lines.append(f"creg m{first}[{end - first}];")
    # Per gate name and qubits, the text that does not depend on the angle:
    # the whole statement, or what follows a rotation's angle.  The key
    # hashes the name, not the `Gate`; an angle, -0.0 included, is formatted
    # every time.
    fixed: dict[tuple[str, tuple[int, ...]], str] = {}
    append = lines.append
    for ins in c.instructions:
        gate = ins.gate
        if gate.letters:  # a unitary gate
            name = gate.qasm_name
            key = (name, ins.qubits)
            text = fixed.get(key)
            if text is None:
                operands = ",".join(f"q[{q}]" for q in ins.qubits)
                text = fixed[key] = f") {operands};" if gate.is_rotation else f"{name} {operands};"
            if gate.is_rotation:
                text = f"{name}({ins.angle:.17g}{text}"
            if ins.condition is None:
                append(text)
                continue
            for op in lowered(ins):
                append(f"if(m{op.condition.bits[0]}==1) {text}")
        elif gate is Gate.MEASURE:
            first = firsts[bisect_right(firsts, ins.clbit) - 1]
            append(f"measure q[{ins.qubits[0]}] -> m{first}[{ins.clbit - first}];")
        else:
            operands = ",".join(f"q[{q}]" for q in ins.qubits)
            append(f"barrier {operands};")
    return "\n".join(lines) + "\n"
