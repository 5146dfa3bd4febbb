"""The incremental depth gate (`ir.DepthIndex`), the scanner's in-place
accept and the use table they share (`ir.UseTable`), each against a
from-scratch reference: `depth_of` of the rewritten list, and indexes and
tables built anew on the list the accepts left.  Also the other depth
schedules - `stats`, each wire's front after `depth_of`, the index's
layers, and the window gate's sweep and join - against a reference that
takes every dependency pair by pair (`_reference_fronts`)."""
from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qshallow.chains import ChainKind, ChainScanner, _window
from qshallow.ghz import GhzMode, build_ghz_parallel, detect_ghz
from qshallow.ir import (
    Circuit,
    Condition,
    DepthIndex,
    DepthReport,
    Gate,
    Instruction,
    UseTable,
    barrier,
    cx,
    cz,
    depth,
    depth_joined,
    depth_of,
    h,
    measure,
    paths_of,
    rz,
    stats,
    x,
)
from qshallow.pipeline import DEPTH_SCOPE, ChainMode, PassConfig, _gate, _replacement_for, _sides

from chain_detection import find_chains

SPARE = 6  # qubits no body op touches, for GHZ blocks on fresh qubits


def _body(data, n: int, size: int, bits: list[int]) -> list[Instruction]:
    """Random ops on qubits 0..n-1: 1q gates, CX/CZ, barriers of any width,
    measurements onto fresh bits (appended to `bits`) and X gates under
    parity conditions of up to three bits, written before, after or never."""
    qubit = st.integers(0, n - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    body = []
    for _ in range(size):
        kind = data.draw(st.sampled_from(["h", "rz", "cx", "cx", "cz", "barrier", "measure", "if"]))
        if kind == "h" or kind in ("cx", "cz") and n < 2:
            body.append(h(data.draw(qubit)))
        elif kind == "rz":
            body.append(rz(data.draw(qubit), 0.5))
        elif kind in ("cx", "cz") and n >= 2:
            body.append((cx if kind == "cx" else cz)(*data.draw(pair)))
        elif kind == "barrier":
            body.append(barrier(*data.draw(st.lists(qubit, min_size=1, max_size=n, unique=True))))
        elif kind == "measure":
            bits.append(len(bits))
            body.append(measure(data.draw(qubit), bits[-1]))
        else:
            cond = data.draw(st.lists(st.integers(0, len(bits) + 1), min_size=1, max_size=3))
            body.append(x(data.draw(qubit), condition=Condition(tuple(cond))))
    return body


def _reference_fronts(ops) -> tuple[int, dict[int, int], list[int]]:
    """Depth, each wire's front (qubit q as q, bit b as ~b) and each op's
    layer from the dependencies taken pair by pair: an op's layer is the
    latest layer among the earlier ops that share a qubit with it or write a
    bit it reads or writes, plus one, or plus none for a barrier.
    O(len(ops)**2)."""
    layers: list[int] = []
    for i, op in enumerate(ops):
        bits = set(op.condition.bits) if op.condition is not None else set()
        if op.clbit is not None:
            bits.add(op.clbit)
        before = [
            layers[j]
            for j, prev in enumerate(ops[:i])
            if set(prev.qubits) & set(op.qubits) or prev.clbit is not None and prev.clbit in bits
        ]
        layers.append(max(before, default=0) + (op.gate is not Gate.BARRIER))
    fronts: dict[int, int] = {}
    for op, layer in zip(ops, layers):
        for q in op.qubits:
            fronts[q] = layer
        if op.clbit is not None:
            fronts[~op.clbit] = layer
    return max(layers, default=0), fronts, layers


def _table_view(table: UseTable, start: int):
    """The positions the table lists per wire from position `start` on."""
    n = table.n
    uses = {w: [n - v for v in u if n - v >= start] for w, u in table.by_wire.items()}
    return {w: p for w, p in uses.items() if p}


def _depth_view(index: DepthIndex, ins, start: int):
    """Everything the index holds about positions `start` on, layers in full,
    and the use table it reads."""
    n = len(ins)
    index._learn(ins, n)
    return (
        index.depth,
        list(index._layer),
        list(index._tail[start:]),
        _table_view(index.uses, start),
        {b: n - v for b, v in index._writer.items() if n - v >= start},
    )


def _scan_view(scanner: ChainScanner, start: int):
    """The use table the scanner reads from position `start` on, barriers
    included, as positions."""
    table = scanner.uses
    return (
        _table_view(table, start),
        [table.n - v for v in table.barriers if table.n - v >= start],
    )


def _runs_view(table: UseTable, w: int):
    """Wire w's uses in the table, each as (position, letter, position of the
    first later use with another letter or None), in position order."""
    n, u, r = table.n, table.by_wire[w], table.runs[w]
    return sorted(
        (n - u[k], r[k] & 7, n - u[(r[k] >> 3) - 1] if r[k] >> 3 else None)
        for k in range(len(u))
    )


def _expected_runs(ins, w: int, start: int):
    """`_runs_view` worked out from the list: wire w's uses from `start` on."""
    uses = [
        (p, op.letters[op.wires.index(w)])
        for p, op in enumerate(ins)
        if p >= start and w in op.wires
    ]
    return [
        (p, letter, next((q for q, other in uses[i + 1 :] if other != letter), None))
        for i, (p, letter) in enumerate(uses)
    ]


def _assert_table_refreshed(table: UseTable, ins, start: int) -> None:
    """The table holds just what a fresh build lists from `start` on, the
    barriers too, and every wire's letter runs built so far are those of
    the list."""
    n, fresh = len(ins), UseTable(ins)
    assert table.n == n
    assert _table_view(table, 0) == _table_view(fresh, start)
    assert [n - v for v in table.barriers] == [n - v for v in fresh.barriers if n - v >= start]
    for w in table.runs:
        assert _runs_view(table, w) == _expected_runs(ins, w, start), w


def _assert_layers_exact(index: DepthIndex, ins) -> None:
    """The layers a built index learns over `ins` from its cut on - what it
    reads again - are the reference's; learned on a copy, so that the index
    itself goes on learning only as far as its rewrites ask."""
    probe = copy.deepcopy(index)
    probe._learn(ins, len(ins))
    cut = probe._cut
    assert list(probe._layer[cut:]) == _reference_fronts(ins)[2][cut:]


def _fresh_index(ins) -> DepthIndex:
    index = DepthIndex()
    index._build(ins)
    return index


def test_gate_and_accept_match_depth_of(monkeypatch):
    # Both deciders are exercised: the lower bound refuses some rewrites,
    # and the walk decides the rest.
    decided = Counter()
    outgrows = DepthIndex._outgrows

    def counting(*args):
        refused = outgrows(*args)
        decided["bound" if refused else "walk"] += 1
        return refused

    monkeypatch.setattr(DepthIndex, "_outgrows", counting)
    _gate_and_accept_match_depth_of()
    assert decided["bound"] > 100 and decided["walk"] > 100, decided


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def _gate_and_accept_match_depth_of(data):
    n = data.draw(st.integers(1, 6))
    bits: list[int] = []
    ins = first = _body(data, n, data.draw(st.integers(1, 30)), bits)
    fresh_q, fresh_b = n, len(bits) + 2
    index = DepthIndex()
    index.uses_of(ins)  # the list's owner reads the table before any accept
    floor = last_accept = 0
    for _ in range(data.draw(st.integers(1, 6))):
        if floor >= len(ins):
            break
        start = data.draw(st.integers(floor, len(ins) - 1))
        end = data.draw(st.integers(start, min(len(ins) - 1, start + 10)))
        removed = sorted(data.draw(st.sets(st.integers(start, end), min_size=1)))
        moved = [i for i in removed if data.draw(st.booleans())]
        kind = data.draw(st.sampled_from(["chain", "ghz", "empty"]))
        if kind == "chain" and n >= 2:
            qubits = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            block = [cx(*data.draw(qubits)) for _ in range(data.draw(st.integers(1, 4)))]
        elif kind == "ghz" and fresh_q + 3 <= n + SPARE:
            members = range(fresh_q, fresh_q + 3)
            block = build_ghz_parallel(members, [fresh_b])
            fresh_q, fresh_b = fresh_q + 3, fresh_b + 1
        else:
            block = []
        block += [ins[i] for i in moved]  # moved-after ops, measurements among them
        gone = set(removed)
        window = [ins[i] for i in range(start, end + 1) if i not in gone] + block
        rewritten = ins[:start] + window + ins[end + 1 :]
        base = depth_of(ins)
        # An accept may come before the first `admits`: the index is then
        # built past the table's cut.
        if index.built or data.draw(st.booleans()):
            assert index.admits(ins, start, end, removed, block) == (depth_of(rewritten) <= base)
            assert index.depth == base
            _assert_layers_exact(index, ins)
        if data.draw(st.booleans()):
            index.accept(ins, start, end, window)
            index.uses.splice(ins, start, end, window)  # as the list's owner does
            ins = rewritten
            assert not index.built or index.depth == depth_of(ins)
            if index.built:
                _assert_layers_exact(index, ins)
            floor = last_accept = start
            _assert_table_refreshed(index.uses, ins, last_accept)
        else:
            floor = data.draw(st.integers(start, start + 1))
    if index.built_depth is not None:
        assert index.built_depth == depth_of(first)  # the list it was built from
        assert _depth_view(index, ins, last_accept) == _depth_view(_fresh_index(ins), ins, last_accept)


def _chain_rich(data) -> Circuit:
    """CX and CZ chains over a few qubits, broken up by random ops."""
    n = data.draw(st.integers(3, 7))
    bits: list[int] = []
    body = []
    for _ in range(data.draw(st.integers(1, 5))):
        seq = data.draw(st.permutations(range(n)))[: data.draw(st.integers(3, n))]
        gate = data.draw(st.sampled_from([cx, cz]))
        for a, b in zip(seq, seq[1:]):
            body.append(gate(a, b))
            body += _body(data, n, data.draw(st.integers(0, 2)), bits)
    return Circuit(n, len(bits) + 2, tuple(body))


@pytest.mark.parametrize("mode", [ChainMode.CONSERVATIVE, ChainMode.ALWAYS], ids=lambda m: m.value)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_scanner_and_gate_refresh_match_a_rebuild(mode, data):
    # Conservative: the scanner and the gate share one table, which only the
    # scanner's accept refreshes.  Always: the scanner reads its table alone.
    c = _chain_rich(data)
    cz_to_cx = data.draw(st.booleans())
    index = DepthIndex() if mode is ChainMode.CONSERVATIVE else None
    scanner = ChainScanner(c, 2, UseTable if index is None else index.uses_of)
    last_accept = 0
    while (cand := scanner.next()) is not None:
        ins = scanner.instructions
        replacement = _replacement_for(cand, PassConfig(cz_to_cx=cz_to_cx))
        moved = [ins[i] for i in cand.moved_after]
        window = _window(ins, cand, replacement)
        rewritten = ins[: cand.start_index] + window + ins[cand.end_index + 1 :]
        if index is not None:
            removed = (*cand.gate_indices, *cand.moved_after)
            verdict = index.admits(
                ins, cand.start_index, cand.end_index, removed, [*replacement, *moved]
            )
            assert verdict == (depth_of(rewritten) <= depth_of(ins))
        if not data.draw(st.booleans()):
            scanner.skip()
            continue
        if index is not None:
            index.accept(ins, cand.start_index, cand.end_index, window)
        scanner.accept(window)
        assert scanner.instructions == rewritten
        last_accept = cand.start_index
        _assert_table_refreshed(scanner.uses, rewritten, last_accept)
        rebuilt = ChainScanner(Circuit(c.num_qubits, c.num_clbits, tuple(rewritten)), 2)
        assert _scan_view(scanner, last_accept) == _scan_view(rebuilt, last_accept)
        if index is not None:
            assert index.uses is scanner.uses
            assert index.depth == depth_of(rewritten)
    ins = scanner.instructions
    if index is not None and index.built_depth is not None:
        assert _depth_view(index, ins, last_accept) == _depth_view(_fresh_index(ins), ins, last_accept)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_letter_runs_follow_splices(data):
    # Runs built on demand, before or between splices with non-decreasing
    # starts, equal the letters and run ends worked out from the list.
    n = data.draw(st.integers(1, 5))
    bits: list[int] = []
    ins = _body(data, n, data.draw(st.integers(1, 30)), bits)
    table = UseTable(ins)
    start = 0
    for _ in range(data.draw(st.integers(1, 4))):
        for w in data.draw(st.lists(st.sampled_from(sorted(table.by_wire)), max_size=4)):
            table.runs_of(w, ins)
        _assert_table_refreshed(table, ins, start)
        if start >= len(ins):
            break
        start = data.draw(st.integers(start, len(ins) - 1))
        end = data.draw(st.integers(start, len(ins) - 1))
        window = _body(data, n, data.draw(st.integers(0, 6)), bits)
        table.splice(ins, start, end, window)
        ins = [*ins[:start], *window, *ins[end + 1 :]]
    _assert_table_refreshed(table, ins, start)


def test_moved_after_measurement_is_gated_exactly():
    # measure(1) sits between the chain's gates on a non-head chain qubit, so
    # it moves after the chain; the reader of its bit comes later still.
    body = [cx(0, 1), cx(1, 2), measure(1, 0), cx(2, 3), cx(3, 4), cx(4, 5),
            x(0, condition=Condition((0,))), barrier(0, 5), h(5)]
    c = Circuit(6, 1, tuple(body))
    scanner = ChainScanner(c, 2)
    cand = scanner.next()
    assert cand.moved_after == (2,)
    ins = scanner.instructions
    replacement = _replacement_for(cand, PassConfig())
    window = _window(ins, cand, replacement)
    rewritten = [*ins[: cand.start_index], *window, *ins[cand.end_index + 1 :]]
    assert window == [*replacement, ins[2]]  # no op stays in the window
    index = DepthIndex()
    assert index.admits(ins, 0, cand.end_index, (*cand.gate_indices, 2), window) == (
        depth_of(rewritten) <= depth_of(ins)
    )
    index.accept(ins, 0, cand.end_index, window)
    assert index.depth == depth_of(rewritten)


def _check_rewrites(ins, start, end, rewrites):
    for removed, block in rewrites:
        gone = set(removed)
        window = [ins[i] for i in range(start, end + 1) if i not in gone] + block
        rewritten = [*ins[:start], *window, *ins[end + 1 :]]
        index = DepthIndex()
        assert index.admits(ins, start, end, removed, block) == (
            depth_of(rewritten) <= depth_of(ins)
        )
        index.accept(ins, start, end, window)
        assert index.depth == depth_of(rewritten)


def test_reader_waits_for_its_writer():
    # x reads bit 0, written at layer 7 on qubit 2.  Taking cx(0, 1) out
    # leaves the reader where its bit holds it, so every h(0) placed after it
    # deepens the circuit, whether the reader stays or moves into the block.
    ins = [*[h(2)] * 6, measure(2, 0), cx(0, 1), x(0, condition=Condition((0,)))]
    assert depth_of(ins) == 8
    _check_rewrites(ins, 7, 8, [((7,), [h(0)]), ((7, 8), [ins[8], h(0)]), ((7,), [])])
    # Here the reader sits before the window on qubit 1, and cx(0, 1), which
    # the rewrite moves, waits for it through that clean wire.
    ins = [*[h(2)] * 6, measure(2, 0), x(1, condition=Condition((0,))), cx(0, 3), cx(0, 1)]
    assert depth_of(ins) == 9
    _check_rewrites(ins, 8, 9, [((8,), [h(0)]), ((8,), [])])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_stats_match_the_reference(data):
    n = data.draw(st.integers(1, 6))
    bits: list[int] = []
    body = _body(data, n, data.draw(st.integers(0, 40)), bits)
    c = Circuit(n, len(bits) + 2, tuple(body))
    gates = [op for op in c.instructions if op.gate not in (Gate.MEASURE, Gate.BARRIER)]
    want = DepthReport(
        _reference_fronts(c.instructions)[0],
        len(gates),
        sum(op.gate.arity == 2 for op in gates),
        sum(op.gate is Gate.MEASURE for op in c.instructions),
    )
    assert stats(c) == want
    assert depth(c) == want.depth


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_window_join_matches_depth_of(data):
    # Any split of a list, each bit written once in all: the head's fronts
    # joined with the tail's paths give the depth of the whole.
    n = data.draw(st.integers(1, 6))
    bits: list[int] = []
    head = _body(data, n, data.draw(st.integers(0, 20)), bits)
    tail = _body(data, n, data.draw(st.integers(0, 20)), bits)
    fronts: dict[int, int] = {}
    schedule = (depth_of(head, fronts), fronts)
    assert schedule == _reference_fronts(head)[:2]
    top, paths = paths_of(tail)
    assert top == _reference_fronts(tail)[0]
    # A qubit's path: what a run longer than the tail on that qubit alone,
    # put before it, adds to the run.
    run = len(tail) + 1
    for q in range(n):
        if any(q in op.qubits for op in tail):
            assert paths[q] == _reference_fronts([*[h(q)] * run, *tail])[0] - run
    joined = depth_joined(schedule, (top, paths))
    assert joined == _reference_fronts([*head, *tail])[0] == depth_of([*head, *tail])


def test_window_join_crosses_at_a_bit():
    # Only the measured bit carries the longest path into the tail.
    head = [h(0), h(0), h(0), measure(0, 0)]
    tail = [x(1, condition=Condition((0,)))]
    fronts: dict[int, int] = {}
    assert depth_of([*head, *tail]) == 5
    assert depth_joined((depth_of(head, fronts), fronts), paths_of(tail)) == 5


# -- a GHZ site's window settles it when it reaches the list end ----------------


class _AskedIndex(DepthIndex):
    """A depth index that counts the `admits` calls made of it."""

    def __init__(self) -> None:
        super().__init__()
        self.asked = 0

    def admits(self, *args) -> bool:
        self.asked += 1
        return super().admits(*args)


def _ghz_among_others(data) -> Circuit:
    """GHZ sites, chains and fan-outs, on qubits no earlier op touches, and
    CX ladders on other qubits, after a prefix and interleaved with other
    ops; then a suffix over every qubit, shorter or longer than
    `DEPTH_SCOPE`.  Each bit is written once."""
    n = data.draw(st.integers(2, 8))
    bits: list[int] = []
    body = _body(data, n, data.draw(st.integers(0, 12)), bits)
    fresh = n
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):  # a ladder, repeated as in a layered ansatz
            seq = data.draw(st.permutations(range(n)))
            gates = [cx(a, b) for a, b in zip(seq, seq[1:])] * data.draw(st.integers(1, 3))
        else:
            members = range(fresh, fresh + data.draw(st.integers(2, 10)))
            fresh = members.stop
            fanout = data.draw(st.booleans())
            links = zip(members, members[1:])
            gates = [h(members[0]), *(cx(members[0] if fanout else a, b) for a, b in links)]
        between = data.draw(st.integers(0, 3))
        for op in gates:
            body.append(op)
            body += _body(data, n, data.draw(st.integers(0, between)), bits)
    body += _body(data, fresh, data.draw(st.integers(0, 15)), bits)
    # A shallow tail, repeated, that ends well inside the scope or near its
    # edge, on either side.
    pad = [op for op in _body(data, fresh, data.draw(st.integers(0, 4)), bits) if op.clbit is None]
    pad += [rz(q, 0.5) for q in range(fresh)]
    length = data.draw(st.integers(0, 20) | st.integers(DEPTH_SCOPE - 10, DEPTH_SCOPE + 40))
    body += (pad * length)[:length]
    return Circuit(fresh, len(bits) + 2, tuple(body))


def test_ghz_window_at_the_list_end_is_exact():
    # The window test alone accepts a GHZ site whose tail reaches the list
    # end: every such accept is one the depth index admits too.  Where the
    # scope cuts the tail, the gate asks the index.  Chains always ask: a
    # ladder repeated at the list end can win its window and still deepen
    # the list.
    taken = Counter()
    _ghz_window_at_the_list_end_is_exact(taken)
    assert taken["shortcut"] >= 100 and taken["ghz", "cut"] >= 20, taken


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def _ghz_window_at_the_list_end_is_exact(taken: Counter, data):
    c = _ghz_among_others(data)
    ins = c.instructions
    configs = [PassConfig(ghz_mode=m, min_chain_gates=2) for m in (GhzMode.ROBUST, GhzMode.PARALLEL)]
    candidates = [(site, cfg) for site in find_chains(c, sites=detect_ghz, chains=False)
                  for cfg in configs]
    candidates += [(chain, configs[0]) for chain in find_chains(c, 2)]
    for cand, config in candidates:
        replacement = _replacement_for(cand, config, c.num_clbits)
        index = _AskedIndex()
        sides = _sides(ins, cand, replacement)
        decision = _gate(ins, cand, replacement, ChainMode.CONSERVATIVE, index, sides)
        if decision.depth_after >= decision.depth_before or replacement is None:
            continue  # the window refuses it
        if not index.asked:
            block = [*replacement, *(ins[i] for i in cand.moved_after)]
            removed = (*cand.gate_indices, *cand.moved_after)
            assert decision.applied
            assert DepthIndex().admits(ins, cand.start_index, cand.end_index, removed, block)
            taken["shortcut"] += 1
        cut = len(ins) - cand.end_index - 1 > DEPTH_SCOPE
        if cand.kind is not ChainKind.GHZ or cut:
            assert index.asked == 1
            taken[cand.kind.value, "cut" if cut else "end"] += 1
