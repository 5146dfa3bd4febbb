"""Detection and decomposition of CX and CZ entangling chains.

A chain is a run of two-qubit gates linked by their operands: for CX the next
gate's control is the previous gate's target; for CZ consecutive gates share
one endpoint.  Linkage is what matters, not qubit numbering, so ascending and
descending index patterns are the same structure and share one decomposition.

The scanner tolerates interleaved gates that can be displaced out of the chain
window: an operation may move before the chain if it commutes with every chain
gate (and every deferred operation) it would cross leftwards, or after the
chain if it commutes with everything it crosses rightwards; an operation that
can move neither way ends the chain.

Commutation is a per-wire property.  An operation carries one letter per wire
it uses (`ir.Letter`, read off `Gate.letters` by operand position): Z for a
CX control, CZ, z and rz; X for a CX target, x and rx; Y for y and ry; H for
h; OPAQUE on every qubit of a measurement, a barrier or a conditioned
operation.  A condition READs its bits; the bit a measurement writes is
OPAQUE.  Two operations commute exactly when every wire they share carries
the same letter in both and that letter is not OPAQUE (`commutes`, checked
against the brute-force oracle).  A growth merges all it holds into one
letter per wire, a mixed wire turning OPAQUE, so testing an operation against
the chain and every deferred operation costs O(its wires).

Growth visits only the operations that can matter.  It starts with the
adjacent run: while the next op in the list extends the chain, it is taken
at once - it is the op any walk would yield next, and with nothing deferred
no check can refuse it - so a ladder whose links follow one another, as a
layered ansatz's do, grows without the structures below.  After the run,
and again after every extension, growth is over unless the head can still
reach a link: a walk along the head wire's own uses, over those it lets
through, to its first possible link (`_Growth.can_link`).  Otherwise the
walk takes over at the op that ended the run.  A wire - a qubit or a
classical bit - is active while the chain or one of its deferred
operations uses it; an operation on no active wire commutes with
everything the chain holds and moves before it without changing any
state.  The walk is one of the list's per-wire use table (`ir.UseTable`,
which the depth gate and GHZ detection read too): the uses of its active
wires, merged in position order, rather than every later instruction.  A
wire that only deferred operations hold is walked only at its uses whose
letter differs from theirs: the other uses commute with all it holds, and
the walk meets them through any other active wire where they do not.  The
table keeps each such wire's runs of one letter, so a run is passed in one
step; when the wire turns OPAQUE or joins the chain, its walk restarts at
every use from there.  Growth stops at the next barrier, which the table
lists too, once the head can reach no link, or once the head holds a
deferred operation that is not Z there: every link acts as Z on the head,
so none could cross it.  Detection then costs the operations on active
wires up to the chain's last extension, plus the head's uses up to its
next link; an accepted rewrite refreshes the table over its window only.
The scanner keeps no index of its own.  It takes the table - in a pass,
from the depth index's `uses_of`, so that one table serves both - on its
first growth: a list whose every op is a rewrite's or no seed builds none.

A run of CX gates is also a linear map over GF(2) on its wires, and some
maps are chains in disguise.  When the scan reaches a maximal run of
consecutive unconditioned CX gates that no rewrite holds, it folds the run
into its parity map, one int per wire (`_linear_shape`), and offers the run
before growing its first gate: as inverse chains (`ChainKind.INVERSE`)
where the map minus the identity is disjoint paths - a `full` entanglement
layer `CX(i, j)` for every i < j, or a ladder in reverse order - and as a
fan-out (`ChainKind.FANOUT`) where it is one column, a control copied onto
two or more targets.  Only a run whose rewrite is shallower than the run itself is
offered.  A run taken in becomes a rewrite's gates; a refused run leaves
its gates to the growth, and no gate is folded twice.  A plain chain's map
is neither shape, so chains are left to the growth.

Rewrites are final.  The gates of every rewrite - a chain's decomposition
accepted by this scanner, or a block an earlier pass built and hands in
(`ChainScanner`'s `replaced`, as the GHZ pass does) - neither seed nor
extend a chain: no rewrite's output is rewritten again, so no later chain
undoes the depth a block was built for.

Decompositions:

* `decompose_forward` - recursive halving of a CX chain, ascending or
  descending alike: one layer of pairwise CXs, a recursive chain over the
  even-position qubits, and a closing layer.  Depth O(log n), gate count at
  most doubled.  Runs of fewer than five qubits are left as plain chains (no
  depth win there).
* `decompose_run` - inverse chains as the reversed halving of each path;
  a fan-out from c onto t as the reversed halving of t, which leaves each
  target the parity of itself and the one before, and the halving of
  [c, *t], which folds those back into target ^ c.
* `decompose_cz` - all CZs commute, so any chain packs into two layers.
* `decompose_cz_to_cx` - CZ chain lowered to H/CX with one shared Hadamard
  layer on each side; inner H pairs cancel by construction, depth 4.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .ir import (
    Circuit, Gate, Instruction, Letter, UseTable, UseWalk, _letters, _wires, cx, cz, depth_of, h,
)

_OPAQUE, _Z, _X = Letter.OPAQUE, Letter.Z, Letter.X
_CX, _CZ = Gate.CX, Gate.CZ


class ChainKind(Enum):
    CX = "cx"
    CZ = "cz"
    GHZ = "ghz"  # a GHZ site (`ghz.detect_ghz`), rewritten by the same driver
    INVERSE = "cx_inverse"  # a CX run whose map is a linked chain's inverse
    FANOUT = "cx_fanout"  # a CX run whose map copies one control onto its targets


@dataclass(frozen=True)
class ChainCandidate:
    """One rewrite site.  For a GHZ site `start_index` is the fresh H,
    `qubit_seq` the members, root first, and `moved_after` is empty: no op
    between its gates touches a member, so none has to move.  A CX run's
    gates are the whole run and move nothing; `qubit_seq` is its inverse
    chains' paths one after another, each path but the first starting at a
    position in `splits`, or a fan-out's control and then its targets."""

    kind: ChainKind
    gate_indices: tuple[int, ...]
    qubit_seq: tuple[int, ...]
    start_index: int
    moved_after: tuple[int, ...]
    splits: tuple[int, ...] = ()

    @property
    def end_index(self) -> int:
        return self.gate_indices[-1]


# -- commutation ------------------------------------------------------------


def _agrees(held: dict[int, int], op: Instruction) -> bool:
    """Whether `op` commutes with every op whose letters `held` merges: per
    wire, their common `Letter`, OPAQUE where they differ."""
    letters = op.gate.letters if op.condition is None else ()
    if letters:
        for q, letter in zip(op.qubits, letters):
            if held.get(q, letter) != letter:
                return False
        return True
    for w, letter in zip(_wires(op), _letters(op)):
        if w in held and (letter == _OPAQUE or held[w] != letter):
            return False
    return True


def commutes(a: Instruction, b: Instruction) -> bool:
    """Structural commutation test, exact for generic rotation angles: every
    wire the two share carries the same non-OPAQUE `Letter` in both.

    Barriers never commute with anything sharing a qubit (they are ordering
    points); measurements and conditioned gates commute only when they share
    no qubit and no classical read/write pair.
    """
    return _agrees(dict(zip(_wires(a), _letters(a))), b)


# -- chain growth -----------------------------------------------------------


def _is_diagonal_on(ins: Instruction, q: int) -> bool:
    return ins.gate.is_diagonal and ins.condition is None and q in ins.qubits


class _Growth:
    """State for growing one chain from a seed, classifying interleaved ops.

    `_try_extend` and `classify` are the whole policy: the scanner feeds them
    ops in position order and stops where they say, or where `can_link`
    shows that no op it could feed them would extend the chain.
    Commutation is a per-wire test: `held` maps each wire of a chain gate or
    deferred op to their merged `Letter`, `pending` each wire of a deferred
    op to the deferred ops' merged letter, so testing an op against
    everything held costs O(its wires).

    The wires of `seq_set` and the keys of `pending` are the active wires.
    An op on none of them can neither extend the chain nor fail to commute
    with what it holds: it moves before the chain and leaves this state
    untouched, which is why the scanner may skip it.  So may it skip an op
    whose active wires are all deferred-only and carry the op's own letter.
    """

    def __init__(self, instructions: list[Instruction], state: list[int], seed: int):
        self.state = state
        self.seed = seed
        first = instructions[seed]
        self.is_cz = first.gate is Gate.CZ
        self.gate_positions = [seed]
        self.seq: list[int] = list(first.qubits)
        self.seq_set: set[int] = set(first.qubits)
        self.seq_oriented = self.is_cz is False  # CZ orientation settles on gate 2
        self.pending_after: list[int] = []
        self.held: dict[int, int] = dict(zip(first.qubits, first.gate.letters))
        self.pending: dict[int, int] = {}

    def _defer(self, pos: int, op: Instruction) -> None:
        """Record `op` as moved after the chain; a wire whose merged letters
        differ turns OPAQUE."""
        self.pending_after.append(pos)
        pending, held = self.pending, self.held
        letters = op.gate.letters if op.condition is None else ()
        for w, letter in zip(op.qubits, letters) if letters else zip(_wires(op), _letters(op)):
            pending[w] = letter if pending.get(w, letter) == letter else _OPAQUE
            held[w] = letter if held.get(w, letter) == letter else _OPAQUE

    def _try_extend(self, pos: int, op: Instruction) -> str:
        """Returns 'extended', 'skip' (not a continuation) or 'stop'."""
        if op.condition is not None or self.state[pos] == _REPLACED:
            return "skip"
        seq = self.seq
        if self.is_cz:
            if op.gate is not _CZ:
                return "skip"
            u, v = op.qubits
            if not self.seq_oriented:
                shared = {u, v} & self.seq_set
                if len(shared) != 1:
                    return "skip"
                e = shared.pop()
                new = v if u == e else u
                if e == seq[0]:
                    seq.reverse()
                self.seq_oriented = True
            else:
                head = seq[-1]
                if head != u and head != v:
                    return "skip"
                new = v if u == head else u
            if new in self.seq_set:
                return "stop"  # closing a cycle ends the chain
        else:
            if op.gate is not _CX:
                return "skip"
            ctrl, new = op.qubits
            if ctrl != seq[-1]:
                return "skip"
            if new in self.seq_set:
                return "stop"  # target hits an earlier chain qubit: cycle
        # Deferred operations will cross this new gate on their way out.
        if self.pending and not _agrees(self.pending, op):
            return "stop"
        self.gate_positions.append(pos)
        seq.append(new)
        self.seq_set.add(new)
        held = self.held
        (a, b), (la, lb) = op.qubits, op.gate.letters
        held[a] = la if held.get(a, la) == la else _OPAQUE
        held[b] = lb if held.get(b, lb) == lb else _OPAQUE
        return "extended"

    def classify(self, pos: int, op: Instruction) -> bool:
        """Classify a non-chain op at `pos`; False means the chain ends here.

        An op that moves before the chain is not recorded: the chain gates and
        the ops moved after it leave their positions, and everything else
        between the seed and the last chain gate stays where it is.
        """
        if op.gate is Gate.BARRIER:
            return False  # never detect across barriers
        head = self.seq[-1]
        if head in op.qubits and not _is_diagonal_on(op, head):
            # No continuation through the head can commute with this op, so
            # deferring it would just stall the scan; move it out or stop.
            return _agrees(self.held, op)
        if not self.seq_set.isdisjoint(op.qubits) or not _agrees(self.held, op):
            self._defer(pos, op)
        return True

    def can_link(self, table: UseTable, ins: Sequence[Instruction], p: int, stop: int) -> bool:
        """Whether the head - on a one-gate CZ chain, either end - can still
        reach a link at a position p..stop-1 of `ins`, whose use table is
        `table`.

        It walks that one wire's uses.  A CX head passes its X and Z uses,
        a run of X in one step; a CZ end passes only Z.  Any other use ends
        the walk: the policy stops at it on the head, and deferred on the
        other end it blocks every later link there.  The first unconditioned
        CX the head controls (CZ on the end) that no rewrite holds is the
        first link a growth could take, and it is reachable unless it closes
        a cycle or a deferred op holds its new qubit with another letter than
        the link's - both stay so as the growth goes on.  On a one-gate CZ
        chain a CZ on both ends is no link, and is passed.
        """
        n, state, seq_set, pending = table.n, self.state, self.seq_set, self.pending
        is_cz, oriented = self.is_cz, self.seq_oriented
        link, letter = (_CZ, _Z) if is_cz else (_CX, _X)
        for end in (self.seq[-1],) if oriented else (self.seq[-1], self.seq[0]):
            uses, runs = table.by_wire[end], table.runs_of(end, ins)
            k = bisect_right(uses, n - p) - 1
            while k >= 0 and n - uses[k] < stop:
                e = runs[k]
                if e & 7 != _Z:
                    if is_cz or e & 7 != _X:
                        break
                    k = (e >> 3) - 1  # past the run of X
                    continue
                q = n - uses[k]
                op = ins[q]
                if op.gate is link and state[q] != _REPLACED:
                    a, b = op.qubits
                    new = b if a == end else a
                    if new not in seq_set:
                        if pending.get(new, letter) == letter:
                            return True
                        break
                    if oriented:
                        break  # it closes a cycle
                k -= 1
        return False

    def finish(self, min_gates: int) -> ChainCandidate | None:
        if len(self.gate_positions) < min_gates:
            return None
        last = self.gate_positions[-1]
        return ChainCandidate(
            kind=ChainKind.CZ if self.is_cz else ChainKind.CX,
            gate_indices=tuple(self.gate_positions),
            qubit_seq=tuple(self.seq),
            start_index=self.seed,
            moved_after=tuple(i for i in self.pending_after if i < last),
        )


# Seed states, one per instruction: a folded gate's run was offered (or was
# no shape) and it is not folded again; the gates of a skipped candidate
# never seed again; the gates of every rewrite - a replacement accepted here
# or a block handed in as `replaced` - neither seed nor extend a chain.
_FREE, _FOLDED, _SKIPPED, _REPLACED = 0, 1, 2, 3


def _linear_shape(
    run: Sequence[Instruction],
) -> tuple[ChainKind, tuple[int, ...], tuple[int, ...]] | None:
    """The shape of the map a run of CX gates computes over GF(2), as a
    kind, a qubit sequence and splits (`ChainCandidate`): INVERSE and its
    paths where the map minus the identity is one or more disjoint paths,
    FANOUT and the control, then the targets, where it is one column of at
    least two entries; else None.  Each wire's row is an int over the
    wires' bits, numbered in order of first use, so the fold costs one XOR
    per gate."""
    rows: dict[int, int] = {}
    get = rows.get
    for op in run:
        c, t = op.qubits
        rc = get(c)
        if rc is None:
            rc = rows[c] = 1 << len(rows)
        rt = get(t)
        rows[t] = (1 << len(rows) if rt is None else rt) ^ rc
    parent: dict[int, int] = {}  # bit -> the one other bit its row holds
    for k, row in enumerate(rows.values()):
        if not row >> k & 1:
            return None
        off = row - (1 << k)
        if off & (off - 1):
            return None
        if off:
            parent[k] = off.bit_length() - 1
    wires = list(rows)
    sources = set(parent.values())
    if len(parent) > 1 and len(sources) == 1:
        return ChainKind.FANOUT, (wires[sources.pop()], *(wires[k] for k in sorted(parent))), ()
    child = {p: k for k, p in parent.items()}
    if not parent or len(child) != len(parent):
        return None  # the identity, or a bit feeds two
    # Every edge lies on a path from a root: a cycle would make the map singular.
    seq: list[int] = []
    splits = []
    for root in sorted(sources - parent.keys()):
        splits.append(len(seq))
        seq.append(root)
        while seq[-1] in child:
            seq.append(child[seq[-1]])
    return ChainKind.INVERSE, tuple(wires[k] for k in seq), tuple(splits[1:])


def _window(items: Sequence, cand: ChainCandidate, replacement: Sequence) -> list:
    """Positions `cand.start_index`..`cand.end_index` of `items` rewritten.
    Every rewrite is laid out so: the candidate's gates and moved-after ops
    leave their positions, the replacement followed by the moved-after ops
    takes its last gate's position, and the ops moved before stay put."""
    gone = {*cand.gate_indices, *cand.moved_after}
    stay = (items[i] for i in range(cand.start_index, cand.end_index + 1) if i not in gone)
    return [*stay, *replacement, *(items[i] for i in cand.moved_after)]


class ChainScanner:
    """Resumable single-pass scanner over a circuit's instruction list.

    `next()` yields the next chain candidate of at least `min_gates` gates,
    a CX run's (see the module note) before its first gate's growth.
    The caller then either `accept`s the candidate's rewritten window, as
    `_window` lays it out - it is spliced into the instruction list in place,
    the replacement's gates never seed or extend a chain, and the scan
    restarts from the chain's start so that intertwined chains displaced
    around it are rediscovered - or `skip()`s, which retires a chain's gates
    as seeds and continues forward, and hands a run's gates to the growth.
    Candidate starts therefore never decrease, and nothing before the last
    accepted start is read again.
    The positions in `replaced` hold an earlier rewrite's gates (the GHZ
    blocks `pipeline.gate_ghz_sites` kept); they start out as a replacement's
    do, so no rewrite's output is ever rewritten.

    A growth takes its adjacent run first, then, while the head can
    reach a link (`_Growth.can_link`), walks the list's `ir.UseTable`
    (`uses`, which `uses_of` makes from the list; a `DepthIndex.uses_of`
    hands over the table the gate reads), merging the uses of its active
    wires, so it visits only ops on active wires.  The scanner keeps no
    index of its own: the table also lists the barriers, where a growth
    stops.  It owns the list, so its `accept` refreshes the table.  `uses`
    is a cached property, built on its first read, so a scan that grows no
    seed builds no table.
    """

    def __init__(
        self,
        circuit: Circuit,
        min_gates: int = 2,
        uses_of: Callable[[Sequence[Instruction]], UseTable] = UseTable,
        replaced: Iterable[int] = (),
    ):
        if min_gates < 2:
            raise ValueError("min_gates must be at least 2")
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.instructions: list[Instruction] = list(circuit.instructions)
        self.min_gates = min_gates
        self._uses_of = uses_of
        self._state = [_FREE] * len(self.instructions)
        for p in replaced:
            self._state[p] = _REPLACED
        self._pos = 0
        self._pending: ChainCandidate | None = None

    @cached_property
    def uses(self) -> UseTable:
        return self._uses_of(self.instructions)

    @property
    def circuit(self) -> Circuit:
        return Circuit(self.num_qubits, self.num_clbits, tuple(self.instructions))

    def next(self) -> ChainCandidate | None:
        if self._pending is not None:
            raise RuntimeError("previous candidate not resolved; call accept() or skip()")
        ins, state = self.instructions, self._state
        for i in range(self._pos, len(ins)):
            op = ins[i]
            if op.gate.arity == 2 and op.condition is None and state[i] <= _FOLDED:
                self._pos = i
                candidate = None
                if state[i] == _FREE and op.gate is _CX:
                    candidate = self._fold(i)
                if candidate is None:
                    candidate = self._grow(i)
                if candidate is not None:
                    self._pending = candidate
                    return candidate
        self._pos = len(ins)
        return None

    def _fold(self, start: int) -> ChainCandidate | None:
        """The run of free unconditioned CX gates from `start`, folded, as a
        candidate if its map has a shape and its rewrite is shallower."""
        ins, state = self.instructions, self._state
        end, n = start, len(ins)
        while end < n and state[end] == _FREE and ins[end].gate is _CX:
            if ins[end].condition is not None:
                break
            state[end] = _FOLDED
            end += 1
        run = ins[start:end]
        shape = _linear_shape(run) if len(run) >= self.min_gates else None
        if shape is None or depth_of(decompose_run(*shape)) >= depth_of(run):
            return None
        kind, seq, splits = shape
        return ChainCandidate(kind, tuple(range(start, end)), seq, start, (), splits)

    def _grow(self, seed: int) -> ChainCandidate | None:
        """Grow a chain from `seed`, visiting only the ops that can matter.

        First the adjacent run: each next op in the list is offered to the
        policy while it extends the chain.  Such a link is the very op the
        walk would yield next - it uses the head, nothing lies between - and
        nothing is deferred yet, so the walk's checks cannot fire on it; the
        run needs no walk, no heap and no registered wire.  A ladder whose
        links follow one another, as a layered ansatz's do, is grown here
        whole.

        After the run, and again after every extension, growth is over
        unless the head (on a one-gate CZ chain, either end) can still reach
        a link before the next barrier (`_Growth.can_link`).  This is exact:
        the walk meets the head at every use, so it cannot pass the head's
        first possible link without extending there or stopping, and
        `finish` drops whatever would be deferred after the last link.
        Otherwise the walk starts at the op that ended the run, with every
        chain wire registered there.

        In the walk, a chain wire is walked at every use.  A wire that only
        deferred ops hold is walked only at its uses whose letter differs
        from theirs: an op with their letter there commutes with all they
        hold on it, and the walk meets it through any other active wire
        where it does not.  When such a wire turns OPAQUE or joins the
        chain, its walk restarts at every use from the current position.
        Every op skipped is one the policy would move before the chain
        without changing any state; the ops it does see, it sees in position
        order up to the last extension.
        """
        ins = self.instructions
        n = len(ins)
        g = _Growth(ins, self._state, seed)
        try_extend = g._try_extend
        r = seed + 1
        while r < n and try_extend(r, ins[r]) == "extended":
            r += 1
        table, can_link = self.uses, g.can_link
        k = bisect_left(table.barriers, n - seed)
        stop = n - table.barriers[k - 1] if k else n
        if not can_link(table, ins, r, stop):
            return g.finish(self.min_gates)
        walk = UseWalk(table, stop)
        seq, seq_set, pending = g.seq, g.seq_set, g.pending
        add, unskip, walked, skips = walk.add, walk.unskip, walk.walked, walk.skips
        runs_of = table.runs_of
        for q in seq:
            add(q, r)  # no chain wire has a use between its last link and r
        for j in walk:
            op = ins[j]
            result = try_extend(j, op)
            if result == "extended":
                # Every later link acts as Z on the head: none can cross a
                # deferred op that is not Z there.
                if pending.get(seq[-1], _Z) != _Z or not can_link(table, ins, j + 1, stop):
                    break
            elif result == "stop" or not g.classify(j, op):
                break
            # Walk each wire on from the op that makes it active, or restart
            # it where its skip no longer holds.
            for w in op.qubits if op.clbit is None and op.condition is None else _wires(op):
                slot = walked.get(w)
                if slot is not None:
                    skip = skips[slot]
                    # Walked at every use already, or its skip still holds.
                    if not skip or w not in seq_set and pending[w] == skip:
                        continue
                    unskip(w, j + 1)  # its letter turned OPAQUE, or it joined the chain
                elif w in seq_set:
                    add(w, j + 1)
                elif w in pending:
                    letter = pending[w]
                    if letter:
                        runs_of(w, ins)
                    add(w, j + 1, letter)
        return g.finish(self.min_gates)

    def accept(self, window: list[Instruction]) -> None:
        """Splice `window`, the pending candidate's positions as `_window`
        lays them out, into the instruction list, and rescan from the chain's
        start.  The seed states move with their ops, and the use table is
        refreshed over the window: O(|window|) plus the list's own splice.

        The result is read from `circuit`, which builds a new `Circuit`."""
        cand = self._pending
        if cand is None:
            raise RuntimeError("no candidate to accept")
        self._pending = None
        ins = self.instructions
        s, e = cand.start_index, cand.end_index
        # The replacement is what the window holds beyond the ops it kept.
        added = len(window) - (e + 1 - s) + len(cand.gate_indices)
        self._state[s : e + 1] = _window(self._state, cand, [_REPLACED] * added)
        self.uses.splice(ins, s, e, window)
        ins[s : e + 1] = window
        self._pos = s

    def skip(self) -> None:
        """Retire the pending candidate: a chain's gates never seed again,
        and a run's first gate is grown next."""
        cand = self._pending
        if cand is None:
            raise RuntimeError("no candidate to skip")
        self._pending = None
        if cand.kind is ChainKind.INVERSE or cand.kind is ChainKind.FANOUT:
            return
        for idx in cand.gate_indices:
            self._state[idx] = _SKIPPED
        self._pos = cand.start_index + 1


def find_chains(c: Circuit, min_gates: int = 2) -> list[ChainCandidate]:
    """Detection only: scan the whole circuit without transforming anything."""
    scanner = ChainScanner(c, min_gates)
    found = []
    while (cand := scanner.next()) is not None:
        found.append(cand)
        scanner.skip()
    return found


# -- decompositions ---------------------------------------------------------


def decompose_forward(qubit_seq: Sequence[int]) -> list[Instruction]:
    """Recursive halving of a linked CX chain over `qubit_seq`.

    Pairs at odd positions fire first, the chain over even-position qubits is
    decomposed recursively, and pairs at even positions close it off.  The
    result computes the same prefix-parity map as the plain chain.
    """
    seq = list(qubit_seq)
    n = len(seq)
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if n < 5:
        return [cx(seq[i], seq[i + 1]) for i in range(n - 1)]
    out = [cx(seq[i], seq[i + 1]) for i in range(1, n - 1, 2)]
    out += decompose_forward(seq[0::2])
    out += [cx(seq[i], seq[i + 1]) for i in range(0, n - 1, 2)]
    return out


def decompose_run(
    kind: ChainKind, qubit_seq: Sequence[int], splits: Sequence[int] = ()
) -> list[Instruction]:
    """The rewrite of a CX run of `kind` INVERSE or FANOUT (`_linear_shape`):
    an inverse chain's gates are a chain's in reverse order, one chain per
    path of `qubit_seq` cut at `splits`; a fan-out is the inverse chain over
    its targets, then the chain from its control."""
    if kind is ChainKind.INVERSE:
        out: list[Instruction] = []
        for a, b in zip((0, *splits), (*splits, len(qubit_seq))):
            out += decompose_forward(qubit_seq[a:b])[::-1]
        return out
    return decompose_forward(qubit_seq[1:])[::-1] + decompose_forward(qubit_seq)


def decompose_cz(qubit_seq: Sequence[int]) -> list[Instruction]:
    """Two-layer packing of a CZ chain: even-position pairs, then odd."""
    seq = list(qubit_seq)
    if len(seq) < 3:
        raise ValueError("need at least 3 qubits")
    out = [cz(seq[i], seq[i + 1]) for i in range(0, len(seq) - 1, 2)]
    out += [cz(seq[i], seq[i + 1]) for i in range(1, len(seq) - 1, 2)]
    return out


def decompose_cz_to_cx(qubit_seq: Sequence[int]) -> list[Instruction]:
    """CZ chain lowered to CX for hardware without native CZ.

    Odd-position qubits are chosen as CX targets throughout, so each needs
    only one opening and one closing Hadamard; the per-gate inner H pairs
    cancel.  Depth 4 for any chain length.
    """
    seq = list(qubit_seq)
    n = len(seq)
    if n < 3:
        raise ValueError("need at least 3 qubits")
    odd = [seq[i] for i in range(1, n, 2)]
    out = [h(q) for q in odd]
    for i in range(0, n - 1, 2):
        out.append(cx(seq[i], seq[i + 1]))  # even control, odd target
    for i in range(1, n - 1, 2):
        out.append(cx(seq[i + 1], seq[i]))
    out += [h(q) for q in odd]
    return out
