"""Span recorder that times qshallow's public functions from outside.

`Tracer.install()` replaces each function in `TARGETS` by a timing wrapper in
the module namespace its callers look it up in, and `uninstall()` puts the
originals back, so untraced compiles run unwrapped code.  Spans stay in
memory as [name, parent, start_ns, end_ns, note] lists; `parent` is the index
of the enclosing span, or -1.  Nothing under src/ is changed.

`call_layers` turns the spans of one compile into per-layer sums, each
time as self time: the span's duration minus the durations of its child
spans.
"""
from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name, note taken from (args, result)).
TARGETS = [
    ("qshallow.cli", "parse", "parse", None),
    ("qshallow.cli", "emit", "emit", lambda args, result: len(result)),
    ("qshallow.cli", "stats", "stats", None),
    ("qshallow.cli", "compile_circuit", "compile_circuit", None),
    ("qshallow.ir", "validate", "validate", None),
    ("qshallow.qasm", "validate", "validate", None),
    ("qshallow.ghz", "validate", "validate", None),
    ("qshallow.chains", "validate", "validate", None),
    ("qshallow.pipeline", "validate", "validate", None),
    ("qshallow.ir", "depth_of", "depth_of", lambda args, result: len(args[0])),
    ("qshallow.pipeline", "depth_of", "depth_of", lambda args, result: len(args[0])),
    ("qshallow.ghz", "detect_ghz", "detect_ghz", None),
    ("qshallow.pipeline", "rebuild_ghz_sites", "rebuild_ghz_sites", None),
    ("qshallow.pipeline", "gate_and_apply", "gate_and_apply", None),
    ("qshallow.pipeline", "decompose_cz", "decompose", None),
    ("qshallow.pipeline", "decompose_cz_to_cx", "decompose", None),
    ("qshallow.pipeline", "decompose_forward", "decompose", None),
    ("qshallow.pipeline", "decompose_reverse", "decompose", None),
    ("qshallow.chains", "ChainScanner.next", "ChainScanner.next",
     lambda args, result: int(result is not None)),
    ("qshallow.chains", "ChainScanner.accept", "ChainScanner.accept", None),
    ("qshallow.sim", "equivalent_unitary", "verify", None),
    ("qshallow.sim", "equivalent_on_zero", "verify", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if note is not None:
                record[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, note in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def call(self, fn, *args):
        """Run fn(*args) under a root span named "compile"."""
        return self._wrap("compile", fn, None)(*args)


LAYER_KEYS = (
    "parse_s", "emit_s", "emit_chars", "validate_n", "validate_s",
    "depth_of_n", "depth_of_instr", "depth_of_s", "stats_s", "rebuild_s", "detect_s",
    "scan_s", "candidates", "accept_n", "accept_s", "decompose_s", "gate_s",
    "gate_self_s", "recheck_n", "recheck_instr", "verify_n", "verify_s",
)

_SELF_TIME = {
    "parse": "parse_s", "emit": "emit_s", "validate": "validate_s",
    "depth_of": "depth_of_s", "stats": "stats_s", "rebuild_ghz_sites": "rebuild_s",
    "detect_ghz": "detect_s", "ChainScanner.next": "scan_s",
    "ChainScanner.accept": "accept_s", "decompose": "decompose_s",
    "gate_and_apply": "gate_self_s", "verify": "verify_s",
}


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def call_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over the spans of one compile (times in seconds).

    Inside gate_and_apply, the first two depth_of calls after each candidate
    are its window schedules (chain and replacement plus the following ops);
    every other depth_of call there schedules the whole circuit and counts as
    a recheck.
    """
    own = self_times(spans)
    out = {k: 0.0 if k.endswith("_s") else 0 for k in LAYER_KEYS}
    window_calls_left: dict[int, int] = {}
    for i, (name, parent, start, end, note) in enumerate(spans):
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own[i] / 1e9
        if name == "emit":
            out["emit_chars"] += note
        elif name == "validate":
            out["validate_n"] += 1
        elif name == "depth_of":
            out["depth_of_n"] += 1
            out["depth_of_instr"] += note
            if parent >= 0 and spans[parent][0] == "gate_and_apply":
                if window_calls_left.get(parent, 0) > 0:
                    window_calls_left[parent] -= 1
                else:
                    out["recheck_n"] += 1
                    out["recheck_instr"] += note
        elif name == "ChainScanner.next":
            out["candidates"] += note
            if note and parent >= 0:
                window_calls_left[parent] = 2
        elif name == "ChainScanner.accept":
            out["accept_n"] += 1
        elif name == "gate_and_apply":
            out["gate_s"] += (end - start) / 1e9
        elif name == "verify":
            out["verify_n"] += 1
    return out
