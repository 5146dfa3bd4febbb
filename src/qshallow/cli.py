"""Command-line front end: compile, depth, bench.

Exit codes: 0 success, 1 parse/usage error, 2 verification failure, 3 I/O
error.  Reports are JSON; benchmark output is CSV whose first line records the
tool version and the angle-stream identifier.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Iterable, Iterator, Sequence

from . import __version__
from .bench import (
    ANSATZ_FAMILIES,
    ENTANGLEMENTS,
    AnsatzSpec,
    RNG_IDENTIFIER,
    gen_ansatz,
    gen_cx_chain,
    gen_cz_chain,
    gen_ghz_standard,
)
from .chains import ChainKind
from .ghz import GhzMode
from .ir import Circuit, depth_of, stats
from .pipeline import ChainMode, CompileResult, PassConfig
from .pipeline import VerificationError, compile_circuit
from .qasm import ParseError, emit, lowered, parse

CSV_COLUMNS = [
    "name", "n", "reps", "variant",
    "depth_before", "depth_after",
    "gates_before", "gates_after",
    "measures_before", "measures_after",
    "relative_depth",
]


def _read_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _decision_summary(decision) -> dict:
    cand = decision.candidate
    return {
        "kind": cand.kind.value,
        "start_index": cand.start_index,
        "gates": len(cand.gate_indices),
        "qubits": list(cand.qubit_seq),
        "depth_before": decision.depth_before,
        "depth_after": decision.depth_after,
        "applied": decision.applied,
    }


_QUOTED = json.encoder.encode_basestring_ascii  # how `json.dumps` writes a str
_LITERALS = {None: "null", True: "true", False: "false"}


def _indented(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for JSON values with str keys.  With an
    indent, `json` runs its pure-Python encoder, one generator per
    container and a type test per value; here an int, a str and a literal
    are written directly, and a list of ints, such as a chain's qubits, is
    joined in one call."""
    if type(value) is int:
        return str(value)
    if type(value) is str:
        return _QUOTED(value)
    if value is None or type(value) is bool:
        return _LITERALS[value]
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        items = (f"{inner}{_QUOTED(k)}: {_indented(v, inner)}" for k, v in value.items())
        return "{" + ",".join(items) + indent + "}"
    if type(value) is list:
        if not value:
            return "[]"
        if all(type(v) is int for v in value):
            return "[" + inner + ("," + inner).join(map(str, value)) + indent + "]"
        return "[" + ",".join(inner + _indented(v, inner) for v in value) + indent + "]"
    return json.dumps(value)  # a float


def _emitted_depth(c: Circuit) -> int | None:
    """The depth of the file `emit` writes for `c`, scheduled from its
    lowering; None where nothing is lowered: `c` has no multi-bit
    condition."""
    ins = c.instructions
    if not c.num_clbits or all(op.condition is None or len(op.condition.bits) == 1 for op in ins):
        return None
    return depth_of([low for op in ins for low in lowered(op)])


def _report(input_circuit: Circuit, result: CompileResult) -> dict:
    # Each depth a compile's index holds is exact: only a list that no
    # index covered is scheduled here.
    input_stats = stats(input_circuit, result.input_depth)
    # A compile that changes nothing hands back its input.
    if result.circuit is input_circuit:
        output_stats = input_stats
    else:
        output_stats = stats(result.circuit, result.output_depth)
    ghz = [d.applied for d in result.decisions if d.candidate.kind is ChainKind.GHZ]
    chains = [d.applied for d in result.decisions if d.candidate.kind is not ChainKind.GHZ]
    coverage = result.coverage
    # The file states a multi-bit parity as single-bit ifs, and may be deeper.
    emitted = _emitted_depth(result.circuit)
    return {
        "input_stats": input_stats.as_dict(),
        "output_stats": output_stats.as_dict(),
        **({} if emitted in (None, output_stats.depth) else {"emitted_depth": emitted}),
        "ghz_sites_found": len(ghz),
        "ghz_sites_replaced": sum(ghz),
        "chains_found": len(chains),
        "chains_applied": sum(chains),
        "decisions": [_decision_summary(d) for d in result.decisions],
        "verified": result.verified,
        "verification": None if coverage is None else {
            "checked": coverage.checked,
            "skipped": dict(sorted(coverage.skipped.items())),
        },
        "relative_depth": input_stats.depth - output_stats.depth,
    }


def cmd_compile(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args.infile)
    config = PassConfig(
        ghz_mode=GhzMode(args.ghz),
        chain_mode=ChainMode(args.chains),
        min_chain_gates=args.min_chain_gates,
        cz_to_cx=args.cz_to_cx,
        verify=args.verify,
    )
    result = compile_circuit(circuit, config)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        fh.write(emit(result.circuit))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(_indented(_report(circuit, result)) + "\n")
    return 0


def cmd_depth(args: argparse.Namespace) -> int:
    print(json.dumps(stats(_read_circuit(args.infile)).as_dict()))
    return 0


def _parse_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (int(p) for p in parts)
    if step <= 0 or start < 2 or stop <= start:
        raise ValueError(f"invalid range {text!r}")
    return range(start, stop, step)


def bench_cases(
    args: argparse.Namespace, ns: range, reps_list: list[int], config: PassConfig
) -> Iterator[tuple[str, int, int, str, Circuit, PassConfig | None]]:
    """The rows of `args.suite` as (name, n, reps, variant, circuit,
    config) cases; a None config measures the circuit as it stands."""
    if args.suite == "ghz":
        modes = [(m.value, PassConfig(ghz_mode=m, chain_mode=ChainMode.OFF))
                 for m in (GhzMode.ROBUST, GhzMode.PARALLEL)]
        for n in ns:
            std = gen_ghz_standard(n)
            yield "ghz", n, 0, "standard", std, None
            for variant, ghz_config in modes:
                yield "ghz", n, 0, variant, std, ghz_config
    elif args.suite == "chains":
        for n in ns:
            yield "chain", n, 0, "forward", gen_cx_chain(n, "forward"), config
            yield "chain", n, 0, "reverse", gen_cx_chain(n, "reverse"), config
            yield "chain", n, 0, "cz", gen_cz_chain(n), config
    else:
        family, entanglement = args.family, args.entanglement
        for reps in reps_list:
            for n in ns:
                circuit = gen_ansatz(AnsatzSpec(family, n, reps, entanglement, args.seed))
                yield family, n, reps, entanglement, circuit, config


def bench_rows(cases: Iterable[tuple]) -> list[tuple]:
    """One CSV row per case: its statistics before and after the compile."""
    rows = []
    for name, n, reps, variant, circuit, config in cases:
        before = stats(circuit)
        after = before if config is None else stats(compile_circuit(circuit, config).circuit)
        rows.append((
            name, n, reps, variant,
            before.depth, after.depth,
            before.gate_count, after.gate_count,
            before.measure_count, after.measure_count,
            before.depth - after.depth,
        ))
    return rows


def render_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    buf.write(f"# qshallow {__version__} rng={RNG_IDENTIFIER}\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_bench(args: argparse.Namespace) -> int:
    ns = _parse_range(args.n_range)
    reps_list = [int(r) for r in args.reps.split(",") if r]
    config = PassConfig(
        chain_mode=ChainMode(args.chains),
        min_chain_gates=args.min_chain_gates,
        cz_to_cx=args.cz_to_cx,
    )
    text = render_csv(bench_rows(bench_cases(args, ns, reps_list, config)))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshallow",
        description="Depth-reducing optimizer for OpenQASM 2.0 circuits.",
    )
    parser.add_argument("--version", action="version", version=f"qshallow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="rewrite a circuit and emit QASM")
    p_compile.add_argument("--in", dest="infile", required=True, help="input QASM file")
    p_compile.add_argument("--out", dest="outfile", required=True, help="output QASM file")
    p_compile.add_argument("--ghz", choices=[m.value for m in GhzMode], default="off",
                           help="GHZ construction; the --chains mode gates it too")
    p_compile.add_argument("--chains", choices=[m.value for m in ChainMode], default="off",
                           help="gate for every rewrite: conservative applies a GHZ site or "
                                "chain only if its window gets shallower and the circuit no "
                                "deeper; always applies all; off skips chains, applies GHZ sites. "
                                "Besides linked CX and CZ chains, a run of CX gates whose parity "
                                "map is the inverse of disjoint chains (cx_inverse: a full "
                                "entanglement layer or a reverse-order ladder) or a fan-out from "
                                "one control (cx_fanout) is a candidate when its rewrite is "
                                "shallower: "
                                "two_local full n=64 reps=4 goes from depth 322 and 8384 gates "
                                "to 46 and 796. "
                                "No chain is found inside a kept GHZ block, so its depth, "
                                "1 + ceil(log2 n) robust or 6 parallel, holds in every mode "
                                "in memory and in --report; in the --out file a parallel "
                                "block's k-bit parity corrections become k single-bit ifs, "
                                "so the file reads deeper (12 layers at n = 16), and the "
                                "report's emitted_depth says how deep")
    p_compile.add_argument("--min-chain-gates", type=int, default=5,
                           help="fewest gates a chain needs to be rewritten (at least 2)")
    p_compile.add_argument("--cz-to-cx", action="store_true",
                           help="lower rewritten CZ chains to H/CX form")
    p_compile.add_argument("--verify", action="store_true",
                           help="prove every applied rewrite exact, at any width; a chain "
                                "window holding a conditioned gate other than x or z is "
                                "skipped, and the report's verified is then false")
    p_compile.add_argument("--report", help="write a JSON compile report here")
    p_compile.set_defaults(func=cmd_compile)

    p_depth = sub.add_parser("depth", help="print depth/gate statistics as JSON")
    p_depth.add_argument("--in", dest="infile", required=True, help="input QASM file")
    p_depth.set_defaults(func=cmd_depth)

    p_bench = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    p_bench.add_argument("--suite", choices=["ghz", "chains", "vqe"], required=True,
                         help="circuit family: GHZ preparations, plain CX/CZ chains or ansatze")
    p_bench.add_argument("--n-range", required=True,
                         help="qubit counts as start:stop:step (stop exclusive)")
    p_bench.add_argument("--reps", default="1", help="comma-separated repetition counts (vqe)")
    p_bench.add_argument("--family", choices=ANSATZ_FAMILIES, default="two_local",
                         help="ansatz family (vqe)")
    p_bench.add_argument("--entanglement", choices=ENTANGLEMENTS, default="linear",
                         help="ansatz entanglement layout (vqe)")
    p_bench.add_argument("--seed", type=int, default=7, help="ansatz angle seed (vqe)")
    p_bench.add_argument("--chains", choices=[m.value for m in ChainMode],
                         default="conservative",
                         help="gate for the chain rewrites, as for compile (chains, vqe)")
    p_bench.add_argument("--min-chain-gates", type=int, default=5,
                         help="fewest gates a chain needs to be rewritten, as for compile "
                              "(chains, vqe)")
    p_bench.add_argument("--cz-to-cx", action="store_true",
                         help="lower rewritten CZ chains to H/CX form (chains, vqe)")
    p_bench.add_argument("--csv", help="write CSV here instead of stdout")
    p_bench.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: not at import,
    and not once per call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error: make it 1
        raise SystemExit(1 if exc.code == 2 else exc.code) from None
    try:
        return args.func(args)
    except OSError as exc:
        error, code = exc, 3
    except VerificationError as exc:
        error, code = exc, 2
    except (ParseError, ValueError) as exc:  # also an invalid option value or non-UTF-8 input
        error, code = exc, 1
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
