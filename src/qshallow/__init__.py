"""qshallow: depth-reducing optimizer for quantum circuits.

Detects GHZ-preparation subroutines and CX/CZ entangling chains in OpenQASM
2.0 circuits and rewrites them into logarithmic- or constant-depth
equivalents, with exact stabilizer-based verification of every rewrite and
a benchmark harness for depth/gate/measurement scaling studies.
"""
__version__ = "0.1.0"

from .ir import (
    Circuit,
    Condition,
    DepthReport,
    Gate,
    Instruction,
    barrier,
    cx,
    cz,
    depth,
    h,
    measure,
    rx,
    ry,
    rz,
    stats,
    x,
    y,
    z,
)
from .qasm import ParseError, SourceSpan, emit, parse
from .ghz import (
    GhzMode,
    build_ghz_log,
    build_ghz_parallel,
    detect_ghz,
)
from .chains import (
    ChainCandidate,
    ChainKind,
    ChainScanner,
    commutes,
    decompose_cz,
    decompose_cz_to_cx,
    decompose_forward,
    find_chains,
)
from .pipeline import (
    ChainMode,
    CompileResult,
    Coverage,
    GateDecision,
    PassConfig,
    VerificationError,
    compile_circuit,
    gate_and_apply,
)
from .bench import (
    AnsatzSpec,
    gen_ansatz,
    gen_cx_chain,
    gen_cz_chain,
    gen_ghz_standard,
    gen_intertwined,
    gen_random,
)

__all__ = [
    "AnsatzSpec",
    "ChainCandidate",
    "ChainKind",
    "ChainMode",
    "ChainScanner",
    "Circuit",
    "CompileResult",
    "Condition",
    "Coverage",
    "DepthReport",
    "Gate",
    "GateDecision",
    "GhzMode",
    "Instruction",
    "ParseError",
    "PassConfig",
    "SourceSpan",
    "VerificationError",
    "barrier",
    "build_ghz_log",
    "build_ghz_parallel",
    "commutes",
    "compile_circuit",
    "cx",
    "cz",
    "decompose_cz",
    "decompose_cz_to_cx",
    "decompose_forward",
    "depth",
    "detect_ghz",
    "emit",
    "find_chains",
    "gate_and_apply",
    "gen_ansatz",
    "gen_cx_chain",
    "gen_cz_chain",
    "gen_ghz_standard",
    "gen_intertwined",
    "gen_random",
    "h",
    "measure",
    "parse",
    "rx",
    "ry",
    "rz",
    "stats",
    "x",
    "y",
    "z",
]
