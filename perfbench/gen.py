"""Write a workload's input QASM files and their manifest.

    python3 perfbench/gen.py WORKLOAD SEED OUTDIR

Circuits come from `qshallow.bench`; the QASM text is written here, so the
bytes of an input depend only on the workload, the seed and the generators.
OUTDIR/manifest.json lists each file with its qubit and instruction counts
and sha256.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from workloads import circuits, relabelling


def qasm_text(circuit, perm: list[int]) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for ins in circuit.instructions:
        operands = ",".join(f"q[{perm[q]}]" for q in ins.qubits)
        if ins.angle is None:
            lines.append(f"{ins.gate.value} {operands};")
        else:
            lines.append(f"{ins.gate.value}({ins.angle!r}) {operands};")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    name, seed, outdir = argv[0], int(argv[1]), Path(argv[2])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for index, (label, circuit) in enumerate(circuits(name, seed)):
        if circuit.num_clbits or any(ins.condition is not None for ins in circuit.instructions):
            raise ValueError(f"{label}: inputs must be measurement-free")
        text = qasm_text(circuit, relabelling(name, seed, index, circuit.num_qubits))
        path = outdir / f"in{index:04d}.qasm"
        path.write_text(text, encoding="utf-8")
        manifest.append({
            "label": label,
            "path": str(path),
            "qubits": circuit.num_qubits,
            "instructions": len(circuit.instructions),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
    (outdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
