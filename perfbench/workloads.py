"""The benchmark's workloads: which circuits each compiles, and how.

Importing this module does not import qshallow; `circuits` does, and only
the input generator (gen.py) calls it.

`--seed` picks a qubit relabelling of every circuit (and the angles of the
vqe_deep ansatz).  Relabelling changes the files but not the structure the
compiler sees, so every seed gives the same work and the same output depth
and gate count.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    flags: tuple[str, ...]  # `qshallow compile` options

    @property
    def ghz(self) -> str:
        flags = list(self.flags)
        return flags[flags.index("--ghz") + 1] if "--ghz" in flags else "off"


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "vqe_deep": Workload(("--chains", "conservative")),
    "ghz_cascade": Workload(("--ghz", "robust", "--chains", "conservative")),
    "small_corpus": Workload(
        ("--ghz", "parallel", "--chains", "conservative", "--min-chain-gates", "2", "--verify")
    ),
}

CORPUS_SIZES = (4, 8, 16, 32, 64)


def _corpus(bench) -> list[tuple[str, object]]:
    """The never-degrade corpus of the acceptance suite: 500 seeded random
    circuits of 4-12 qubits, then 158 GHZ, chain, intertwined and ansatz
    circuits."""
    out = []
    for s in range(500):
        out.append((f"random/{s}", bench.gen_random(4 + s % 9, 20 + (s * 37) % 181, seed=s)))
    for n in CORPUS_SIZES:
        out.append((f"ghz/{n}", bench.gen_ghz_standard(n)))
        out.append((f"cx_forward/{n}", bench.gen_cx_chain(n)))
        out.append((f"cx_reverse/{n}", bench.gen_cx_chain(n, "reverse")))
        out.append((f"cz/{n}", bench.gen_cz_chain(n)))
    for shape in ((2, 4), (3, 6), (3, 8)):
        out.append((f"intertwined/{shape[0]}x{shape[1]}", bench.gen_intertwined(*shape)))
    for family in ("efficient_su2", "real_amplitudes", "two_local"):
        for ent in ("linear", "reverse_linear", "circular", "sca", "full"):
            for reps in (1, 2, 3):
                for n in (5, 10, 20):
                    spec = bench.AnsatzSpec(family, n, reps, ent, seed=11)
                    out.append((f"{family}/{ent}/r{reps}/n{n}", bench.gen_ansatz(spec)))
    return out


def circuits(name: str, seed: int) -> list[tuple[str, object]]:
    """(label, qshallow Circuit) pairs of a workload, before relabelling."""
    from qshallow import bench

    if name == "vqe_deep":
        spec = bench.AnsatzSpec("two_local", 1000, 26, "linear", seed)
        return [("two_local/n1000/r26", bench.gen_ansatz(spec))]
    if name == "ghz_cascade":
        return [("ghz/2000", bench.gen_ghz_standard(2000))]
    if name == "small_corpus":
        return _corpus(bench)
    raise KeyError(name)


def relabelling(name: str, seed: int, index: int, num_qubits: int) -> list[int]:
    perm = list(range(num_qubits))
    random.Random(f"{name}/{seed}/{index}").shuffle(perm)
    return perm
