"""The chain scanner's detection loop for tests: every candidate of a whole
circuit, each skipped, so nothing is transformed."""
from __future__ import annotations

from typing import Callable

from qshallow.chains import ChainCandidate, ChainScanner
from qshallow.ir import Circuit


def find_chains(
    c: Circuit,
    min_gates: int = 2,
    sites: Callable[..., ChainCandidate | None] | None = None,
    chains: bool = True,
) -> list[ChainCandidate]:
    scanner = ChainScanner(c, min_gates, sites=sites, chains=chains)
    found = []
    while (cand := scanner.next()) is not None:
        found.append(cand)
        scanner.skip()
    return found
