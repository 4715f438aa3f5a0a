"""Output checks of the benchmark. Every check is counted: a failure makes the
run incorrect and raises its error rate."""

from __future__ import annotations

import sys

#: The CLI's rule for a real-valued evaluation (matsum eval warns beyond it).
IMAG_RTOL = 1e-9
#: The acceptance bound on the tree-decomposition identity residual.
GAUDIN_MAX_RESIDUAL = 1e-12


class Ledger:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def routes_agree(reduced, full, direct) -> bool:
    """The reduced operator, full operator and direct route give one form."""
    return reduced == full and reduced == direct


def roundtrip_equal(original, parsed) -> bool:
    return original == parsed


def is_real(value: complex) -> bool:
    return abs(value.imag) <= IMAG_RTOL * (abs(value.real) + 1)


def oracle_agrees(symbolic: float, oracle: float, tolerance: float) -> bool:
    """Relative agreement, or absolute agreement for oracle values below 1."""
    error = abs(symbolic - oracle)
    if oracle != 0 and error / abs(oracle) <= tolerance:
        return True
    return abs(oracle) < 1 and error <= tolerance


def gaudin_holds(residual: float) -> bool:
    return residual < GAUDIN_MAX_RESIDUAL
