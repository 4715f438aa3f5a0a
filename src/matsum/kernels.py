"""Bose-Einstein kernel nbe(z) = 1/(e^{2 pi z} - 1), overflow-safe.

Shared by the symbolic evaluator and the numeric oracles so both sides
agree bit-for-bit on kernel values.
"""

from __future__ import annotations

import math

# exp(x) overflows a double near x ~ 709.78; beyond this 1/expm1(x) underflows
# to 0 anyway, so we short-circuit instead of overflowing.
_EXP_ARG_MAX = 700.0


class ZeroArgument(ValueError):
    """nbe(0) is a pole of the kernel."""


def nbe(z: float) -> float:
    """Evaluate 1/(e^{2 pi z} - 1) for real z != 0.

    Safe for |z| up to a few hundred: large positive z underflows cleanly
    to 0.0, negative z is routed through nbe(z) = -1 - nbe(-z).
    """
    if z == 0:
        raise ZeroArgument("nbe(z) has a pole at z = 0")
    if z < 0:
        return -1.0 - nbe(-z)
    x = 2.0 * math.pi * z
    if x > _EXP_ARG_MAX:
        # 1/(e^x - 1) ~ e^-x to double precision; 0.0 past x ~ 745 and at inf.
        return math.exp(-x)
    return 1.0 / math.expm1(x)
