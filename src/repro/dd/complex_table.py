"""Canonical storage of complex edge weights.

Decision diagrams only stay canonical (and their operation caches only hit)
if numerically-equal weights are represented by *one* object.  Following the
"how to efficiently handle complex values" approach of Zulehner/Hillmich/
Wille (paper reference [29]), weights are interned in a table with a small
numerical tolerance: any value within ``tolerance`` of a stored value maps to
that stored representative.
"""

from __future__ import annotations

from typing import Dict, Tuple

ZERO = complex(0.0, 0.0)
ONE = complex(1.0, 0.0)


class ComplexTable:
    """Interning table for complex numbers with absolute tolerance."""

    def __init__(self, tolerance: float = 1e-10) -> None:
        self.tolerance = tolerance
        self._buckets: Dict[Tuple[int, int], complex] = {}
        # Seed the exact values every diagram relies on.
        self._buckets[self._key(ZERO)] = ZERO
        self._buckets[self._key(ONE)] = ONE

    def _key(self, value: complex) -> Tuple[int, int]:
        scale = 1.0 / self.tolerance
        return (int(round(value.real * scale)), int(round(value.imag * scale)))

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative of ``value``.

        Checks the value's bucket and the eight neighbouring buckets so that
        values straddling a bucket boundary still unify.
        """
        if value == ZERO:
            return ZERO
        if value == ONE:
            return ONE
        center = self._key(value)
        tol = self.tolerance
        for di in (0, -1, 1):
            for dj in (0, -1, 1):
                candidate = self._buckets.get((center[0] + di, center[1] + dj))
                if candidate is not None and (
                    abs(candidate.real - value.real) <= tol
                    and abs(candidate.imag - value.imag) <= tol
                ):
                    return candidate
        self._buckets[center] = value
        return value

    def __len__(self) -> int:
        return len(self._buckets)
