"""Weights of the right/left Unruh creation operators.

A purely positive-frequency single-particle creator is a superposition
q_L A_L^dag + q_R A_R^dag with |q_R|^2 + |q_L|^2 = 1; the pair (q_R, q_L)
selects which superposition an accelerated-frame analysis refers to.
Negativities depend only on |q_R| (phase invariance), which the test
suite checks explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class UnruhWeights:
    q_r: complex
    q_l: complex

    def __post_init__(self):
        q_r, q_l = complex(self.q_r), complex(self.q_l)
        object.__setattr__(self, "q_r", q_r)
        object.__setattr__(self, "q_l", q_l)
        norm = abs(q_r) ** 2 + abs(q_l) ** 2
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # so that a NaN weight fails too
            raise ValueError(f"|q_R|^2 + |q_L|^2 = {norm!r} is not 1 within {NORMALIZATION_TOL}")

    @classmethod
    def from_abs(cls, q_abs: float, phase: float = 0.0) -> "UnruhWeights":
        """Real parameterization q_R = q_abs * e^{i phase}, q_L = sqrt(1 - q_abs^2)."""
        if not 0.0 <= q_abs <= 1.0:
            raise ValueError(f"q_abs must lie in [0, 1], got {q_abs}")
        return cls(q_abs * cmath.exp(1j * phase), math.sqrt(max(0.0, 1.0 - q_abs * q_abs)))

    @property
    def abs_r(self) -> float:
        return abs(self.q_r)

    @property
    def abs_l(self) -> float:
        return abs(self.q_l)

    def minor_weight(self) -> float:
        """Magnitude of the smaller of the two weights (0 for extremal choices)."""
        return min(self.abs_r, self.abs_l)
