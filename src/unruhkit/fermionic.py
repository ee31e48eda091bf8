"""Grassmann-scalar (spinless fermion) Unruh entanglement, exactly.

Pauli exclusion truncates everything: the Rindler content of one Unruh
frequency lives in four binary occupation slots ordered

    (I+, II-, I-, II+)   i.e.   particle-I, antiparticle-II,
                                antiparticle-I, particle-II,

with basis index 8n + 4n' + 2n'' + n''' for |n n' n'' n'''>.  The vacuum
and the general one-particle state are built from their explicit
coefficient tables in cos(r), sin(r), q_R, q_L (not by applying ladder
operators), which pins the sign conventions once and for all.  The
squeezing parameter obeys tan r = e^{-pi Omega_a/a}, so r ranges over
[0, pi/4] and the infinite-acceleration limit stays finite.

Negativities for the Alice-Rob and Alice-AntiRob bipartitions come in two
independently coded routes that must agree to ~1e-10: the two explicit
3x3 blocks of the partial transpose that can carry negative eigenvalues
("blocks", exact and O(1)) and the dense eigensolve of the full 8x8
partial transpose of the traced-out state ("full").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MethodDisagreementError
from .qops import (
    DensityOperator,
    FockKet,
    TensorSpace,
    hermitian_eigenvalues,
    negativity,
    negativity_from_eigenvalues,
    reduced_density,
)
from .weights import UnruhWeights

R_MAX = math.pi / 4
METHOD_TOL = 1e-10
#: below this |q_R| the Alice-Rob / Alice-AntiRob roles are exchanged
SWAP_POINT = 1.0 / math.sqrt(2.0)

ALICE = "M"
SLOT_I_PART = "I+"
SLOT_II_ANTI = "II-"
SLOT_I_ANTI = "I-"
SLOT_II_PART = "II+"
SLOTS = (SLOT_I_PART, SLOT_II_ANTI, SLOT_I_ANTI, SLOT_II_PART)

GRASSMANN_SPACE = TensorSpace(tuple((slot, 2) for slot in SLOTS))
JOINT_SPACE = TensorSpace(((ALICE, 2),) + GRASSMANN_SPACE.factors)


def occupation_index(n: int, n1: int, n2: int, n3: int) -> int:
    """Basis index of |n n' n'' n'''> in the fixed slot order."""
    return 8 * n + 4 * n1 + 2 * n2 + n3


@dataclass(frozen=True)
class FermionSqueezing:
    """Squeezing parameter r in [0, pi/4]."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r <= R_MAX + 1e-15:
            raise ValueError(f"fermionic squeezing must lie in [0, pi/4], got {self.r}")

    @classmethod
    def from_acceleration(cls, omega_a: float, a: float) -> "FermionSqueezing":
        """Massless parameterization r = arctan(e^{-pi omega_a / a})."""
        if omega_a <= 0.0 or a <= 0.0:
            raise ValueError(f"omega_a and a must be > 0, got {omega_a}, {a}")
        return cls(math.atan(math.exp(-math.pi * omega_a / a)))

    @classmethod
    def from_rindler_energy(cls, energy: float) -> "FermionSqueezing":
        """Massive-mode parameterization tan r = e^{-pi E} with E >= 0.

        Unit interpretation of E is left to the caller; the massless case
        corresponds to E = omega_a / a.
        """
        if energy < 0.0:
            raise ValueError(f"mode energy must be >= 0, got {energy}")
        return cls(math.atan(math.exp(-math.pi * energy)))


@dataclass(frozen=True)
class FermionScenario:
    squeezing: FermionSqueezing
    weights: UnruhWeights


def grassmann_vacuum(r: float) -> FockKet:
    """Vacuum of one Unruh frequency in the Rindler slot basis.

    cos^2 r |0000> - sin r cos r |0011> + sin r cos r |1100> - sin^2 r |1111>,
    with exactly these signs; the norm is cos^4 + 2 sin^2 cos^2 + sin^4 = 1.
    """
    c, s = math.cos(r), math.sin(r)
    amp = np.zeros(16, dtype=complex)
    amp[occupation_index(0, 0, 0, 0)] = c * c
    amp[occupation_index(0, 0, 1, 1)] = -s * c
    amp[occupation_index(1, 1, 0, 0)] = s * c
    amp[occupation_index(1, 1, 1, 1)] = -s * s
    return FockKet(GRASSMANN_SPACE, amp)


def grassmann_one_particle(r: float, weights: UnruhWeights) -> FockKet:
    """General one-particle Unruh state:

    q_R [cos r |1000> - sin r |1011>] + q_L [sin r |1101> + cos r |0001>].

    Unit norm for all r and orthogonal to the vacuum.
    """
    c, s = math.cos(r), math.sin(r)
    amp = np.zeros(16, dtype=complex)
    amp[occupation_index(1, 0, 0, 0)] += weights.q_r * c
    amp[occupation_index(1, 0, 1, 1)] += -weights.q_r * s
    amp[occupation_index(1, 1, 0, 1)] += weights.q_l * s
    amp[occupation_index(0, 0, 0, 1)] += weights.q_l * c
    return FockKet(GRASSMANN_SPACE, amp)


def fermion_joint_state(scenario: FermionScenario) -> FockKet:
    """(|0>_M |vacuum> + |1>_M |one-particle>)/sqrt(2), dimension 32."""
    r = scenario.squeezing.r
    amp = np.zeros(32, dtype=complex)
    amp[:16] = grassmann_vacuum(r).amplitudes / math.sqrt(2.0)
    amp[16:] = grassmann_one_particle(r, scenario.weights).amplitudes / math.sqrt(2.0)
    return FockKet(JOINT_SPACE, amp)


def rho_alice_rob_fermi(scenario: FermionScenario) -> DensityOperator:
    """Trace out region II; basis |ijk> = |i>_M |j>_I+ |k>_I-."""
    return reduced_density(fermion_joint_state(scenario), (ALICE, SLOT_I_PART, SLOT_I_ANTI))


def rho_alice_antirob_fermi(scenario: FermionScenario) -> DensityOperator:
    """Trace out region I; basis |ijk> = |i>_M |j>_II- |k>_II+."""
    return reduced_density(fermion_joint_state(scenario), (ALICE, SLOT_II_ANTI, SLOT_II_PART))


@dataclass(frozen=True, eq=False)
class PTBlocks:
    """The two 3x3 partial-transpose blocks that can carry negative eigenvalues.

    Basis labels are occupation strings ijk in the bipartition's reduced
    basis.  Entries are polynomial in C = cos r, S = sin r, q_R, q_L.
    """

    bipartition: str
    first: np.ndarray
    first_basis: tuple[str, str, str]
    second: np.ndarray
    second_basis: tuple[str, str, str]

    def __post_init__(self):
        for name in ("first", "second"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def pt_blocks(scenario: FermionScenario, bipartition: str) -> PTBlocks:
    """Explicit negativity-carrying blocks for bipartition "AR" or "AAR"."""
    c, s = math.cos(scenario.squeezing.r), math.sin(scenario.squeezing.r)
    q_r, q_l = scenario.weights.q_r, scenario.weights.q_l
    if bipartition == "AR":
        first = 0.5 * np.array(
            [
                [c**2 * abs(q_l) ** 2, c**3 * q_r.conjugate(), -q_r.conjugate() * q_l * s * c],
                [c**3 * q_r, s**2 * c**2, -q_l * s**3],
                [-q_r * q_l.conjugate() * s * c, -q_l.conjugate() * s**3, abs(q_r) ** 2 * s**2],
            ]
        )
        second = 0.5 * np.array(
            [
                [c**4, -q_l * c**2 * s, 0.0],
                [-q_l.conjugate() * c**2 * s, 0.0, q_r.conjugate() * s**2 * c],
                [0.0, q_r * s**2 * c, s**4],
            ]
        )
        return PTBlocks("AR", first, ("100", "010", "111"), second, ("000", "101", "011"))
    if bipartition == "AAR":
        first = 0.5 * np.array(
            [
                [s**2 * abs(q_l) ** 2, s**3 * q_r.conjugate(), q_r.conjugate() * q_l * s * c],
                [s**3 * q_r, c**2 * s**2, q_l * c**3],
                [q_r * q_l.conjugate() * s * c, q_l.conjugate() * c**3, abs(q_r) ** 2 * c**2],
            ]
        )
        second = 0.5 * np.array(
            [
                [s**4, q_l * s**2 * c, 0.0],
                [q_l.conjugate() * s**2 * c, 0.0, q_r.conjugate() * c**2 * s],
                [0.0, q_r * c**2 * s, c**4],
            ]
        )
        return PTBlocks("AAR", first, ("111", "001", "100"), second, ("011", "110", "000"))
    raise ValueError(f"bipartition must be 'AR' or 'AAR', got {bipartition!r}")


@dataclass(frozen=True)
class FermionNegativityPair:
    n_ar: float
    n_aar: float


def _blocks_negativity(blocks: PTBlocks) -> float:
    total = 0.0
    for matrix in (blocks.first, blocks.second):
        total += negativity_from_eigenvalues(hermitian_eigenvalues(matrix)).value
    return total


def fermionic_negativity_pair(
    scenario: FermionScenario, method: str = "blocks"
) -> FermionNegativityPair:
    """Negativities of both bipartitions.

    "blocks" sums the negative eigenvalues of the explicit 3x3 blocks;
    "full" eigensolves the 8x8 partial transposes of the reduced states.
    The two must agree within ~1e-10 (see ``method_agreement_residual``).
    """
    if method == "blocks":
        return FermionNegativityPair(
            _blocks_negativity(pt_blocks(scenario, "AR")),
            _blocks_negativity(pt_blocks(scenario, "AAR")),
        )
    if method == "full":
        return FermionNegativityPair(
            negativity(rho_alice_rob_fermi(scenario), ALICE).value,
            negativity(rho_alice_antirob_fermi(scenario), ALICE).value,
        )
    raise ValueError(f"method must be 'blocks' or 'full', got {method!r}")


def method_agreement_residual(
    scenario: FermionScenario, blocks: FermionNegativityPair | None = None
) -> float:
    """Largest |blocks - full| discrepancy over the two bipartitions.

    ``blocks`` is the scenario's "blocks" pair when the caller already has
    it; otherwise it is computed here.
    """
    if blocks is None:
        blocks = fermionic_negativity_pair(scenario, method="blocks")
    full = fermionic_negativity_pair(scenario, method="full")
    return max(abs(blocks.n_ar - full.n_ar), abs(blocks.n_aar - full.n_aar))


@dataclass(frozen=True)
class FermionCurveRow:
    q_abs: float
    r: float
    n_ar: float
    n_aar: float
    residual: float
    swap_equivalent: bool


def fermionic_curve(q_abs: float, r_grid, *, method_tol: float = METHOD_TOL) -> list[FermionCurveRow]:
    """Negativity pair along a squeezing grid at fixed |q_R|.

    The physically distinct range is |q_R| >= 1/sqrt(2); smaller values are
    admitted but flagged ``swap_equivalent`` since they reproduce the
    mirrored bipartition.  Each row carries the blocks-vs-full residual and
    the sweep aborts if any residual exceeds ``method_tol``.
    """
    weights = UnruhWeights.from_abs(q_abs)
    swap_equivalent = q_abs < SWAP_POINT
    rows = []
    for r in r_grid:
        scenario = FermionScenario(FermionSqueezing(float(r)), weights)
        pair = fermionic_negativity_pair(scenario, method="blocks")
        residual = method_agreement_residual(scenario, pair)
        if residual > method_tol:
            raise MethodDisagreementError(
                f"blocks/full negativities differ by {residual:.3e} at "
                f"(q_abs={q_abs}, r={r}); tolerance {method_tol}"
            )
        rows.append(
            FermionCurveRow(
                q_abs=float(q_abs),
                r=float(r),
                n_ar=pair.n_ar,
                n_aar=pair.n_aar,
                residual=residual,
                swap_equivalent=swap_equivalent,
            )
        )
    return rows
