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
partial transpose of the traced-out state ("full").  A curve checks its
grid once and hands plain r values to both routes.  It stacks the blocks
of its whole grid as (steps, 2, 2, 3, 3), from one table of cos r, sin r
and their powers, and solves them in one call.  Its runtime oracle,
"full", builds the grid's joint states as one (steps, 32) table from its
own cos r and sin r, reduces and partially transposes each row through
``qops`` into one (steps, 2, 8, 8) stack, and solves that in one call too.

Below r = sqrt(eps) ~ 1.5e-8, where sin^2 r < eps, the "full" route
flushes each row's joint-state amplitudes below eps times its largest to 0.
Without the flush, tiny r (about 1e-300 to 1e-40) gives partial-transpose
entries whose squares underflow, and LAPACK's Hermitian eigensolvers then
lose up to ~3e-3 (every driver, real or complex).  The flush perturbs the
state by O(eps), so by Weyl's inequality the eigenvalues move by O(eps)
too.  A tiny weight at larger r needs no flush: |q| in [1e-300, 1e-8]
agrees to 3e-16.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qops  # partial_transpose through the module, where a trace of qops sees it
from .errors import MethodDisagreementError
from .qops import (
    DensityOperator,
    FockKet,
    NEGATIVITY_CUTOFF,
    TensorSpace,
    hermitian_eigenvalues,
    reduced_density,
)
# not called here: the benchmark tracer (perfbench/tracer.py) wraps it under this module's name
from .qops import negativity  # noqa: F401
from .weights import UnruhWeights

R_MAX = math.pi / 4
#: rounding slack past R_MAX that the squeezing and the CLI range both accept
R_MAX_TOL = 1e-12
METHOD_TOL = 1e-10
#: below r = sqrt(FLUSH), the 8x8 route zeroes each row's amplitudes below this fraction of its largest
FLUSH = sys.float_info.epsilon
_FLUSH_R = math.sqrt(FLUSH)
#: below this |q_R| the Alice-Rob / Alice-AntiRob roles are exchanged
SWAP_POINT = 1.0 / math.sqrt(2.0)

ALICE = "M"
SLOT_I_PART = "I+"
SLOT_II_ANTI = "II-"
SLOT_I_ANTI = "I-"
SLOT_II_PART = "II+"
SLOTS = (SLOT_I_PART, SLOT_II_ANTI, SLOT_I_ANTI, SLOT_II_PART)

JOINT_SPACE = TensorSpace(((ALICE, 2),) + tuple((slot, 2) for slot in SLOTS))


def occupation_index(n: int, n1: int, n2: int, n3: int) -> int:
    """Basis index of |n n' n'' n'''> in the fixed slot order."""
    return 8 * n + 4 * n1 + 2 * n2 + n3


@dataclass(frozen=True)
class FermionSqueezing:
    """Squeezing parameter r in [0, pi/4]."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r <= R_MAX + R_MAX_TOL:
            raise ValueError(f"fermionic squeezing must lie in [0, pi/4], got {self.r}")

    @classmethod
    def from_acceleration(cls, omega_a: float, a: float) -> "FermionSqueezing":
        """Massless parameterization r = arctan(e^{-pi omega_a / a})."""
        if not (omega_a > 0.0 and a > 0.0) or omega_a == a == math.inf:  # NaN and inf/inf fail
            raise ValueError(f"omega_a and a must be > 0 and not both inf, got {omega_a}, {a}")
        return cls(math.atan(math.exp(-math.pi * omega_a / a)))


class FermionScenario(NamedTuple):
    squeezing: FermionSqueezing
    weights: UnruhWeights


def grassmann_vacuum(r: float) -> np.ndarray:
    """Amplitudes of the vacuum of one Unruh frequency in the Rindler slot basis:

    cos^2 r |0000> - sin r cos r |0011> + sin r cos r |1100> - sin^2 r |1111>,
    with exactly these signs; the norm is cos^4 + 2 sin^2 cos^2 + sin^4 = 1.
    """
    return _amplitude_table([r], 0.0, 0.0)[0, :16]


def grassmann_one_particle(r: float, weights: UnruhWeights) -> np.ndarray:
    """Amplitudes of the general one-particle Unruh state in the Rindler slot basis:

    q_R [cos r |1000> - sin r |1011>] + q_L [sin r |1101> + cos r |0001>],
    of unit norm for all r and orthogonal to the vacuum.
    """
    return _amplitude_table([r], weights.q_r, weights.q_l)[0, 16:]


def fermion_joint_state(scenario: FermionScenario) -> FockKet:
    """(|0>_M |vacuum> + |1>_M |one-particle>)/sqrt(2), dimension 32; one row of ``_joint_table``."""
    return FockKet(JOINT_SPACE, _joint_table([scenario.squeezing.r], scenario.weights)[0])


def _amplitude_table(r_list: list[float], q_r: complex, q_l: complex) -> np.ndarray:
    """Vacuum (columns :16) and one-particle (16:) amplitudes, one row per r, from one cos/sin table."""
    c, s = np.array([math.cos(v) for v in r_list]), np.array([math.sin(v) for v in r_list])
    amp = np.zeros((len(r_list), 32), dtype=complex)
    amp[:, occupation_index(0, 0, 0, 0)] = c * c
    amp[:, occupation_index(0, 0, 1, 1)] = -s * c
    amp[:, occupation_index(1, 1, 0, 0)] = s * c
    amp[:, occupation_index(1, 1, 1, 1)] = -s * s
    # the one-particle block, from column 16; added to 0, which stores a product's -0.0 as 0.0
    amp[:, 16 + occupation_index(1, 0, 0, 0)] += q_r * c
    amp[:, 16 + occupation_index(1, 0, 1, 1)] += -q_r * s
    amp[:, 16 + occupation_index(1, 1, 0, 1)] += q_l * s
    amp[:, 16 + occupation_index(0, 0, 0, 1)] += q_l * c
    return amp


def _joint_table(r_list: list[float], weights: UnruhWeights) -> np.ndarray:
    """Joint-state amplitudes, shape (len(r_list), 32); tiny-r rows are flushed (module docstring)."""
    amp = _amplitude_table(r_list, weights.q_r, weights.q_l) / math.sqrt(2.0)
    tiny = np.array([0.0 < v < _FLUSH_R for v in r_list], dtype=bool)
    size = np.abs(amp[tiny])
    amp[tiny] = np.where(size < FLUSH * size.max(axis=1, keepdims=True), 0.0, amp[tiny])
    return amp


def rho_alice_rob_fermi(joint: FockKet) -> DensityOperator:
    """Trace region II out of the joint state; basis |ijk> = |i>_M |j>_I+ |k>_I-."""
    return reduced_density(joint, (ALICE, SLOT_I_PART, SLOT_I_ANTI))


def rho_alice_antirob_fermi(joint: FockKet) -> DensityOperator:
    """Trace region I out of the joint state; basis |ijk> = |i>_M |j>_II- |k>_II+."""
    return reduced_density(joint, (ALICE, SLOT_II_ANTI, SLOT_II_PART))


def pt_blocks(r, weights: UnruhWeights, bipartition: str) -> np.ndarray:
    """The two 3x3 partial-transpose blocks of bipartition "AR" or "AAR" that can go negative.

    ``r`` is one squeezing value or a 1-d grid of them; the result has shape
    ``np.shape(r) + (2, 3, 3)``, the two blocks stacked.  Entries are
    polynomial in C = cos r, S = sin r, q_R, q_L.  Their bases, as
    occupation strings ijk of the bipartition's reduced basis, are
    (100, 010, 111) and (000, 101, 011) for "AR", (111, 001, 100) and
    (011, 110, 000) for "AAR".
    """
    if bipartition not in ("AR", "AAR"):
        raise ValueError(f"bipartition must be 'AR' or 'AAR', got {bipartition!r}")
    return _pt_stack(r, weights)[..., int(bipartition == "AAR"), :, :, :]


def _pt_stack(r, weights: UnruhWeights) -> np.ndarray:
    """``pt_blocks`` of both bipartitions, shape ``np.shape(r) + (2, 2, 3, 3)``, from one power table."""
    r_list = np.asarray(r, dtype=float).reshape(-1).tolist()
    cos_r, sin_r = [math.cos(v) for v in r_list], [math.sin(v) for v in r_list]
    # Python's float ** rather than numpy's array power, which rounds differently
    c, c2, c3, c4 = (np.array([v**k for v in cos_r]) for k in (1, 2, 3, 4))
    s, s2, s3, s4 = (np.array([v**k for v in sin_r]) for k in (1, 2, 3, 4))
    zero = np.zeros(len(r_list))
    q_r, q_l = weights.q_r, weights.q_l
    blocks = [
        [  # AR
            [[c2 * abs(q_l) ** 2, c3 * q_r.conjugate(), -q_r.conjugate() * q_l * s * c],
             [c3 * q_r, s2 * c2, -q_l * s3],
             [-q_r * q_l.conjugate() * s * c, -q_l.conjugate() * s3, abs(q_r) ** 2 * s2]],
            [[c4, -q_l * c2 * s, zero],
             [-q_l.conjugate() * c2 * s, zero, q_r.conjugate() * s2 * c],
             [zero, q_r * s2 * c, s4]],
        ],
        [  # AAR
            [[s2 * abs(q_l) ** 2, s3 * q_r.conjugate(), q_r.conjugate() * q_l * s * c],
             [s3 * q_r, c2 * s2, q_l * c3],
             [q_r * q_l.conjugate() * s * c, q_l.conjugate() * c3, abs(q_r) ** 2 * c2]],
            [[s4, q_l * s2 * c, zero],
             [q_l.conjugate() * s2 * c, zero, q_r.conjugate() * c2 * s],
             [zero, q_r * c2 * s, c4]],
        ],
    ]
    stack = 0.5 * np.moveaxis(np.array(blocks, dtype=complex), -1, 0)
    return stack.reshape(np.shape(r) + (2, 2, 3, 3))


class FermionNegativityPair(NamedTuple):
    n_ar: float
    n_aar: float


def _negativities(eigs: np.ndarray) -> np.ndarray:
    """Minus the sum of the eigenvalues below ``NEGATIVITY_CUTOFF``, per spectrum on the last axis."""
    # a spectrum with no negative eigenvalue gives -0.0 before the + 0.0, and 0.0 after it
    return -np.where(eigs < NEGATIVITY_CUTOFF, eigs, 0.0).sum(axis=-1) + 0.0


def _blocks_negativities(r, weights: UnruhWeights) -> np.ndarray:
    """(N_AR, N_AAR) on the last axis, at one r or at each r of a 1-d grid, from one eigensolve."""
    per_block = _negativities(hermitian_eigenvalues(_pt_stack(r, weights)))  # (..., bipartition, block)
    return per_block[..., 0] + per_block[..., 1]


def _full_negativities(r_list: list[float], weights: UnruhWeights) -> np.ndarray:
    """(N_AR, N_AAR) at each r from one eigensolve of the stacked 8x8 partial transposes.

    Rows of one joint-state table, each reduced and partially transposed by ``qops``.  Each
    transpose has at most two negative eigenvalues, so their sum rounds once, as in ``qops.negativity``.
    """
    stack = np.empty((len(r_list), 2, 8, 8), dtype=complex)
    for pts, amp in zip(stack, _joint_table(r_list, weights)):
        joint = FockKet(JOINT_SPACE, amp)
        pts[0] = qops.partial_transpose(rho_alice_rob_fermi(joint), ALICE)
        pts[1] = qops.partial_transpose(rho_alice_antirob_fermi(joint), ALICE)
    return _negativities(hermitian_eigenvalues(stack))


def fermionic_negativity_pair(scenario: FermionScenario, method: str = "blocks") -> FermionNegativityPair:
    """Negativities of both bipartitions; the curve's two routes at one r.

    "blocks" sums the negative eigenvalues of the explicit 3x3 blocks;
    "full" eigensolves the 8x8 partial transposes of the reduced states.
    The two must agree within ~1e-10 (see ``method_agreement_residual``).
    """
    if method == "blocks":
        pair = _blocks_negativities(scenario.squeezing.r, scenario.weights)
    elif method == "full":
        pair = _full_negativities([scenario.squeezing.r], scenario.weights)[0]
    else:
        raise ValueError(f"method must be 'blocks' or 'full', got {method!r}")
    return FermionNegativityPair(*pair.tolist())


def method_agreement_residual(scenario: FermionScenario) -> float:
    """Largest |blocks - full| discrepancy over the two bipartitions."""
    blocks = fermionic_negativity_pair(scenario, method="blocks")
    full = fermionic_negativity_pair(scenario, method="full")
    return max(abs(blocks.n_ar - full.n_ar), abs(blocks.n_aar - full.n_aar))


class FermionCurveRow(NamedTuple):
    q_abs: float
    r: float
    n_ar: float
    n_aar: float
    residual: float
    swap_equivalent: bool


def fermionic_curve(q_abs: float, r_grid) -> list[FermionCurveRow]:
    """Negativity pair along a squeezing grid at fixed |q_R|.

    The physically distinct range is |q_R| >= 1/sqrt(2); smaller values are
    admitted but flagged ``swap_equivalent`` since they reproduce the
    mirrored bipartition.  The whole grid is checked first; then each route
    solves the stack of every row in one eigensolve.  Each row carries the
    blocks-vs-full residual and the sweep aborts if any residual exceeds
    ``METHOD_TOL``.
    """
    weights = UnruhWeights.from_abs(q_abs)
    r = np.asarray(r_grid, dtype=float).ravel()
    bad = ~((r >= 0.0) & (r <= R_MAX + R_MAX_TOL))
    if bad.any():
        FermionSqueezing(float(r[bad][0]))  # raises the squeezing's range error
    r_list = r.tolist()
    blocks = _blocks_negativities(r, weights)
    residuals = np.abs(blocks - _full_negativities(r_list, weights)).max(axis=-1)
    over = residuals > METHOD_TOL
    if over.any():
        i = int(over.argmax())  # the first row over the tolerance
        raise MethodDisagreementError(f"blocks/full negativities differ by {residuals[i]:.3e} at "
                                      f"(q_abs={q_abs}, r={r_list[i]}); tolerance {METHOD_TOL}")
    q_abs, swap_equivalent = float(q_abs), q_abs < SWAP_POINT
    return [FermionCurveRow(q_abs, x, n_ar, n_aar, residual, swap_equivalent)
            for x, (n_ar, n_aar), residual in zip(r_list, blocks.tolist(), residuals.tolist())]
