"""Grassmann-scalar (spinless fermion) Unruh entanglement, exactly.

Pauli exclusion truncates everything: the Rindler content of one Unruh
frequency lives in four binary occupation slots ordered

    (I+, II-, I-, II+)   i.e.   particle-I, antiparticle-II,
                                antiparticle-I, particle-II,

with basis index 8n + 4n' + 2n'' + n''' for |n n' n'' n'''>.  The vacuum
and the general one-particle state are built from their explicit
coefficient tables in cos(r), sin(r), q_R, q_L (``_amplitude_table``), not
by applying ladder operators, which pins the sign conventions once and for
all.  The squeezing parameter obeys tan r = e^{-pi Omega_a/a}, so r ranges
over [0, pi/4] and the infinite-acceleration limit stays finite.  Every
function takes r (one value, or a grid for the curve) and the weights.

Negativities for the Alice-Rob and Alice-AntiRob bipartitions come from
two independently coded routes that must agree to ~1e-10.  The blocks
route uses the two explicit 3x3 blocks of the partial transpose that can
carry negative eigenvalues (``pt_blocks``).  Each has at most one, and its
trace, e2 and det factor into products free of cancellation
(``_invariants``), so the route takes that eigenvalue as the smallest root
of the characteristic cubic (``_lowest_root``), with no eigensolver.  The
sign of the same cubic across a bracket certifies each root with a bound
(``_block_bounds``), with no explicit block built; each value's ends are
that value minus and plus its bound.  The oracle is the
dense eigensolve of the full 8x8 partial transpose of the traced-out state
(``_full_negativities``).  A curve checks its grid once and hands plain r
values to both routes; ``fermionic_negativity_pair`` is the blocks route
at one r.  The oracle builds the grid's joint states as one (steps, 32)
table from its own cos r and sin r, reduces and partially transposes each
row through ``qops`` into one (steps, 2, 8, 8) stack, and solves that in
one call.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import qops  # partial_transpose through the module, where a trace of qops sees it
from .errors import MethodDisagreementError
from .qops import (
    FockKet,
    NEGATIVITY_CUTOFF,
    TensorSpace,
    floor_amplitudes,
    hermitian_eigenvalues,
    reduced_density,
)
# not called here: the benchmark tracer (perfbench/tracer.py) wraps it under this module's name
from .qops import negativity  # noqa: F401
from .weights import UnruhWeights

R_MAX = math.pi / 4
#: rounding slack past R_MAX that the r check and the CLI range both accept
R_MAX_TOL = 1e-12
METHOD_TOL = 1e-10
EPS = sys.float_info.epsilon
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


def squeezing_from_acceleration(omega_a: float, a: float) -> float:
    """Massless parameterization r = arctan(e^{-pi omega_a / a})."""
    if not (omega_a > 0.0 and a > 0.0) or omega_a == a == math.inf:  # NaN and inf/inf fail
        raise ValueError(f"omega_a and a must be > 0 and not both inf, got {omega_a}, {a}")
    # the ratio first: pi omega_a may overflow, or lose digits below the normals
    return math.atan(math.exp(-math.pi * (omega_a / a)))


def _check_r(r) -> np.ndarray:
    """r (one value or a grid) as a flat float array; NaN and r outside [0, pi/4] raise."""
    r = np.asarray(r, dtype=float).ravel()
    bad = ~((r >= 0.0) & (r <= R_MAX + R_MAX_TOL))
    if bad.any():
        raise ValueError(f"fermionic squeezing must lie in [0, pi/4], got {r[bad][0]}")
    return r


def _amplitude_table(r_list: list[float], q_r: complex, q_l: complex) -> np.ndarray:
    """Vacuum (columns :16) and one-particle (16:) amplitudes, one row per r, from one cos/sin table.

    The vacuum of one Unruh frequency in the Rindler slot basis is

        cos^2 r |0000> - sin r cos r |0011> + sin r cos r |1100> - sin^2 r |1111>,

    with exactly these signs; its norm is cos^4 + 2 sin^2 cos^2 + sin^4 = 1.
    The general one-particle Unruh state is

        q_R [cos r |1000> - sin r |1011>] + q_L [sin r |1101> + cos r |0001>],

    of unit norm for all r and orthogonal to the vacuum.
    """
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
    """(|0>_M |vacuum> + |1>_M |one-particle>)/sqrt(2), shape (len(r_list), 32), each row floored."""
    return floor_amplitudes(_amplitude_table(r_list, weights.q_r, weights.q_l) / math.sqrt(2.0))


def pt_blocks(r, weights: UnruhWeights) -> np.ndarray:
    """The two 3x3 partial-transpose blocks that can go negative, of both bipartitions.

    ``r`` is one squeezing value or a 1-d grid of them; the result has shape
    ``np.shape(r) + (2, 2, 3, 3)``: bipartition ("AR", then "AAR"), block,
    built with array arithmetic from one table of C = cos r, S = sin r and
    their powers.  Entries are polynomial in C, S, q_R, q_L.  Their bases, as
    occupation strings ijk of the bipartition's reduced basis, are
    (100, 010, 111) and (000, 101, 011) for "AR", (111, 001, 100) and
    (011, 110, 000) for "AAR".  The tests check ``_invariants`` against them.
    """
    r = np.asarray(r, dtype=float)
    c, s = np.cos(r).reshape(-1), np.sin(r).reshape(-1)
    c2, s2 = c * c, s * s
    c3, s3, c4, s4, sc = c2 * c, s2 * s, c2 * c2, s2 * s2, s * c
    q_r, q_l = weights.q_r, weights.q_l
    qr_, a2, b2 = q_r.conjugate(), abs(q_r) ** 2, abs(q_l) ** 2
    # (bipartition, block, row, column) of each entry on or above the diagonal
    upper = {
        (0, 0, 0, 0): c2 * b2, (0, 0, 0, 1): c3 * qr_, (0, 0, 0, 2): -qr_ * q_l * sc,
        (0, 0, 1, 1): s2 * c2, (0, 0, 1, 2): -q_l * s3, (0, 0, 2, 2): a2 * s2,
        (0, 1, 0, 0): c4, (0, 1, 0, 1): -q_l * c2 * s, (0, 1, 1, 2): qr_ * s2 * c, (0, 1, 2, 2): s4,
        (1, 0, 0, 0): s2 * b2, (1, 0, 0, 1): s3 * qr_, (1, 0, 0, 2): qr_ * q_l * sc,
        (1, 0, 1, 1): c2 * s2, (1, 0, 1, 2): q_l * c3, (1, 0, 2, 2): a2 * c2,
        (1, 1, 0, 0): s4, (1, 1, 0, 1): q_l * s2 * c, (1, 1, 1, 2): qr_ * c2 * s, (1, 1, 2, 2): c4,
    }
    stack = np.zeros((c.size, 2, 2, 3, 3), dtype=complex)
    flat = stack.reshape(c.size, 36)
    for (side, block, i, j), entry in upper.items():
        flat[:, 18 * side + 9 * block + 3 * i + j] = entry
        flat[:, 18 * side + 9 * block + 3 * j + i] = np.conj(entry)
    stack *= 0.5
    return stack.reshape(r.shape + (2, 2, 3, 3))


class FermionNegativityPair(NamedTuple):
    n_ar: float
    n_aar: float
    #: (N_AR, N_AAR) ends, each value -+ its bound certified from the blocks' invariants (``_block_bounds``)
    lo: tuple[float, float]
    hi: tuple[float, float]


def _negativities(eigs: np.ndarray) -> np.ndarray:
    """Minus the sum of the eigenvalues below ``NEGATIVITY_CUTOFF``, per spectrum on the last axis."""
    # a spectrum with no negative eigenvalue gives -0.0 before the + 0.0, and 0.0 after it
    return -np.where(eigs < NEGATIVITY_CUTOFF, eigs, 0.0).sum(axis=-1) + 0.0


def _invariants(r: np.ndarray, weights: UnruhWeights) -> tuple[np.ndarray, np.ndarray]:
    """Trace t, e2 and det of each block of ``pt_blocks`` as products, and a bound on each one's error.

    Both arrays have shape (3, len(r), 2, 2): invariant, row, bipartition, block.
    With a = |q_R| and b = |q_L| scaled to a^2 + b^2 = 1, C = cos r and S = sin r,
    the "AR" blocks have

        block 1: t = (a^2 S^2 + b^2 C^2 + C^2 S^2)/2,  e2 = -cos 2r (aC + bS)(aC - bS)/4,
                 det = -C^2 S^2 (aC + bS)^2 (aC - bS)^2/8;
        block 2: t = (C^4 + S^4)/2,  e2 = -C^2 S^2 (a^2 S^4 + b^2 C^4)/4,
                 det = -C^4 S^4 (a^2 C^2 + b^2 S^2)/8,

    and the "AAR" blocks are these with a and b exchanged.  aC -+ bS is
    cos(theta +- r) with theta = atan2(b, a).  So det <= 0 <= t: each block has
    at most one negative eigenvalue.

    The error is from the exact r and normalized weights: with cos r and sin r
    within an ulp, a and b within 3 eps and eps/2 per rounding, products of
    positive factors are within 10.5 eps (t), 19 (e2) and 22 (det), so 24 eps
    covers each.  Block 1's C - S, within 2 eps (C + S), and aC - bS, within
    6 eps (aC + bS), add |XY - xy| <= dX (|y| + dY) + |x| dY times the other
    factors.  The smallest normal number covers underflow.
    """
    norm = math.hypot(weights.abs_r, weights.abs_l)
    x = np.array([weights.abs_r, weights.abs_l]) / norm  # (AR, AAR)
    y = x[::-1]
    c, s = np.cos(r)[:, None], np.sin(r)[:, None]
    c2, s2 = c * c, s * s
    cs2 = c2 * s2
    plus, minus, diff, total = x * c + y * s, x * c - y * s, c - s, c + s
    cross = plus * minus
    x2, y2 = x * x, y * y
    inv = np.empty((3, len(r), 2, 2))
    t, e2, det = inv
    t[..., 0], t[..., 1] = 0.5 * (x2 * s2 + y2 * c2 + cs2), 0.5 * (c2 * c2 + s2 * s2)
    e2[..., 0], e2[..., 1] = -0.25 * diff * total * cross, -0.25 * cs2 * (x2 * s2 * s2 + y2 * c2 * c2)
    det[..., 0], det[..., 1] = -0.125 * cs2 * cross * cross, -0.125 * cs2 * cs2 * (x2 * c2 + y2 * s2)
    err = 24.0 * EPS * abs(inv) + sys.float_info.min
    d_diff, d_minus = 2.0 * EPS * total, 6.0 * EPS * plus
    err[1, ..., 0] += 0.25 * total * plus * (d_diff * (abs(minus) + d_minus) + abs(diff) * d_minus)
    err[2, ..., 0] += 0.125 * cs2 * plus * plus * d_minus * (2.0 * abs(minus) + d_minus)
    return inv, err


def _newton(x, t, e2, det, fallback):
    """One Newton step on x^3 - t x^2 + e2 x - det where its slope is positive, else ``fallback``."""
    f = ((x - t) * x + e2) * x - det
    slope = (3.0 * x - 2.0 * t) * x + e2
    return np.where(slope > 0.0, x - f / slope, fallback)


def _lowest_root(t: np.ndarray, e2: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Smallest root of x^3 - t x^2 + e2 x - det, elementwise: each block's negative eigenvalue.

    Left of t/3 the cubic is concave, and it rises up to its smallest root,
    so a Newton step from either side of that root lands on its left, and
    steps from the left rise monotonically to it.  The trigonometric root
    (Smith, Commun. ACM 4(4), 1961) starts the iteration.  Where the two
    smaller roots meet at 0 (r = 0, cos(theta +- r) = 0) it loses sqrt(eps),
    and may land past the cubic's local maximum; so the first step is kept
    at or above the root of the quadratic the cubic becomes near 0,
    (e2 - sqrt(e2^2 - 4 t det)) / (2t) (in its other form where e2 > 0).
    That root lies left of the cubic's, and both forms are free of
    cancellation.  A second step then gives the root to a few units in the
    last place of the block's scale.
    """
    with np.errstate(all="ignore"):
        root = np.sqrt(e2 * e2 - 4.0 * t * det)
        small = np.where(e2 > 0.0, 2.0 * det / (e2 + root), (e2 - root) / (2.0 * t))
        p = np.maximum(t * t / 9.0 - e2 / 3.0, 0.0)
        q = t * (t * t / 27.0 - e2 / 6.0) + 0.5 * det
        sp = np.sqrt(p)
        angle = np.arccos(np.clip(q / (p * sp), -1.0, 1.0)) / 3.0
        x = t / 3.0 + 2.0 * sp * np.cos(angle + 2.0 * math.pi / 3.0)
        x = np.fmax(_newton(x, t, e2, det, small), small)
        return _newton(x, t, e2, det, x)


def _cubic(x: np.ndarray, inv: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(x) = x^3 - t x^2 + e2 x - det of each block, and a bound on its distance from the exact block's.

    Horner's rounding is within gamma_6 < 4 eps of the terms' moduli (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 5.1); the invariants' errors add to it.
    """
    (t, e2, det), (d_t, d_e2, d_det), y = inv, err, abs(x)
    value = ((x - t) * x + e2) * x - det
    return value, 4.0 * EPS * (((y + t) * y + abs(e2)) * y + abs(det)) + (d_t * y + d_e2) * y + d_det


def _half_width(inv: np.ndarray, err: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """2 (|p(lam)| + its bound) / p'(lam) where p' > 0: past lam -+ it, p's sign outweighs its error."""
    p, bound = _cubic(lam, inv, err)
    slope = (3.0 * lam - 2.0 * inv[0]) * lam + inv[1]
    return 2.0 * (abs(p) + bound) / np.where(slope > 0.0, slope, np.nan)


def _block_bounds(inv: np.ndarray, err: np.ndarray, lam: np.ndarray, half, norm: float) -> np.ndarray:
    """A bound on |N(lam) - N(exact)| per block, from the sign of its cubic at lam -+ half.

    N(x) = -x below ``NEGATIVITY_CUTOFF``, else 0.  The exact block has det <= 0 <= t, so at
    most one eigenvalue below any x < 0, and p(x) = prod (x - eigenvalue) is negative if none is
    below x, positive if one (or three) is.  So p(lo) certified negative (``_cubic``), lo < 0, and
    p(hi) certified positive put the smallest eigenvalue in (lo, hi); with no negativity only lo,
    just above the cutoff, is tested.  The weights as given, of norm ``norm`` within 2 eps, scale
    each entry by 1, |q| or |q|^2, so by Weyl each end moves out by 3 |1 - |q|| ||B||_F, with
    ||B||_F^2 = t^2 - 2 e2.  A block left open gets an infinite bound.
    """
    weyl = 3.0 * (abs(1.0 - norm) + 2.0 * EPS) * np.sqrt(inv[0] ** 2 - 2.0 * inv[1])
    negative = lam < NEGATIVITY_CUTOFF
    lo, hi = np.where(negative, lam - half, NEGATIVITY_CUTOFF + weyl), np.where(negative, lam + half, lam)
    (p_lo, e_lo), (p_hi, e_hi) = _cubic(lo, inv, err), _cubic(hi, inv, err)
    done = (lo < 0.0) & (p_lo < -e_lo) & (~negative | (p_hi > e_hi))
    n_lam, n_lo, n_hi = (_negativities(x[..., None]) for x in (lam, lo - weyl, hi + weyl))
    return np.where(done, np.where(negative, np.maximum(n_lo - n_lam, n_lam - n_hi), 0.0), np.inf)


def _blocks_negativities(r, weights: UnruhWeights) -> tuple[np.ndarray, np.ndarray]:
    """(N_AR, N_AAR) on the last axis and a certified bound on each, at one r or at each r of a 1-d grid.

    No eigensolver: each block's one negative eigenvalue comes in closed form
    (``_invariants``, ``_lowest_root``), and the same invariants certify it
    (``_half_width``, ``_block_bounds``).  A value's bound is the sum of its
    blocks' bounds plus the rounding of their sum.
    """
    r = np.asarray(r, dtype=float)
    inv, err = _invariants(r.reshape(-1), weights)
    lam = _lowest_root(*inv)  # (rows, bipartition, block)
    per_block = _negativities(lam[..., None])  # each block's one eigenvalue as a spectrum
    pairs = per_block[..., 0] + per_block[..., 1]
    norm = math.hypot(weights.abs_r, weights.abs_l)
    bounds = _block_bounds(inv, err, lam, _half_width(inv, err, lam), norm)
    bounds = bounds[..., 0] + bounds[..., 1] + EPS * pairs
    return pairs.reshape(r.shape + (2,)), bounds.reshape(r.shape + (2,))


def _full_negativities(r_list: list[float], weights: UnruhWeights) -> np.ndarray:
    """(N_AR, N_AAR) at each r from one eigensolve of the stacked 8x8 partial transposes.

    Rows of one joint-state table, each reduced by ``qops`` to Alice and
    region I, basis |ijk> = |i>_M |j>_I+ |k>_I-, and to Alice and region II,
    basis |i>_M |j>_II- |k>_II+, then partially transposed.  Each transpose
    has at most two negative eigenvalues, so their sum rounds once, as in
    ``qops.negativity``.
    """
    stack = np.empty((len(r_list), 2, 8, 8), dtype=complex)
    for pts, amp in zip(stack, _joint_table(r_list, weights)):
        joint = FockKet(JOINT_SPACE, amp)
        pts[0] = qops.partial_transpose(reduced_density(joint, (ALICE, SLOT_I_PART, SLOT_I_ANTI)), ALICE)
        pts[1] = qops.partial_transpose(reduced_density(joint, (ALICE, SLOT_II_ANTI, SLOT_II_PART)), ALICE)
    return _negativities(hermitian_eigenvalues(stack))


def fermionic_negativity_pair(r: float, weights: UnruhWeights) -> FermionNegativityPair:
    """Negativities of both bipartitions at one r, with their ends: the curve's blocks route at one r."""
    _check_r(r)
    pair, bound = _blocks_negativities(r, weights)
    return FermionNegativityPair(*pair.tolist(), tuple((pair - bound).tolist()), tuple((pair + bound).tolist()))


def method_agreement_residual(r: float, weights: UnruhWeights) -> float:
    """Largest |blocks - full| discrepancy over the two bipartitions."""
    blocks = fermionic_negativity_pair(r, weights)
    full = _full_negativities([r], weights)[0].tolist()
    return max(abs(blocks.n_ar - full[0]), abs(blocks.n_aar - full[1]))


class FermionCurveRow(NamedTuple):
    q_abs: float
    r: float
    n_ar: float
    n_aar: float
    residual: float
    #: the ends of ``FermionNegativityPair``; not printed
    lo: tuple[float, float]
    hi: tuple[float, float]
    swap_equivalent: bool


def fermionic_curve(q_abs: float, r_grid) -> list[FermionCurveRow]:
    """Negativity pair along a squeezing grid at fixed |q_R|.

    The physically distinct range is |q_R| >= 1/sqrt(2); smaller values are
    admitted but flagged ``swap_equivalent`` since they reproduce the
    mirrored bipartition.  The whole grid is checked first; then the blocks
    route gives every row's pair and its ends in closed form, and the 8x8
    oracle solves the stack of every row in one eigensolve.  Each row
    carries the blocks-vs-full residual and the sweep aborts if any residual
    exceeds ``METHOD_TOL``.
    """
    weights = UnruhWeights.from_abs(q_abs)
    r = _check_r(r_grid)
    r_list = r.tolist()
    blocks, bounds = _blocks_negativities(r, weights)
    residuals = np.abs(blocks - _full_negativities(r_list, weights)).max(axis=-1)
    over = residuals > METHOD_TOL
    if over.any():
        i = int(over.argmax())  # the first row over the tolerance
        raise MethodDisagreementError(f"blocks/full negativities differ by {residuals[i]:.3e} at "
                                      f"(q_abs={q_abs}, r={r_list[i]}); tolerance {METHOD_TOL}")
    q_abs = float(q_abs)
    swap_equivalent = q_abs < SWAP_POINT
    lo, hi = zip(*(blocks - bounds).T.tolist()), zip(*(blocks + bounds).T.tolist())  # (N_AR, N_AAR) per row
    return [FermionCurveRow(q_abs, x, n_ar, n_aar, residual, low, high, swap_equivalent)
            for x, n_ar, n_aar, residual, low, high in zip(r_list, *blocks.T.tolist(), residuals.tolist(), lo, hi)]
