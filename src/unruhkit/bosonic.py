"""Bosonic Minkowski-Unruh entangled state in the truncated Rindler basis.

The Unruh vacuum at squeezing r is a two-mode squeezed state of Rindler
excitations, sum_n f(n) |n>_I |n>_II with f(n) = tanh^n(r)/cosh(r), and the
general single-particle Unruh excitation carries weights (q_R, q_L) on the
right/left Unruh creators.  This module builds the maximally entangled
Minkowski-Unruh state, the Alice-Rob and Alice-AntiRob reductions obtained
by tracing out one Rindler wedge, and their negativities as functions of
r = artanh(e^{-pi Omega_a / a}).

Two evaluation routes are provided:

* ``dense``: truncate every Rindler factor at occupation ``n_max``,
  renormalize, eigensolve the partial transpose.  The partial transpose
  splits by the parity of (Alice's occupation + the kept wedge's) into two
  real (n_max+1)-dimensional sectors of bandwidth 2, whose entries follow
  from f(n) in O(n_max); each sector goes to a banded symmetric eigensolver
  (LAPACK ``dsbevd`` through ``scipy.linalg.eig_banded``), so the joint
  ket, the reduced density and the dense partial transpose are never built.
  Convergence is accepted when the squeezed-vacuum tail
  sum_{n > n_max} f^2 = tanh^{2(n_max+1)} r is below ``tail_tol`` and the
  negativity moves by less than ``delta_tol`` between the n_max and
  n_max + 5 runs.  Once tanh r rounds to 1 (r > 19.06) the cut keeps no
  representable share of the state, so the route reports 0 unconverged
  without evaluating it.  The labelled-tensor route (``qops``) over the
  joint ket is kept as the test oracle of the sector engine.

* ``blocks``: for the extremal weights |q_R| in {0, 1} the partial
  transpose is block diagonal in 2x2 sectors and the negativity is an
  explicit series over analytic block eigenvalues in the untruncated
  space: at most 4096 terms summed exactly plus an Euler-Maclaurin
  integral tail, O(1) work at any squeezing, with a bound on the error
  (from the convexity of the terms) that is checked relative to the value.

The ``auto`` method routes extremal weights to the series and everything
else to the dense engine; the test suite pins agreement between the two
on their common domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import ConvergenceError
from .qops import (
    DensityOperator,
    FockKet,
    TensorSpace,
    negativity,
    negativity_from_eigenvalues,
    reduced_density,
)
from .weights import UnruhWeights

DEFAULT_N_MAX = 30
N_MAX_CAP = 120
TAIL_TOL = 1e-8
DELTA_TOL = 1e-6
#: artanh diverges with acceleration; negativity at r = 10 is already < 1e-8
R_CAP = 10.0
#: a weight this close to 0 switches the pair evaluation to the block series
EXTREMAL_TOL = 1e-12

ALICE = "M"
REGION_I = "I"
REGION_II = "II"

#: the input state never populates Minkowski occupations above 1
ALICE_DIM = 2

#: the block series sums this many terms exactly and integrates the rest
_SERIES_HEAD = 4096
#: its head and tail follow the terms down to e^-60 < 1e-26 of the first
_SERIES_DECAY = 60.0


@dataclass(frozen=True)
class BosonSqueezing:
    """Squeezing parameter r >= 0, optionally derived from an acceleration."""

    r: float
    capped: bool = False

    def __post_init__(self):
        if not self.r >= 0.0:
            raise ValueError(f"squeezing parameter must be >= 0, got {self.r}")

    @classmethod
    def from_acceleration(cls, omega_a: float, a: float, r_cap: float = R_CAP) -> "BosonSqueezing":
        """r = artanh(e^{-pi omega_a / a}); capped at ``r_cap`` with a flag.

        ``capped=True`` marks an effectively infinite acceleration: the exact
        r exceeds the cap, where the negativities are numerically zero anyway.
        """
        if omega_a <= 0.0 or a <= 0.0:
            raise ValueError(f"omega_a and a must be > 0, got {omega_a}, {a}")
        x = math.exp(-math.pi * omega_a / a)
        if x >= math.tanh(r_cap):
            return cls(r_cap, capped=True)
        return cls(math.atanh(x))


@dataclass(frozen=True)
class BosonTruncation:
    """Highest Rindler occupation retained in each wedge factor."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    def tail_weight(self, r: float) -> float:
        """Discarded squeezed-vacuum weight sum_{n > n_max} f(n)^2.

        The sum is geometric and evaluates exactly to tanh^{2(n_max+1)} r.
        """
        return math.tanh(r) ** (2 * (self.n_max + 1))


def vacuum_coefficients(r: float, n_max: int) -> np.ndarray:
    """f[n] = tanh^n(r)/cosh(r) for n = 0..n_max; sum of squares tends to 1 as n_max grows."""
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    n = np.arange(n_max + 1)
    return np.tanh(r) ** n / np.cosh(r)


@dataclass(frozen=True)
class BosonScenario:
    squeezing: BosonSqueezing
    weights: UnruhWeights
    truncation: BosonTruncation = BosonTruncation(DEFAULT_N_MAX)


@dataclass(frozen=True)
class TruncatedKet:
    """Renormalized ket plus the norm its coefficients had before renormalization.

    ``raw_norm`` tends to 1 as the truncation grows; 1 - raw_norm^2 is the
    weight lost to the cut.
    """

    ket: FockKet
    raw_norm: float

    @property
    def deficit(self) -> float:
        return 1.0 - self.raw_norm**2


def rindler_space(n_max: int) -> TensorSpace:
    d = n_max + 1
    return TensorSpace(((REGION_I, d), (REGION_II, d)))


def joint_space(n_max: int) -> TensorSpace:
    d = n_max + 1
    return TensorSpace(((ALICE, ALICE_DIM), (REGION_I, d), (REGION_II, d)))


def unruh_vacuum_ket(r: float, n_max: int) -> TruncatedKet:
    """Truncated two-mode squeezed vacuum sum_n f(n)|n>_I |n>_II, renormalized."""
    f = vacuum_coefficients(r, n_max)
    amp = np.diag(f.astype(complex))
    raw = float(np.linalg.norm(f))
    return TruncatedKet(FockKet(rindler_space(n_max), amp.ravel() / raw), raw)


def _excitation_amplitudes(r: float, weights: UnruhWeights, n_max: int) -> np.ndarray:
    # sum_n f(n) sqrt(n+1)/cosh(r) (q_L |n, n+1> + q_R |n+1, n>); the n+1
    # occupation caps the sum at n = n_max - 1 on the truncated space
    f = vacuum_coefficients(r, n_max)
    base = f[:n_max] * np.sqrt(np.arange(n_max) + 1.0) / math.cosh(r)
    return np.diag(weights.q_l * base, 1) + np.diag(weights.q_r * base, -1)


def unruh_excitation_ket(scenario: BosonScenario) -> TruncatedKet:
    """Truncated single Unruh excitation on the squeezed vacuum, renormalized."""
    n_max = scenario.truncation.n_max
    amp = _excitation_amplitudes(scenario.squeezing.r, scenario.weights, n_max)
    raw = float(np.linalg.norm(amp))
    return TruncatedKet(FockKet(rindler_space(n_max), amp.ravel() / raw), raw)


def joint_state(scenario: BosonScenario) -> TruncatedKet:
    """(|0>_M |vac> + |1>_M |excitation>)/sqrt(2) on (M, I, II), renormalized.

    The two branches enter with their exact (untruncated-state) weights and a
    single global renormalization is applied afterwards, so raw amplitudes can
    be recovered by multiplying with ``raw_norm``.
    """
    r = scenario.squeezing.r
    n_max = scenario.truncation.n_max
    d = n_max + 1
    f = vacuum_coefficients(r, n_max)
    psi = np.zeros((ALICE_DIM, d, d), dtype=complex)
    idx = np.arange(d)
    psi[0, idx, idx] = f / math.sqrt(2.0)
    psi[1] = _excitation_amplitudes(r, scenario.weights, n_max) / math.sqrt(2.0)
    raw = float(np.linalg.norm(psi))
    return TruncatedKet(FockKet(joint_space(n_max), psi.ravel() / raw), raw)


def rho_alice_rob(scenario: BosonScenario) -> DensityOperator:
    """Reduced state on (M, I) after tracing out the region-II factor."""
    return reduced_density(joint_state(scenario).ket, (ALICE, REGION_I))


def rho_alice_antirob(scenario: BosonScenario) -> DensityOperator:
    """Reduced state on (M, II) after tracing out the region-I factor.

    Equals ``rho_alice_rob`` with q_R and q_L exchanged, up to the I <-> II
    relabeling; computed here by an independent trace so the swap rule can be
    cross-checked.
    """
    return reduced_density(joint_state(scenario).ket, (ALICE, REGION_II))


@dataclass(frozen=True)
class ConvergenceReport:
    """How a negativity pair was obtained and how well it converged.

    For the dense method ``tail_weight`` is the discarded squeezed-vacuum
    weight at ``n_max_used`` and the deltas compare the n_max and n_max + 5
    runs.  For the block series ``n_max_used`` is the number of terms
    summed exactly, ``tail_weight`` the bound on the error of the value and
    the deltas the integral tail added beyond them.
    """

    method: str
    n_max_used: int
    tail_weight: float
    delta_ar: float
    delta_aar: float
    converged: bool


@dataclass(frozen=True)
class NegativityPair:
    n_ar: float
    n_aar: float
    report: ConvergenceReport


def _sector_bands(r: float, abs_r: float, abs_l: float, n_max: int) -> tuple[np.ndarray, float]:
    """Parity sectors of the Alice-Rob partial transpose in lower band storage.

    The partial transpose couples |a, m> with |a', m'> (a Alice's occupation,
    m region I's) only when a + m = a' + m' (mod 2).  Sector p holds the
    states |a_i, i> with a_i = (p + i) mod 2, i = 0..n_max, in occupation
    order, and is a real band matrix of bandwidth 2.  With
    b_i = f(i) sqrt(i+1)/cosh(r) (and b_{-1} = b_{n_max} = 0) its entries,
    in units of 1/(2 raw_norm^2) of ``joint_state``, are

        diagonal  f_i^2                               a_i = 0
                  |q_R|^2 b_{i-1}^2 + |q_L|^2 b_i^2   a_i = 1
        offset 1  |q_L| f_{i+1} b_i                   a_i = 0
                  |q_R| f_i b_i                       a_i = 1
        offset 2  |q_L| |q_R| b_i b_{i+1}             a_i = 1 (0 where a_i = 0)

    Local phases on M, I and II remove the phases of the weights exactly,
    so only their magnitudes enter.  Returns the (2, 3, n_max + 1) bands
    and the unit 2 raw_norm^2.
    """
    d = n_max + 1
    i = np.arange(d)
    f = vacuum_coefficients(r, n_max)
    # b[k + 1] = b_k, so the padding gives b_{-1} = b_{n_max} = b_{n_max+1} = 0
    b = np.zeros(d + 2)
    b[1:d] = f[:n_max] * np.sqrt(i[:n_max] + 1.0) / math.cosh(r)
    b_prev, b_i, b_next = b[:d], b[1 : d + 1], b[2:]
    f_next = np.append(f[1:], 0.0)
    empty = np.stack([f * f, abs_l * f_next * b_i, np.zeros(d)])
    occupied = np.stack([
        abs_r**2 * b_prev**2 + abs_l**2 * b_i**2,
        abs_r * f * b_i,
        abs_l * abs_r * b_i * b_next,
    ])
    odd = i % 2 == 1
    bands = np.stack([np.where(odd, occupied, empty), np.where(odd, empty, occupied)])
    norm = float(f @ f) + (abs_r**2 + abs_l**2) * float(b_i @ b_i)
    return bands, norm


def _sector_negativity(r: float, abs_r: float, abs_l: float, n_max: int) -> float:
    # imported here so that importing the package does not load scipy.linalg
    from scipy.linalg import eig_banded

    bands, norm = _sector_bands(r, abs_r, abs_l, n_max)
    eigs = np.concatenate([eig_banded(band, lower=True, eigvals_only=True) for band in bands])
    return negativity_from_eigenvalues(eigs / norm).value


def _dense_pair(scenario: BosonScenario, n_max: int) -> tuple[float, float]:
    # Alice-AntiRob is Alice-Rob with the weights exchanged (I <-> II relabeling)
    r, weights = scenario.squeezing.r, scenario.weights
    return (
        _sector_negativity(r, weights.abs_r, weights.abs_l, n_max),
        _sector_negativity(r, weights.abs_l, weights.abs_r, n_max),
    )


def _qops_pair(scenario: BosonScenario, n_max: int) -> tuple[float, float]:
    """``_dense_pair`` by the general tensor route; the test oracle of the sector engine."""
    sc = replace(scenario, truncation=BosonTruncation(n_max))
    ket = joint_state(sc).ket
    n_ar = negativity(reduced_density(ket, (ALICE, REGION_I)), ALICE).value
    n_aar = negativity(reduced_density(ket, (ALICE, REGION_II)), ALICE).value
    return n_ar, n_aar


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # imported on first use, so that importing the package does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    return leggauss(20)


def _block_series(r: float) -> tuple[float, float, int, float]:
    """Negativity series for the q_R = 1 partial transpose, with a certified bound.

    The 2x2 sector spanned by {|0, n+1>, |1, n>} has entries, in units of
    the overall 1/2 prefactor of the state,

        [[ f(n+1)^2,                 f(n)^2 sqrt(n+1)/cosh(r) ],
         [ f(n)^2 sqrt(n+1)/cosh(r), n f(n-1)^2 / cosh^2(r)   ]]

    and determinant -T^{2n}/(4 cosh^6 r), T = tanh^2 r, so one negative
    eigenvalue; the determinant over the larger eigenvalue gives it without
    cancellation as h(n) = e^{-kn} / (2 cosh^3(r) nu(n)), with
    nu(x) = (s + x/s)/2 + sqrt(p(x)), p(x) = (s - x/s)^2/4 + x + 1,
    s = sinh(r) tanh(r) and k = -ln T.  The first N = min(4096, 60/k) terms
    are summed exactly; the rest is int_N^X h + h(N)/2 - h'(N)/12, with
    e^{-kX} < e^{-60}, on 20-point Gauss-Legendre panels that double from N
    (the scale x) up to the length 1/k (the scale of e^{-kx}).

    Bound: 1/nu = sqrt(p) - (s + x/s)/2, p of discriminant -1/s^2 < 0, is
    convex and tends to 0, so 1/nu and h are positive, decreasing and convex.
    Then the Euler-Maclaurin remainder -1/2 int_N^inf B2({x}) h'' dx, with
    B2 in [-1/12, 1/6], lies in [h'(N)/12, -h'(N)/24], and the cut at X adds
    at most h(X)/k.  The bound returned is |h'(N)|/12 + h(X)/k + 16 eps
    value, the last term for rounding.  The roots -s^2 +- 2is of p lie a
    panel length or more left of each panel, so the quadrature error,
    ~(3 + sqrt 8)^-40, is far below it.  Below T = 1e-300 the value is 1/2
    with bound s; past r ~ 353, where 60/k overflows and the value (about
    0.3 k) is below 1e-306, it is 0 with bound k.
    Returns (value, bound, N, tail beyond the head).
    """
    t = math.tanh(r)
    if t * t < 1e-300:  # N = 1/2 - s (1 + O(r^2)), where n/s would overflow
        return 0.5, math.sinh(r) * t, 1, 0.0
    k = -2.0 * math.log(t) if r < 0.5 else 4.0 * math.atanh(math.exp(-2.0 * r))
    if k * sys.float_info.max < _SERIES_DECAY:  # 60/k overflows; the value is about 0.3 k
        return 0.0, k, 0, 0.0
    c, s = math.cosh(r), math.sinh(r) * t

    def terms(x):  # h(x) in units of 1/(2 s cosh^3 r)
        nu = 0.5 * (s + x / s) + np.hypot(0.5 * (s - x / s), np.sqrt(x + 1.0))
        return np.exp(-k * x) * (s / nu)

    n_head = min(_SERIES_HEAD, math.ceil(_SERIES_DECAY / k))
    edges = [float(n_head)]
    while k * edges[-1] < _SERIES_DECAY:
        edges.append(edges[-1] + min(edges[-1], 1.0 / k))
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    nodes, weights = _gauss_legendre()
    h = terms(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)) * (0.5 * (hi - lo) * weights)
    # -h'/h = k + nu'/nu, via s nu = (s^2 + x)/2 + w, w = s sqrt(p), w' = (s^2 + x)/(4w)
    w = math.hypot(0.5 * (s * s - n_head), s * math.sqrt(n_head + 1.0))
    h_n = float(terms(float(n_head)))
    slope = h_n * (k + (0.5 + 0.25 * (s * s + n_head) / w) / (0.5 * (s * s + n_head) + w))
    tail = math.fsum(h.ravel()) + 0.5 * h_n + slope / 12.0
    total = math.fsum(np.append(terms(np.arange(n_head, dtype=float)), tail))
    # divided one factor at a time, so that no intermediate overflows
    value, tail, bound = (x / (2.0 * s) / c / c / c for x in (
        total, tail, slope / 12.0 + float(terms(edges[-1])) / k))
    bound += 16.0 * sys.float_info.epsilon * value
    return value, bound, n_head, tail


def _pair_blocks(scenario: BosonScenario, delta_tol: float) -> NegativityPair:
    # For q_R = 1 the Alice-AntiRob partial transpose splits into 2x2 sectors
    # with positive determinant and trace, so that side is exactly 0; the swap
    # rule maps the q_L = 1 case onto the same pair reversed.
    value, bound, n_used, tail = _block_series(scenario.squeezing.r)
    converged = bound <= delta_tol * max(value, 1e-15)  # absolute once the value underflows
    rob_side = scenario.weights.abs_l <= EXTREMAL_TOL
    n_ar, n_aar = (value, 0.0) if rob_side else (0.0, value)
    delta_ar, delta_aar = (tail, 0.0) if rob_side else (0.0, tail)
    report = ConvergenceReport("blocks", n_used, bound, delta_ar, delta_aar, converged)
    return NegativityPair(n_ar, n_aar, report)


def bosonic_negativity_pair(
    scenario: BosonScenario,
    *,
    method: str = "auto",
    n_max_cap: int = N_MAX_CAP,
    delta_tol: float = DELTA_TOL,
    tail_tol: float = TAIL_TOL,
    strict: bool = False,
) -> NegativityPair:
    """Alice-Rob and Alice-AntiRob negativities with a convergence report.

    Parameters
    ----------
    method
        "dense", "blocks" (extremal weights only) or "auto", which picks
        "blocks" when one weight vanishes and "dense" otherwise.
    n_max_cap
        Upper limit for the dense truncation; the starting n_max doubles
        until the squeezed-vacuum tail drops below ``tail_tol`` or the cap
        is hit.
    strict
        Raise ``ConvergenceError`` instead of returning an unconverged pair.
    """
    if method not in ("auto", "dense", "blocks"):
        raise ValueError(f"unknown method {method!r}")
    weights = scenario.weights
    if method == "auto":
        method = "blocks" if weights.minor_weight() <= EXTREMAL_TOL else "dense"
    if method == "blocks":
        if weights.minor_weight() > EXTREMAL_TOL:
            raise ValueError("blocks method requires an extremal weight (|q_R| in {0, 1})")
        pair = _pair_blocks(scenario, delta_tol)
    else:
        r = scenario.squeezing.r
        n = min(max(scenario.truncation.n_max, 1), n_max_cap)
        while BosonTruncation(n).tail_weight(r) > tail_tol and n < n_max_cap:
            n = min(2 * n, n_max_cap)
        tail = BosonTruncation(n).tail_weight(r)
        if tail >= 1.0:
            # tanh r rounds to 1 (r > 19.06): the cut keeps no representable share
            # of the state, and past r ~ 355 its entries underflow or overflow
            report = ConvergenceReport("dense", n, tail, 0.0, 0.0, False)
            pair = NegativityPair(0.0, 0.0, report)
        else:
            n_ar_1, n_aar_1 = _dense_pair(scenario, n)
            n_ar_2, n_aar_2 = _dense_pair(scenario, n + 5)
            delta_ar = abs(n_ar_2 - n_ar_1)
            delta_aar = abs(n_aar_2 - n_aar_1)
            converged = tail <= tail_tol and delta_ar < delta_tol and delta_aar < delta_tol
            report = ConvergenceReport("dense", n, tail, delta_ar, delta_aar, converged)
            pair = NegativityPair(n_ar_1, n_aar_1, report)
    if strict and not pair.report.converged:
        rep = pair.report
        raise ConvergenceError(
            f"negativity not converged at r={scenario.squeezing.r}: method={rep.method}, "
            f"n_max_used={rep.n_max_used}, tail={rep.tail_weight:.3e}, "
            f"deltas=({rep.delta_ar:.3e}, {rep.delta_aar:.3e})"
        )
    return pair


@dataclass(frozen=True)
class BosonCurveRow:
    q_abs: float
    r: float
    n_ar: float
    n_aar: float
    n_max_used: int
    converged: bool


def bosonic_curve(
    q_abs: float,
    r_grid,
    n_max: int = DEFAULT_N_MAX,
    *,
    method: str = "auto",
    n_max_cap: int = N_MAX_CAP,
    delta_tol: float = DELTA_TOL,
    tail_tol: float = TAIL_TOL,
) -> list[BosonCurveRow]:
    """Negativity pair along a squeezing grid at fixed |q_R|.

    The weights are taken real, q_R = q_abs and q_L = sqrt(1 - q_abs^2);
    the negativities are phase invariant so this loses no generality.
    """
    weights = UnruhWeights.from_abs(q_abs)
    rows = []
    for r in r_grid:
        if r < 0.0:
            raise ValueError(f"grid squeezing values must be >= 0, got {r}")
        scenario = BosonScenario(BosonSqueezing(float(r)), weights, BosonTruncation(n_max))
        pair = bosonic_negativity_pair(
            scenario, method=method, n_max_cap=n_max_cap, delta_tol=delta_tol, tail_tol=tail_tol
        )
        rows.append(
            BosonCurveRow(
                q_abs=float(q_abs),
                r=float(r),
                n_ar=pair.n_ar,
                n_aar=pair.n_aar,
                n_max_used=pair.report.n_max_used,
                converged=pair.report.converged,
            )
        )
    return rows
