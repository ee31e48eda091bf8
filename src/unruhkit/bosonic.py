"""Bosonic Minkowski-Unruh entangled state in the truncated Rindler basis.

The Unruh vacuum at squeezing r is a two-mode squeezed state of Rindler
excitations, sum_n f(n) |n>_I |n>_II with f(n) = tanh^n(r)/cosh(r), and the
general single-particle Unruh excitation carries weights (q_R, q_L) on the
right/left Unruh creators.  This module builds the maximally entangled
Minkowski-Unruh state, the Alice-Rob and Alice-AntiRob reductions obtained
by tracing out one Rindler wedge, and their negativities as functions of
r = artanh(e^{-pi Omega_a / a}).

Two evaluation routes are provided:

* ``dense``: a certified bracket.  The untruncated partial transpose splits
  by parity into two real bandwidth-2 sectors built from f(n)
  (``_sector_bands``); one ``scipy.linalg.eig_banded`` solve of each
  leading (n_max+1)-level block gives a lower bound, and on the minor side
  a sector that ``cholesky_banded`` factors adds exactly 0 unsolved.  A
  closed form bounds what the cut leaves out (``_bracket_width``).  A point
  is converged when each width is at most delta_tol * max(N, 0.1), so an
  exact 0 is certified to 1e-7.  n_max doubles until the squeezed-vacuum
  tail tanh^{2(n_max+1)} r is below ``tail_tol`` or reaches ``n_max_cap``;
  past r = 19.06 (tanh r = 1) the route reports 0 unconverged unevaluated.
  The labelled-tensor route (``qops``) is the sector engine's test oracle.

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
from contextlib import suppress
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
    weight at ``n_max_used``, each negativity is the lower end of a
    certified bracket and its delta the bracket's width, so the exact value
    lies in [N, N + delta].  For the block series ``n_max_used`` is the
    number of terms summed exactly, ``tail_weight`` the bound on the error
    of the value and the deltas the integral tail added beyond them.
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


def _sector_bands(r: float, abs_r: float, abs_l: float, n_max: int) -> np.ndarray:
    """Parity sectors of the Alice-Rob partial transpose in lower band storage.

    The partial transpose couples |a, m> with |a', m'> (a Alice's occupation,
    m region I's) only when a + m = a' + m' (mod 2).  Sector p holds the
    states |a_i, i> with a_i = (p + i) mod 2, i = 0..n_max, in occupation
    order, and is a real band matrix of bandwidth 2.  With
    b_i = f(i) sqrt(i+1)/cosh(r) (and b_{-1} = 0) its entries, in units of
    the state's 1/2, are

        diagonal  f_i^2                               a_i = 0
                  |q_R|^2 b_{i-1}^2 + |q_L|^2 b_i^2   a_i = 1
        offset 1  |q_L| f_{i+1} b_i                   a_i = 0
                  |q_R| f_i b_i                       a_i = 1
        offset 2  |q_L| |q_R| b_i b_{i+1}             a_i = 1 (0 where a_i = 0)

    These are the entries of the untruncated partial transpose (sum f^2 =
    sum b^2 = 1), so the (2, 3, n_max + 1) bands are its exact leading
    principal block, with b_{n_max} on the diagonal.  Local phases on M, I
    and II remove the phases of the weights exactly, so only their
    magnitudes enter.
    """
    d = n_max + 1
    i = np.arange(d)
    f_all = vacuum_coefficients(r, n_max + 1)
    f, f_next = f_all[:d], f_all[1:]
    # b[k + 1] = b_k for k = -1..n_max + 1, with b_{-1} = 0
    b = np.append(0.0, f_all * np.sqrt(np.arange(d + 1) + 1.0) / math.cosh(r))
    b_prev, b_i, b_next = b[:d], b[1 : d + 1], b[2:]
    empty = np.stack([f * f, abs_l * f_next * b_i, np.zeros(d)])
    occupied = np.stack([
        abs_r**2 * b_prev**2 + abs_l**2 * b_i**2,
        abs_r * f * b_i,
        abs_l * abs_r * b_i * b_next,
    ])
    odd = i % 2 == 1
    # LAPACK never reads the band padding past the block
    return 0.5 * np.stack([np.where(odd, occupied, empty), np.where(odd, empty, occupied)])


def _sector_negativity(r: float, abs_r: float, abs_l: float, n_max: int) -> float:
    """Principal-block negativity, one solve per sector; minor-side sectors try Cholesky first.

    A factored sector is positive definite and adds the same 0 its
    eigensolve would, at O(n) instead of a banded eigensolve's cost.
    """
    # imported here so that importing the package does not load scipy.linalg
    from scipy.linalg import cholesky_banded, eig_banded

    eigs = [np.zeros(0)]
    for band in _sector_bands(r, abs_r, abs_l, n_max):
        if abs_r < abs_l:
            with suppress(np.linalg.LinAlgError):
                cholesky_banded(band, lower=True)
                continue  # positive definite: the sector adds 0
        eigs.append(eig_banded(band, lower=True, eigvals_only=True))
    return negativity_from_eigenvalues(np.concatenate(eigs)).value


def _bracket_width(r: float, abs_r: float, abs_l: float, n_max: int) -> float:
    """Bound on the untruncated Alice-Rob negativity minus the principal block's.

    S(A) = -min tr(XA) over 0 <= X <= I (the sum of |negative eigenvalues|)
    is subadditive, and the untruncated sector is diag(P, 0) plus the tail
    diagonal (>= 0) plus a symmetric zero-diagonal O of the entries past
    the cut, with S(O) = ||O||_1 / 2 <= sum_{i<j} |o_ij|.  Over both sectors
    (x = |q_R|, y = |q_L|, t = tanh r, T = t^2, c = cosh r) those are
    (x + y t) T^i sqrt(i+1) / c^3 for i >= n and x y t T^i sqrt((i+1)(i+2))
    / c^4 for i >= n - 1.  Cauchy-Schwarz, sqrt((i+1)(i+2)) <= i + 3/2 and
    sum_{i>=m} T^i = T^m c^2 close them in O(1), in units of the state's 1/2.
    """
    t, c, s2 = math.tanh(r), math.cosh(r), math.sinh(r) ** 2
    edge = t ** (2 * n_max) * math.sqrt(n_max + 1.0 + s2) / c
    second = t ** (2 * n_max - 1) * (n_max + 0.5 + s2) / (c * c)
    return 0.5 * ((abs_r + abs_l * t) * edge + abs_r * abs_l * second)


def _dense_pair(scenario: BosonScenario, n_max: int) -> tuple[float, float]:
    # Alice-AntiRob is Alice-Rob with the weights exchanged (I <-> II relabeling)
    r, weights = scenario.squeezing.r, scenario.weights
    return (
        _sector_negativity(r, weights.abs_r, weights.abs_l, n_max),
        _sector_negativity(r, weights.abs_l, weights.abs_r, n_max),
    )


def _principal_block(
    scenario: BosonScenario, n_max: int, wedge: str
) -> tuple[float, DensityOperator]:
    """Untruncated Alice-``wedge`` state on wedge levels <= n_max, as (weight, normalized state).

    The joint state at truncation n_max + 1 holds every term that reaches
    those levels.  Its reduction, sliced to them and scaled back by
    raw_norm^2, is a block of trace ``weight`` < 1 whose partial transpose
    on M (slicing commutes with it) is the exact leading principal block of
    the untruncated one; the state is that block over ``weight``.
    """
    built = joint_state(replace(scenario, truncation=BosonTruncation(n_max + 1)))
    keep = np.add.outer(np.arange(ALICE_DIM) * (n_max + 2), np.arange(n_max + 1)).ravel()
    block = reduced_density(built.ket, (ALICE, wedge)).matrix[np.ix_(keep, keep)]
    trace = float(np.trace(block).real)
    space = TensorSpace(((ALICE, ALICE_DIM), (wedge, n_max + 1)))
    return built.raw_norm**2 * trace, DensityOperator(space, block / trace)


def _qops_pair(scenario: BosonScenario, n_max: int) -> tuple[float, float]:
    """``_dense_pair`` by the general tensor route, the sector engine's test oracle."""
    pair = []
    for wedge in (REGION_I, REGION_II):
        weight, rho = _principal_block(scenario, n_max, wedge)
        pair.append(weight * negativity(rho, ALICE).value)
    return pair[0], pair[1]


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
    delta_tol
        Bound on each dense bracket width relative to max(value, 0.1), and
        on the block series bound relative to the value.
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
            values = _dense_pair(scenario, n)
            widths = (_bracket_width(r, weights.abs_r, weights.abs_l, n),
                      _bracket_width(r, weights.abs_l, weights.abs_r, n))
            # relative, and absolute below 0.1: a certified 0 has width <= 1e-7
            converged = all(w <= delta_tol * max(v, 0.1) for v, w in zip(values, widths))
            report = ConvergenceReport("dense", n, tail, *widths, converged)
            pair = NegativityPair(*values, report)
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
