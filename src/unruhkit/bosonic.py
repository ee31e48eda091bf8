"""Bosonic Minkowski-Unruh entangled state in the truncated Rindler basis.

The Unruh vacuum at squeezing r is a two-mode squeezed state of Rindler
excitations, sum_n f(n) |n>_I |n>_II with f(n) = tanh^n(r)/cosh(r), and the
general single-particle Unruh excitation carries weights (q_R, q_L) on the
right/left Unruh creators.  This module builds the maximally entangled
Minkowski-Unruh state and the negativities of its Alice-Rob and
Alice-AntiRob reductions (one Rindler wedge traced out) as functions of
r = artanh(e^{-pi Omega_a / a}).

Two evaluation routes are provided:

* ``dense``: a certified bracket.  The untruncated partial transpose splits
  by parity into two real bandwidth-2 sectors (``_sector_bands``); a LAPACK
  ?sbevd solve of each leading block gives the lower end, and a closed form
  of what the cut leaves out (``_bracket_widths``) the width to the upper
  one (levels: ``_dense_pairs``; threads: ``_principal_negativities``).
  Eliminating a sector's Alice-empty states leaves a diagonal Schur
  complement (f_{j-1} f_{j+1} = f_j^2 cancels the offset-2 entries), T^{i-1}
  (y^2 T - x^2) / (2 c^4) at occupied level i, with (x, y) = (|q_R|, |q_L|)
  on Alice-Rob, exchanged on Alice-AntiRob, T = tanh^2 r and c = cosh r.  By
  inertia additivity (Haynsworth, Linear Algebra Appl. 1, 1968) a side and
  its principal blocks are then positive semidefinite iff y^2 T >= x^2:
  N_AR = 0 exactly iff tanh r >= |q_R|/|q_L|, or a >= pi Omega_a /
  ln(|q_L|/|q_R|), a threshold derived here (the paper does not state it).
  Such a side is not solved, and both its ends are 0 (``_zero_sides``).
  Past tanh r = 1 (r = 19.06) a row is 0 unevaluated, with ends 0 and inf.
  ``_qops_pair``, ``qops`` on the raw ``joint_state``, is the test oracle.

* ``blocks``: for the extremal weights |q_R| in {0, 1} the partial
  transpose is block diagonal in 2x2 sectors and the negativity is an
  explicit series over analytic block eigenvalues in the untruncated
  space: a pairwise sum of the terms down to e^-60, or of 64 terms where
  that would pass 4096 (r > 2.81), plus an Euler-Maclaurin integral tail
  on panels, all from one pass of the term kernel (``_series_terms``),
  O(1) work at any squeezing, with a bound on the error (from the signs of
  the terms' derivatives) that sets the ends either side of the value.

Every function takes the squeezing r (``squeezing_from_acceleration``
gives it from Omega_a and a) and the ``UnruhWeights``;
``bosonic_negativity_pair`` (one r) and ``bosonic_curve`` (a grid) take no
options: an extremal weight (the smaller of |q_R|, |q_L| at most
``EXTREMAL_TOL``) goes to the series and every other weight to the dense
engine.  The test suite calls both engines on their common domain and pins
their agreement.  Every row carries the ends it certifies for N_AR and
N_AAR, and one rule over them decides ``converged`` (``_pair``).
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import sys
import threading
from functools import cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .qops import (NEGATIVITY_CUTOFF, DensityOperator, FockKet, TensorSpace, floor_amplitudes, negativity,
                   reduced_density)
from .weights import UnruhWeights

N_MAX_CAP = 120
DELTA_TOL = 1e-6
#: a weight this close to 0 switches the pair evaluation to the block series
EXTREMAL_TOL = 1e-12

ALICE = "M"
REGION_I = "I"
REGION_II = "II"

#: the input state never populates Minkowski occupations above 1
ALICE_DIM = 2

#: a block-series row whose head would pass this many terms sums _TAIL_HEAD and integrates the rest
_SERIES_HEAD, _TAIL_HEAD = 4096, 64
#: its head and tail follow the terms down to e^-60 < 1e-26 of the first
_SERIES_DECAY = 60.0

#: rows x levels per band build of both sides: at most 0.8 MB of bands, however many points
_CHUNK_ELEMENTS = 1 << 13


def squeezing_from_acceleration(omega_a: float, a: float) -> float:
    """r = artanh(e^{-2z}) = -ln(tanh z) / 2 with z = pi omega_a / (2a).

    artanh is exact while e^{-2z} is small; below z = 1 the tanh form
    keeps the digits that 1 - e^{-2z} would lose.  r is infinite once
    z underflows to 0.
    """
    if not (omega_a > 0.0 and a > 0.0) or omega_a == a == math.inf:  # NaN and inf/inf fail
        raise ValueError(f"omega_a and a must be > 0 and not both inf, got {omega_a}, {a}")
    z = omega_a / a * (0.5 * math.pi)  # the ratio first: pi omega_a may overflow or underflow
    if z >= 1.0:
        return math.atanh(math.exp(-2.0 * z))
    t = math.tanh(z)
    return -0.5 * math.log(t) if t > 0.0 else math.inf


def _check_r(r) -> np.ndarray:
    """r (one value or a grid) as a flat float array; NaN and negative r raise."""
    r = np.asarray(r, dtype=float).ravel()
    bad = ~(r >= 0.0)
    if bad.any():
        raise ValueError(f"squeezing parameter must be >= 0, got {r[bad][0]}")
    return r


def _check_cut(n_max, least: int) -> int:
    """n_max as an int; a TypeError if it is not an integer, a ValueError below ``least``."""
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise TypeError(f"n_max must be an integer, got {n_max!r}") from None
    if n_max < least:
        raise ValueError(f"n_max must be >= {least}, got {n_max}")
    return n_max


def vacuum_coefficients(r: float | np.ndarray, n_max: int) -> np.ndarray:
    """f[..., n] = tanh^n(r)/cosh(r) for n = 0..n_max; sum of squares tends to 1 as n_max grows."""
    _check_r(r)
    r = np.asarray(r, dtype=float)[..., None]
    n = np.arange(_check_cut(n_max, 0) + 1)
    return np.tanh(r) ** n / np.cosh(r)


def joint_state(r: float, weights: UnruhWeights, n_max: int) -> FockKet:
    """(|0>_M |vac> + |1>_M |excitation>)/sqrt(2) on (M, I, II), cut at n_max.

    Every amplitude is that of the untruncated state, so the ket is not
    renormalised: its squared norm falls short of 1 by the weight the cut
    discards.  The excitation sum_n f(n) sqrt(n+1)/cosh(r) (q_L |n, n+1> +
    q_R |n+1, n>) stops at n = n_max - 1, where n + 1 reaches the cut.
    """
    n_max = _check_cut(n_max, 1)
    d = n_max + 1
    f = vacuum_coefficients(r, n_max)
    psi = np.zeros((ALICE_DIM, d, d), dtype=complex)
    idx = np.arange(d)
    psi[0, idx, idx] = f / math.sqrt(2.0)
    base = f[:n_max] * np.sqrt(np.arange(n_max) + 1.0) / math.cosh(r)
    psi[1] = (np.diag(weights.q_l * base, 1) + np.diag(weights.q_r * base, -1)) / math.sqrt(2.0)
    return FockKet(TensorSpace(((ALICE, ALICE_DIM), (REGION_I, d), (REGION_II, d))), psi.ravel())


class ConvergenceReport(NamedTuple):
    """How a negativity pair was obtained, and the ends it certifies.

    The exact N_AR lies in [lo[0], hi[0]] and N_AAR in [lo[1], hi[1]];
    ``tail_weight`` is the farthest a value lies from its ends, and
    ``converged`` is the one rule of ``_pair``.  ``n_max_used`` is the level
    the dense widths picked (see ``_dense_pairs``), or the number of terms
    the block series summed directly.
    """

    method: str
    n_max_used: int
    tail_weight: float
    lo: tuple[float, float]
    hi: tuple[float, float]
    converged: bool


class NegativityPair(NamedTuple):
    n_ar: float
    n_aar: float
    report: ConvergenceReport


def _pair(ar: tuple, aar: tuple, method: str, n_used: int) -> NegativityPair:
    """The pair of (value, lo, hi) triples, judged by the one convergence rule.

    Each value's farther end must lie within DELTA_TOL max(value, floor):
    0.1 on the dense route, so a 0 that ``_zero_sides`` leaves to ?sbevd is
    certified to 1e-7, and 1e-15 on the block series, which may underflow.
    """
    (n_ar, lo_ar, hi_ar), (n_aar, lo_aar, hi_aar) = ar, aar
    floor = 0.1 if method == "dense" else 1e-15
    far_ar, far_aar = max(n_ar - lo_ar, hi_ar - n_ar), max(n_aar - lo_aar, hi_aar - n_aar)
    converged = far_ar <= DELTA_TOL * max(n_ar, floor) and far_aar <= DELTA_TOL * max(n_aar, floor)
    report = ConvergenceReport(method, n_used, max(far_ar, far_aar), (lo_ar, lo_aar), (hi_ar, hi_aar), converged)
    return NegativityPair(n_ar, n_aar, report)


def _sector_bands(r: float | np.ndarray, abs_r: float, abs_l: float, n_max: int) -> np.ndarray:
    """Parity sectors of the Alice-Rob and Alice-AntiRob partial transposes in lower band storage.

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
    sum b^2 = 1), so the first n + 1 columns of the (2, 3, n_max + 1) bands
    are its exact leading principal block at any level n <= n_max, with b_n
    on the diagonal.  Local phases on M, I and II remove the phases of the
    weights exactly, so only their magnitudes enter.  Alice-AntiRob is
    Alice-Rob with the weights exchanged (I <-> II relabeling); an array of
    m squeezing values gives shape (m, 2, 2, 3, n_max + 1): row, side,
    sector, band, level.
    """
    d = n_max + 1
    f_all = vacuum_coefficients(r, n_max + 1)
    # math.cosh, not np.cosh: the two differ in the last bit for some r
    cosh = np.reshape([math.cosh(x) for x in np.ravel(r)], np.shape(r) + (1,))
    # b[..., k + 1] = b_k for k = -1..n_max + 1, with b_{-1} = 0
    b = np.concatenate([np.zeros_like(cosh), f_all * np.sqrt(np.arange(d + 1) + 1.0) / cosh],
                       axis=-1)
    # a side axis, on which the weights (x, y) are (|q_R|, |q_L|) and then (|q_L|, |q_R|)
    f, f_next = f_all[..., None, :d], f_all[..., None, 1:]
    b_prev, b_i, b_next = b[..., None, :d], b[..., None, 1 : d + 1], b[..., None, 2:]
    x, x2 = np.array([[abs_r], [abs_l]]), np.array([[abs_r**2], [abs_l**2]])
    y, y2 = x[::-1], x2[::-1]
    empty = (f * f, y * f_next * b_i)  # offset 2 is 0 there
    occupied = (x2 * b_prev**2 + y2 * b_i**2, x * f * b_i, abs_l * abs_r * b_i * b_next)
    # LAPACK never reads the band padding past the block
    out = np.zeros(np.shape(r) + (2, 2, 3, d))
    for p in (0, 1):  # sector p: empty at the levels i = p (mod 2), occupied at the others
        for start, rows in ((p, empty), (1 - p, occupied)):
            for band, row in enumerate(rows):
                out[..., p, band, start::2] = row[..., start::2]
    return np.multiply(out, 0.5, out=out)


def _flapack_path() -> str | None:
    """The file of scipy.linalg's f2py LAPACK extension, found without importing scipy."""
    from importlib import machinery, util
    spec = util.find_spec("scipy")
    paths = (os.path.join(root, "linalg", "_flapack" + suffix)
             for root in (spec.submodule_search_locations if spec else ())
             for suffix in machinery.EXTENSION_SUFFIXES)
    return next(filter(os.path.isfile, paths), None)


@cache
def _lapack() -> Callable[[np.ndarray], tuple[np.ndarray, int]]:
    # ?sbevd of that extension, loaded by file path on first dense use (not importing scipy.linalg), called at its
    # Fortran entry point by ctypes, which releases the GIL: arguments by reference, then each character's length
    from importlib import util
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None and (path := _flapack_path()) is not None:
        spec = util.spec_from_file_location(name, path)
        sys.modules[name] = flapack = util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
    if flapack is None:
        from scipy.linalg import lapack as flapack  # the objects get_lapack_funcs returns
    ptr, char, size, c_int, byref = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t, ctypes.c_int, ctypes.byref
    entry = ctypes.PYFUNCTYPE(ptr, ctypes.py_object, char)(("PyCapsule_GetPointer", ctypes.pythonapi))
    dsbevd = ctypes.CFUNCTYPE(None, char, char, *[ptr] * 12, size, size)(entry(flapack.dsbevd._cpointer, None))
    fixed = (c_int * 4)(2, 3, 1, 1)  # KD, LDAB, LDZ, LIWORK: only read, so every thread shares them
    kd, ldab, ldz, liwork = (byref(fixed, 4 * i) for i in range(4))

    def sbevd(band):  # the eigenvalues of a lower band (3, N), and INFO
        n = band.shape[1]  # buf: AB, W, WORK (3N + 3 >= N + LWORK); ints: N, LWORK (JOBZ = 'N'), IWORK, INFO
        buf, ints = np.empty((2 * n + 1, 3)), (c_int * 4)(n, max(1, 2 * n))
        buf[:n] = band.T
        a = ctypes.c_double.from_buffer(buf)
        dsbevd(b"N", b"L", ints, kd, byref(a), ldab, byref(a, 24 * n), None, ldz,
               byref(a, 32 * n), byref(ints, 4), byref(ints, 8), liwork, byref(ints, 12), 1, 1)
        return buf.ravel()[3 * n : 4 * n], ints[3]

    return sbevd


def _zero_sides(r: float, abs_r: float, abs_l: float) -> tuple[bool, bool]:
    """(N_AR, N_AAR) == 0 as the Schur identity (module docstring) certifies them: y^2 T >= x^2.

    The test fl(fl(y y) fl(t t)) > fl(fl(x x) (1 + 2^-48)) errs only towards
    ?sbevd.  Each rounding is a factor 1 +- u, u = 2^-53 (x > EXTREMAL_TOL
    leaves no operand subnormal where it holds), and t = math.tanh r is taken
    within 4 ulps, 8u (twice the worst of 2e5 draws against 200-bit values):
    the left side is below y^2 T (1 + 20u), the right above x^2 (1 + 29u).
    It fails unaided at r = 0 (t = 0), at |q_R| = |q_L| and on the major
    side (fl(t t) <= 1); ``_dense_pairs`` never asks past tanh r = 1.
    """
    t, x2, y2 = math.tanh(r), abs_r * abs_r, abs_l * abs_l
    return y2 * (t * t) > x2 * (1.0 + 2.0**-48), x2 * (t * t) > y2 * (1.0 + 2.0**-48)


def _principal_negativities(r: np.ndarray, n_max: list[int], abs_r: float, abs_l: float) -> np.ndarray:
    """(N_AR, N_AAR) of the leading (n_max + 1)-level blocks, one row per r and its n_max.

    A chunk of rows shares one band build at its top level; each row is
    solved on its leading n_max + 1 columns, each sector by one LAPACK ?sbevd
    without the GIL (the bands' finiteness test and ``info`` stand in for
    scipy's wrapper checks), bar the sides ``_zero_sides`` certifies as 0.
    N is minus the sum of the eigenvalues below NEGATIVITY_CUTOFF.  With k =
    min(CPUs the process may use, rows in the chunk), the calling thread
    solves rows 0::k and k - 1 threads rows j::k, joined chunk by chunk.
    """
    sbevd = _lapack()
    values = np.zeros((r.size, 2))
    zeros = [_zero_sides(x, abs_r, abs_l) for x in r.tolist()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

    def solve(rows: list, errors: list) -> None:
        try:
            for row, n, sides, zero in rows:  # each row writes only its own values
                for side in [s for s in (0, 1) if not zero[s]]:  # a certified side keeps its 0
                    spectra, infos = zip(*[sbevd(band) for band in sides[side, ..., : n + 1]])
                    if any(infos):
                        raise np.linalg.LinAlgError(f"sbevd failed with info={max(infos, key=abs)}")
                    spectrum = np.concatenate(spectra)
                    values[row, side] = float(-spectrum[spectrum < NEGATIVITY_CUTOFF].sum()) + 0.0  # not -0.0
        except BaseException as exc:  # raised again by the calling thread once every thread has joined
            errors.append(exc)

    step = max(1, _CHUNK_ELEMENTS // (max(n_max, default=0) + 1))
    for start in range(0, r.size, step):
        levels = n_max[start : start + step]
        bands = _sector_bands(r[start : start + step], abs_r, abs_l, max(levels))
        if not np.isfinite(bands).all():
            raise ValueError("array must not contain infs or NaNs")
        rows, errors, k = list(zip(range(start, r.size), levels, bands, zeros[start:])), [], min(cpus, len(levels))
        workers = [threading.Thread(target=solve, args=(rows[j::k], errors)) for j in range(1, k)]
        for worker in workers:
            worker.start()
        solve(rows[::k], errors)
        for worker in workers:
            worker.join()
        if errors:
            raise errors[0]
    return values


def _bracket_widths(r: float, abs_r: float, abs_l: float, n_max: int) -> tuple[float, float]:
    """Bounds on the untruncated (N_AR, N_AAR) minus the principal blocks'.

    S(A) = -min tr(XA) over 0 <= X <= I (the sum of |negative eigenvalues|)
    is subadditive, and the untruncated sector is diag(P, 0) plus the tail
    diagonal (>= 0) plus a symmetric zero-diagonal O of the entries past
    the cut, with S(O) = ||O||_1 / 2 <= sum_{i<j} |o_ij|.  Over both sectors
    (x = |q_R|, y = |q_L|, t = tanh r, T = t^2, c = cosh r) those are
    (x + y t) T^i sqrt(i+1) / c^3 for i >= n and x y t T^i sqrt((i+1)(i+2))
    / c^4 for i >= n - 1.  Cauchy-Schwarz, sqrt((i+1)(i+2)) <= i + 3/2 and
    sum_{i>=m} T^i = T^m c^2 close them in O(1), in units of the state's 1/2.
    Alice-AntiRob is the same with x and y exchanged.
    """
    t, c, s2 = math.tanh(r), math.cosh(r), math.sinh(r) ** 2
    edge = t ** (2 * n_max) * math.sqrt(n_max + 1.0 + s2) / c
    second = t ** (2 * n_max - 1) * (n_max + 0.5 + s2) / (c * c)
    both = abs_r * abs_l * second
    return 0.5 * ((abs_r + abs_l * t) * edge + both), 0.5 * ((abs_l + abs_r * t) * edge + both)


def _dense_pairs(r: np.ndarray, weights: UnruhWeights) -> Iterator[NegativityPair]:
    """The dense route on a squeezing grid, each row solved at its own truncation level.

    Each row takes the first n of the ladder 1, 2, 4, ..., N_MAX_CAP at which
    both bracket widths are at most 0.1 DELTA_TOL, which certifies any value,
    or the cap, and then the width 0 on a side that ``_zero_sides``
    certifies.  Both widths fall strictly with n, so bisection finds that
    level in at most 4 width evaluations.
    """
    abs_r, abs_l = weights.abs_r, weights.abs_l
    ladder = [min(1 << i, N_MAX_CAP) for i in range((N_MAX_CAP - 1).bit_length() + 1)]
    levels = []
    for x in r.tolist():
        if math.tanh(x) == 1.0:
            # r > 19.06: the cut keeps no representable share of the state, and
            # past r ~ 710 cosh r overflows, so no width is formed; it counts as inf
            levels.append((N_MAX_CAP, (math.inf, math.inf)))
            continue
        lo, hi, widths = 0, len(ladder) - 1, {}
        while lo < hi:  # the cap at hi is taken whatever its widths
            mid = (lo + hi) // 2
            widths[mid] = _bracket_widths(x, abs_r, abs_l, ladder[mid])
            lo, hi = (lo, mid) if max(widths[mid]) <= 0.1 * DELTA_TOL else (mid + 1, hi)
        widths = widths.get(lo) or _bracket_widths(x, abs_r, abs_l, ladder[lo])
        levels.append((ladder[lo], tuple(0.0 if z else w for w, z in zip(widths, _zero_sides(x, abs_r, abs_l)))))
    rows = [i for i, (_, widths) in enumerate(levels) if widths[0] < math.inf]  # the others stay 0
    values = np.zeros((r.size, 2))
    values[rows] = _principal_negativities(r[rows], [levels[i][0] for i in rows], abs_r, abs_l)
    for (n, (w_ar, w_aar)), (n_ar, n_aar) in zip(levels, values.tolist()):
        yield _pair((n_ar, n_ar, n_ar + w_ar), (n_aar, n_aar, n_aar + w_aar), "dense", n)


def _dense_pair(r: float, weights: UnruhWeights, n_max: int) -> tuple[float, float]:
    """Principal-block pair at exactly n_max levels: the dense engine on a one-point grid."""
    return tuple(_principal_negativities(np.array([r]), [n_max], weights.abs_r, weights.abs_l)[0].tolist())


def _principal_block(
    r: float, weights: UnruhWeights, n_max: int, wedge: str
) -> tuple[float, DensityOperator]:
    """Untruncated Alice-``wedge`` state on wedge levels <= n_max, as (weight, normalized state).

    The raw joint state at truncation n_max + 1 holds every term that
    reaches those levels.  Its reduction, sliced to them, is a block of
    trace ``weight`` < 1 whose partial transpose on M (slicing commutes with
    it) is the exact leading principal block of the untruncated one; the
    state is that block over ``weight``.
    """
    ket = joint_state(r, weights, n_max + 1)
    ket = FockKet(ket.space, floor_amplitudes(ket.amplitudes))
    keep = np.add.outer(np.arange(ALICE_DIM) * (n_max + 2), np.arange(n_max + 1)).ravel()
    block = reduced_density(ket, (ALICE, wedge)).matrix[np.ix_(keep, keep)]
    weight = float(np.trace(block).real)
    space = TensorSpace(((ALICE, ALICE_DIM), (wedge, n_max + 1)))
    return weight, DensityOperator(space, block / weight)


def _qops_pair(r: float, weights: UnruhWeights, n_max: int) -> tuple[float, float]:
    """``_dense_pair`` by the general tensor route, the sector engine's test oracle."""
    pair = []
    for wedge in (REGION_I, REGION_II):
        weight, rho = _principal_block(r, weights, n_max, wedge)
        pair.append(weight * negativity(rho, ALICE).value)
    return pair[0], pair[1]


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # imported on first use, so that importing the package does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    return leggauss(20)


def _panel_edges(n_head: int, k: float, s2: float) -> np.ndarray:
    """Tail panel edges: from N, each panel min(e + s^2, 4/k) long, to the first k e >= 60.

    An edge past the float range is the largest float, where k e >= 60.
    """
    e, edges, step = float(n_head), [float(n_head)], 4.0 / k
    while k * e < _SERIES_DECAY:
        e = min(e + min(e + s2, step), sys.float_info.max)
        edges.append(e)
    return np.array(edges)


def _series_terms(x: np.ndarray, s: float, k: float) -> np.ndarray:
    """The block series' terms e^{-kx} s/nu (``_block_series``), nu = m + sqrt(m^2 + 1), m = (s + x/s)/2."""
    m = 0.5 * (s + x / s)
    q = np.minimum(m, 1e150)  # from m = 2^27 on sqrt(m^2 + 1) rounds to m, so nu = 2m, and q^2 stays finite
    return np.exp(-k * x) * (s / (m + np.sqrt(q * q + 1.0) + (m - q)))


def _block_series(r: float) -> tuple[float, float, int]:
    """Negativity series for the q_R = 1 partial transpose, with a certified bound.

    The 2x2 sector spanned by {|0, n+1>, |1, n>} has entries, in units of
    the overall 1/2 prefactor of the state,

        [[ f(n+1)^2,                 f(n)^2 sqrt(n+1)/cosh(r) ],
         [ f(n)^2 sqrt(n+1)/cosh(r), n f(n-1)^2 / cosh^2(r)   ]]

    and determinant -T^{2n}/(4 cosh^6 r), T = tanh^2 r, so one negative
    eigenvalue; the determinant over the larger eigenvalue gives it without
    cancellation as h(n) = e^{-kn} / (2 cosh^3(r) nu(n)), with
    nu(x) = m + sqrt(m^2 + 1), m = (s + x/s)/2, s = sinh(r) tanh(r) and
    k = -ln T.  The first N = 60/k terms are summed pairwise (np.sum), or
    the first 64 where N would pass 4096 (k 4096 < 60, r > 2.81); the rest
    is int_N^X h + h(N)/2 - h'(N)/12, plus h'''(N)/720 after 64 terms, with
    e^{-kX} <= e^{-60}, on 20-point Gauss-Legendre panels from N, each as
    long as its left edge e lies right of -s^2 (so e + s^2 doubles) up to
    the length 4/k; where k N >= 60 already there are none, and X = N.

    Bound: with q = sqrt(m^2 + 1), g = 1/nu = q - m has g' = -g/q, g'' =
    q^-3, g''' = -3m q^-5 and g'''' = (12 m^2 - 3) q^-7, and m >= sqrt(x) is
    linear in x, so (-1)^j g^(j) >= 0 for j <= 4 once m >= 1/2; e^{-kx}
    alternates too, so h'' >= 0 everywhere and h'''' >= 0 from N = 64.  The
    Euler-Maclaurin remainder after the h^(2p-1)(N) term is then at most
    |B_2p|/(2p)! int_N^inf |h^(2p)| = |h^(2p-1)(N)| |B_2p|/(2p)!, that is
    |h'(N)|/12, or |h'''(N)|/720 after 64 terms (Davis & Rabinowitz,
    Methods of Numerical Integration, 1984, ch. 2; DLMF 2.10.1), with -h'/h
    = k + u and -h'''/h = k^3 + 3k^2 u + 3k u^2 (1 + p) + 3u^3 p (1 + p),
    u = 1/(2sq) and p = m/q.  The cut at X adds at most h(X)/k.  The bound
    returned is that remainder + h(X)/k + (16 + n) eps value, n the count
    of terms and nodes summed: 16 eps for the terms' rounding and n eps for
    gamma_{n-1}, which bounds a sum of n positive terms in any order
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec.
    4.2).  The roots -s^2 +- 2is of m^2 + 1 lie a panel length L or more
    left of each panel [e, e + L], so on its rho = 2 + sqrt 3 ellipse, where
    Re z >= e - L/2, |e^{-kz}| <= e^2 e^{-ke} and |1/nu| <= 1/Re m <=
    2/m(e): the quadrature error, ~1e-20 of the panel, is far below the
    bound.  Below T = 1e-300 the value is 1/2 with bound s; past r ~ 353,
    where 60/k overflows and the value (about 0.3 k) is below 1e-306, it is
    0 with bound k.  Returns (value, bound, N).
    """
    t = math.tanh(r)
    if t * t < 1e-300:  # N = 1/2 - s (1 + O(r^2)), where n/s would overflow
        return 0.5, math.sinh(r) * t, 1
    k = -2.0 * math.log(t) if r < 0.5 else 4.0 * math.atanh(math.exp(-2.0 * r))
    if k * sys.float_info.max < _SERIES_DECAY:  # 60/k overflows; the value is about 0.3 k
        return 0.0, k, 0
    c, s = math.cosh(r), math.sinh(r) * t
    long_head = k * _SERIES_HEAD < _SERIES_DECAY
    n_head = _TAIL_HEAD if long_head else min(_SERIES_HEAD, math.ceil(_SERIES_DECAY / k))
    points, scale = np.arange(n_head + 1.0), np.empty(0)  # one kernel pass: the head 0..N-1, N, the nodes, X
    if k * float(n_head) < _SERIES_DECAY:  # else _panel_edges's first test gives one edge, N
        edges = _panel_edges(n_head, k, s * s)
        lo, hi = edges[:-1, None], edges[1:, None]
        nodes, weights = _gauss_legendre()
        nodes = 0.5 * (hi - lo) * nodes + (0.5 * hi + 0.5 * lo)  # 0.5 (hi + lo) may overflow
        points, scale = np.concatenate([points, nodes.ravel(), edges[-1:]]), (0.5 * (hi - lo) * weights).ravel()
    h = _series_terms(points, s, k)
    weighted = h[n_head + 1 : -1] * scale  # the weighted nodes: none without panels, where X = N
    h_n, h_x, nodes_sum = float(h[n_head]), float(h[-1]), float(np.sum(weighted))
    # -h'/h and -h'''/h in u = 1/(2w), w = s sqrt(m^2 + 1), and p = s m / w <= 1, so that no factor overflows
    w = math.hypot(0.5 * (s * s - n_head), s * math.sqrt(n_head + 1.0))
    u, p = 0.5 / w, 0.5 * (s * s + n_head) / w
    correction = rest = h_n * (k + u) / 12.0  # -h'(N)/12, and the remainder it leaves
    if long_head:  # h'''(N)/720 too, with the remainder |h'''(N)|/720
        rest = h_n * (k * k * k + 3.0 * u * (k * k + k * u * (1.0 + p) + u * u * p * (1.0 + p))) / 720.0
        correction -= rest
    total = float(np.sum(h[:n_head])) + (nodes_sum + 0.5 * h_n + correction)
    # divided one factor at a time, so that no intermediate overflows
    value, bound = (x / (2.0 * s) / c / c / c for x in (total, rest + h_x / k))
    bound += (16 + n_head + weighted.size) * sys.float_info.epsilon * value
    return value, bound, n_head


def _pair_blocks(r: float, weights: UnruhWeights) -> NegativityPair:
    # For q_R = 1 the Alice-AntiRob partial transpose splits into 2x2 sectors
    # with positive determinant and trace, so that side is exactly 0; the swap
    # rule maps the q_L = 1 case onto the same pair reversed.
    value, bound, n_used = _block_series(r)
    sides = (value, value - bound, value + bound), (0.0, 0.0, 0.0)
    return _pair(*(sides if weights.abs_l <= EXTREMAL_TOL else sides[::-1]), "blocks", n_used)


def bosonic_negativity_pair(r: float, weights: UnruhWeights) -> NegativityPair:
    """Alice-Rob and Alice-AntiRob negativities with a convergence report.

    An extremal weight takes the block series, any other the dense engine
    (``_dense_pairs``).  The report carries both values' ends, and an
    unconverged pair is returned with ``report.converged`` false.
    """
    _check_r(r)
    if weights.minor_weight() <= EXTREMAL_TOL:
        return _pair_blocks(r, weights)
    return next(_dense_pairs(np.array([r]), weights))


class BosonCurveRow(NamedTuple):
    q_abs: float
    r: float
    n_ar: float
    n_aar: float
    report: ConvergenceReport


def bosonic_curve(q_abs: float, r_grid) -> list[BosonCurveRow]:
    """Negativity pair along a squeezing grid at fixed |q_R|.

    The weights are taken real, q_R = q_abs and q_L = sqrt(1 - q_abs^2);
    the negativities are phase invariant so this loses no generality.
    """
    weights = UnruhWeights.from_abs(q_abs)
    r = _check_r(r_grid)
    if weights.minor_weight() > EXTREMAL_TOL:
        pairs = _dense_pairs(r, weights)
    else:
        pairs = [bosonic_negativity_pair(x, weights) for x in r.tolist()]
    q_abs = float(q_abs)
    return [BosonCurveRow(q_abs, x, *pair) for x, pair in zip(r.tolist(), pairs)]
