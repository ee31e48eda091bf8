"""Minkowski <-> Unruh smearing-function transform for wave packets.

A packet of Minkowski creators smeared with f(omega) equals a packet of
right/left Unruh creators smeared with (g_R(Omega), g_L(Omega)).  With the
phase convention fixed so that the Bogoliubov coefficients are pure phases,

    alpha_R = (2 pi omega)^(-1/2) (omega l)^(+i eps Omega),
    alpha_L = (2 pi omega)^(-1/2) (omega l)^(-i eps Omega),

the relation is exactly a Fourier transform between x = ln(omega l) on the
Minkowski side and the signed variable +-Omega on the Unruh side: the real
frequency line splits into Omega > 0 plus the R/L index.  A length l != 1
only multiplies g_R, g_L by phases no diagnostic sees, so here l = 1.  Every
transform, norm and moment reads the L2(dx) weight F(x) = sqrt(omega)
f(omega), so a profile stores F on a uniform x grid, where the rectangle
rule is spectrally accurate, and derives f from it only on request.  The
Unruh side is a uniform Omega >= 0 grid whose trapezoid endpoint weights at
Omega = 0 fold the two half-lines back together exactly.

Massive packets transform the same way with the Minkowski rapidity
arcsinh(k/m) = ln[(omega_k + k)/m] in place of ln(omega l),

    alpha_R, alpha_L = (2 pi omega_k)^(-1/2) ((omega_k + k)/m)^(+-i Omega);

right- and left-movers no longer decouple, so there is no eps index: a
massive field takes eps = +1.  The mass travels with the data: a profile
carries its map omega(x), e^x without a mass and m cosh x with one, and
``g_from_f`` hands it on to the Unruh pair, with the kernel it used; the
inverse ``f_from_g`` and the peaking report take both from the pair.  So
one kernel, the mover index alone, serves both fields.

Both grids are uniform, so each phase is exp(i theta k j), theta = dOmega dx.
The default Omega grid sets theta = 2 pi / N, N four times a 5-smooth number,
so a transform is one FFT of length N: the forward one reads both signs off
one spectrum, the inverse one sums both sectors in one array.  Other grids
take a chirp-z transform (Rabiner, Schafer & Rader, 1969): one FFT convolution
of length about N_x + N_Omega by Bluestein's identity, 5 FFTs a direction.
Neither caps the grid sizes: the default grids follow from the profile's
spread, window and resolution alone.

The single-mode approximation is quantified by ``peaking_report_from_pair``:
a packet behaves like one Unruh mode of sharp frequency when its Unruh
image is peaked (uncertainty product near the Fourier bound 1/2) and
essentially one-sided (small minor-sector leakage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GridError

DEFAULT_LEAKAGE_THRESHOLD = 1e-2
#: relative |F|^2 density allowed at the ends of an auto-built grid
_EDGE_DENSITY_TOL = 1e-24
#: norm deficit that marks a user grid as too narrow
_NORM_DEFICIT_TOL = 1e-10
#: e^-x underflows to 0 past this x, -ln of the smallest subnormal double
_EXP_UNDERFLOW = 745.2


@dataclass(frozen=True)
class BogoliubovKernel:
    """Mover index eps of a massless field: +1 right, -1 left; a massive one takes +1."""

    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")


# ---------------------------------------------------------------------------
# sampled profiles


def _close(a, b, x: np.ndarray) -> bool:
    """``np.allclose(a, b, rtol=1e-9, atol=4 ulp(max |x|))`` as one vector test; NaN fails it."""
    slack = 4.0 * np.spacing(max(abs(x[0]), abs(x[-1])))  # a grid step rounds by up to 2 ulp(max |x|)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails as it should
        return bool((np.abs(a - b) <= slack + 1e-9 * np.abs(b)).all())


def _check_uniform(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 16:
        raise GridError(f"grid must be a 1-d array with at least 16 points, got shape {x.shape}")
    steps = np.diff(x)
    if not _close(steps, steps[0], x):
        raise GridError("grid must be uniformly spaced")
    if not steps[0] > 0.0:  # after the spacing test, so that a NaN or inf point reads as a bad spacing
        raise GridError(f"grid must increase, got step {steps[0]:.3g}")
    return x


def _given_grid(grid) -> np.ndarray:
    """A caller's grid as floats, checked for all a builder reads: 1-d, 16 points or more, finite ends."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 16 or not np.isfinite(grid[[0, -1]]).all():
        _check_uniform(grid)  # raises its own GridError
    return grid


def _check_mass(mass) -> None:
    if not 0.0 < mass < math.inf:  # so that a NaN mass fails too
        raise ValueError(f"mass must be > 0 and finite, got {mass}")


def _hold(obj, mismatch: str, grid: str, *values: str) -> None:
    """The containers' one construction rule: mass, grid, then read-only copies, grid float, rest complex."""
    if obj.mass is not None:
        _check_mass(obj.mass)
    held = _check_uniform(np.array(getattr(obj, grid), dtype=float))
    for name in values:
        arr = np.array(getattr(obj, name), dtype=complex)
        if arr.shape != held.shape:
            raise GridError(mismatch)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    held.setflags(write=False)
    object.__setattr__(obj, grid, held)


def _squares(*arrays: np.ndarray) -> tuple:
    """(s, |a_1 / s|^2, ...), read-only: s = 2^(e-1) with the largest |a| in [2^(e-1), 2^e), else 1.

    Dividing by a power of two is exact, so each square lies in [0, 4), and
    every sum, ratio, mean and spread of them is that of the exact squares,
    for tiny and huge values alike.  A largest |a| of 0, inf or NaN keeps s = 1.
    """
    squares = [np.abs(a) for a in arrays]
    top = max(float(sq.max()) for sq in squares)
    scale = 2.0 ** (math.frexp(top)[1] - 1) if 0.0 < top < math.inf else 1.0
    for sq in squares:
        sq /= scale
        sq **= 2
        sq.setflags(write=False)
    return scale, *squares


def _omega(x, mass):
    """The frequency map omega(x): e^x for a massless profile, m cosh x for a massive one."""
    return np.exp(x) if mass is None else mass * np.cosh(x)


def _check_omega_range(start: float, stop: float, mass, grid: str) -> None:
    """No profile is finite where omega(x) over- or underflows; e^x is monotone and m cosh x
    convex, so the ends of [start, stop] decide for the whole grid."""
    ends = _omega(np.array([start, stop]), mass)
    if not (np.isfinite(ends).all() and ends.min() > 0.0):
        raise GridError(f"{grid}, and omega(x) leaves the floating-point range on it: "
                        "the profile is not finite there")


@dataclass(frozen=True, eq=False)
class MinkowskiSmearing:
    """Profile on a uniform grid in x, stored as its L2 weight F = sqrt(omega) f, with its map omega(x).

    Massless (``mass`` None): ``x`` holds ln(omega), with l = 1.  Massive:
    ``x`` is the rapidity arcsinh(k/m), so omega_k = m cosh x.  Either way
    the measure is omega dx, so the L2 weight in the Fourier variable is
    ``weight`` = sqrt(omega) f, the data every transform, norm and moment
    reads; norms and moments in x use the rectangle rule.  ``samples``, the
    profile f itself, is derived from it on request.
    """

    x: np.ndarray
    weight: np.ndarray
    mass: float | None = None

    def __post_init__(self):
        _hold(self, "weight and grid must have matching shapes", "x", "weight")

    @cached_property
    def _density(self) -> tuple[float, np.ndarray]:
        """|F|^2, held once as (s, |F / s|^2) (see ``_squares``) for every norm and moment."""
        return _squares(self.weight)

    @property
    def dx(self) -> float:
        return _step(self.x)

    @property
    def omega(self) -> np.ndarray:
        return _omega(self.x, self.mass)

    @property
    def samples(self) -> np.ndarray:
        """The profile f = F / sqrt(omega)."""
        return self.weight / np.sqrt(self.omega)

    def norm_squared(self) -> float:
        """int |f|^2 domega (or dk) evaluated as int |F|^2 dx; inf where that overflows."""
        scale, density = self._density
        return float(np.sum(density) * self.dx) * scale * scale

    def l2_distance(self, other: "MinkowskiSmearing") -> float:
        if other.x.shape != self.x.shape or not _close(other.x, self.x, self.x):
            raise GridError("L2 distance requires identical grids")
        scale, density = _squares(self.weight - other.weight)
        return math.sqrt(float(np.sum(density)) * self.dx) * scale  # s^2 is an even power of two: exact


@dataclass(frozen=True, eq=False)
class UnruhSmearingPair:
    """Right/left Unruh profiles on a uniform Omega >= 0 grid from 0, with their profile's mass and kernel."""

    omega_grid: np.ndarray
    g_r: np.ndarray
    g_l: np.ndarray
    mass: float | None = None
    kernel: BogoliubovKernel = BogoliubovKernel()

    def __post_init__(self):
        _hold(self, "g_R, g_L and the grid must have matching shapes", "omega_grid", "g_r", "g_l")
        if self.mass is not None and self.kernel.epsilon != 1:
            raise ValueError("a massive field has no mover index: its kernel takes epsilon = +1")
        if self.omega_grid[0] != 0.0:
            raise GridError("the Unruh frequency grid must start at Omega = 0")

    def quadrature_weights(self) -> np.ndarray:
        return self._densities[0]

    @cached_property
    def _sector_squares(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(s, |g_R / s|^2, |g_L / s|^2), held once: see ``_squares``."""
        return _squares(self.g_r, self.g_l)

    @cached_property
    def _densities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The quadrature weights w, then w |g_R / s|^2 and w |g_L / s|^2, held once."""
        # trapezoid: the half weight at Omega = 0 folds the R and L half-lines
        # onto one endpoint, exact for their sum but not for each sector alone,
        # whose end terms the leakage keeps (ROADMAP item 6)
        w = np.full(self.omega_grid.size, _step(self.omega_grid))
        w[0] *= 0.5
        w[-1] *= 0.5
        _, square_r, square_l = self._sector_squares
        held = w, w * square_r, w * square_l
        for arr in held:
            arr.setflags(write=False)
        return held

    def sector_norms(self) -> tuple[float, float]:
        scale = self._sector_squares[0]
        return tuple(float(density.sum()) * scale * scale for density in self._densities[1:])

    def norm_squared(self) -> float:
        return sum(self.sector_norms())


# ---------------------------------------------------------------------------
# packet families


@dataclass(frozen=True)
class LogGaussianParams:
    """Gaussian in ln(omega): dimensionless width lambda and chirp mu, scale omega0."""

    lam: float
    mu: float
    omega0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:  # so that NaN fails too
            raise ValueError(f"lambda must be > 0 and finite, got {self.lam}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError(f"omega0 must be > 0 and finite, got {self.omega0}")


def _k0e(z: float) -> float:
    """e^z K_0(z) = int_0^inf e^{-2z sinh^2(t/2)} dt, z > 0, by the trapezoid rule.

    The integrand decays double-exponentially, so the rule converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014); the step
    min(0.1, 0.5/sqrt z) keeps its error below rounding at any z.  Each
    exponent is small where the terms count, and so is its rounding.  The
    sum stops where its terms underflow, at 2z sinh^2(t/2) = 745.2, so it
    has at most 78 terms from z = 25 on.  Below z = 1e-8, where the
    count of terms overflows from z ~ 4e-306 on, it is
    e^z (-ln(z/2) - gamma_Euler), exact to rounding (the rest is O(z^2 ln z)).
    """
    if z < 1e-8:
        return math.exp(z) * (-math.log(0.5 * z) - 0.5772156649015329)
    h = min(0.1, 0.5 / math.sqrt(z))
    t_max = 2.0 * math.asinh(math.sqrt(0.5 * _EXP_UNDERFLOW / z))
    terms = [math.exp(-2.0 * z * math.sinh(0.5 * k * h) ** 2) for k in range(1, math.ceil(t_max / h) + 1)]
    return h * math.fsum([0.5, *terms])


def _auto_x_grid(weight, center: float, half: float, dx: float, mass) -> tuple[np.ndarray, np.ndarray]:
    """Widen [center - half, center + half] until the edge density is negligible;
    return the grid and the weight sampled on it."""
    for _ in range(60):
        grid = (f"the grid on [{center - half:.4g}, {center + half:.4g}] needs "
                f"{2.0 * half / dx + 1.0:.3g} points of spacing {dx:.3g}")
        _check_omega_range(center - half, center + half, mass, grid)  # before allocating
        try:  # nor is a count past what numpy can index or allocate
            x = np.linspace(center - half, center + half, math.ceil(2.0 * half / dx) + 1)
            samples = weight(x)
            values = _squares(samples)[1]
        except (OverflowError, ValueError, MemoryError) as exc:
            raise GridError(f"{grid}, more than can be allocated") from exc
        total = float(values.sum())
        if not math.isfinite(total):  # widening cannot mend an inf or NaN, and each step costs 1.5x the memory
            raise GridError(f"the profile is not finite on [{x[0]:.4g}, {x[-1]:.4g}]; "
                            "its parameters leave the floating-point range")
        if total > 0.0:
            edge = float(values[:3].sum() + values[-3:].sum())
            if edge <= _EDGE_DENSITY_TOL * total:
                return x, samples
        half *= 1.5
    raise GridError("could not find a wide enough grid for the requested profile")


def _default_dx(params: LogGaussianParams) -> float:
    # resolve the x profile and keep the Nyquist frequency pi/dx well beyond
    # the Unruh-side content around |mu| + a few sqrt(lambda)
    sigma_x = (2.0 * params.lam) ** -0.5
    omega_reach = abs(params.mu) + 14.0 * math.sqrt(params.lam / 2.0) + 6.0
    # 0.5 pi / reach, unlike pi / (2 reach), stays > 0 when 2 reach overflows
    return min(sigma_x / 8.0, 0.5 * math.pi / omega_reach)


def _check_unit_norm(f):
    """Reject a sampled profile that misses part of its unit norm or is not finite."""
    norm = f.norm_squared()
    if not abs(1.0 - norm) <= _NORM_DEFICIT_TOL:  # so that a NaN norm fails too
        why = (f"holds only {norm:.12f} of the unit norm; widen the bounds or refine the spacing"
               if math.isfinite(norm)  # else the weight left the float range: omega(x) did not
               else "gives a profile that is not finite; its parameters leave the floating-point range")
        raise GridError(f"grid [{float(f.x[0]):.4g}, {float(f.x[-1]):.4g}] {why}")
    return f


def _packet_from_weight(weight, x_grid, center, half, dx, mass=None) -> MinkowskiSmearing:
    # a profile past the float range overflows e^x, cosh x or the weight; the
    # finiteness checks turn that into a GridError, so numpy need not warn first
    with np.errstate(all="ignore"):
        if x_grid is None:
            x, samples = _auto_x_grid(weight, center, half, dx, mass)
        else:
            x = _given_grid(x_grid)
            grid = f"the given grid [{x[0]:.4g}, {x[-1]:.4g}] has {x.size} points"
            _check_omega_range(x[0], x[-1], mass, grid)
            samples = weight(x)
        return _check_unit_norm(MinkowskiSmearing(x, samples, mass))


def _gaussian_packet(params: LogGaussianParams, x0: float, x_grid, mass=None) -> MinkowskiSmearing:
    """Gaussian in x about x0, chirp e^(-i mu (x - x0)); its grid starts at half-width max(14 sigma_x, 10)."""
    lam, mu = params.lam, params.mu

    def weight(x):
        y = x - x0
        return (lam / math.pi) ** 0.25 * np.exp(-0.5 * lam * y * y) * np.exp(-1j * mu * y)

    return _packet_from_weight(weight, x_grid, x0, max(14.0 * (2.0 * lam) ** -0.5, 10.0), _default_dx(params), mass)


def f_log_gaussian(params: LogGaussianParams, x_grid=None) -> MinkowskiSmearing:
    """Packet with |f|^2 Gaussian in ln(omega) and linear-in-x phase -mu x.

    f(omega) = (lambda / (pi omega^2))^(1/4)
               exp(-lambda ln^2(omega/omega0) / 2) (omega/omega0)^(-i mu).

    Normalized analytically; mean of ln(omega) is ln(omega0) and its
    spread is (2 lambda)^(-1/2).  With no explicit grid the bounds are
    auto-widened until the discarded tail is negligible.
    """
    return _gaussian_packet(params, math.log(params.omega0), x_grid)


def rapidity_gaussian(lam: float, mu: float, mass: float, x_grid=None) -> MinkowskiSmearing:
    """Packet Gaussian in rapidity with chirp phase e^{-i mu x}, centred on k = 0; omega_k = m cosh x."""
    _check_mass(mass)  # before sampling: the grid search would misreport a bad mass
    return _gaussian_packet(LogGaussianParams(lam, mu), 0.0, x_grid, mass)


def alternate_packets(kind: str, params: LogGaussianParams, x_grid=None) -> MinkowskiSmearing:
    """Non-Gaussian packet families with the same chirp phase.

    "gamma":  f = 2^lambda (omega/omega0)^(lambda - i mu) e^(-omega/omega0)
                  / sqrt(omega Gamma(2 lambda)),
    "bessel": f = (omega/omega0)^(-i mu)
                  exp[-(lambda/2)(omega/omega0 + omega0/omega)]
                  / sqrt(2 omega K_0(2 lambda)).

    Both are analytically normalized; the grid default accounts for the slow
    exponential left tail of the gamma family.  Each L2 weight sqrt(omega) f
    is one exponential of its logarithm, in y = ln(omega/omega0), so no
    factor over- or underflows where the weight does not: u^lambda, Gamma(2
    lambda) and K_0(2 lambda) each leave the float range at large lambda.
    The gamma exponent is written around its peak y = ln lambda as
    K - lambda (e^t - 1 - t), t = y - ln lambda, with K = lambda ln(2 lambda)
    - lambda - ln Gamma(2 lambda)/2 = O(ln lambda): from ``math.lgamma``
    below lambda = 20 and from its Stirling series above, where the direct
    form cancels terms of size lambda ln lambda.  The Bessel exponent
    -(lambda/2)(u + 1/u) - ln K_0(2 lambda)/2 is written as
    -2 lambda sinh^2(y/2) - ln(e^(2 lambda) K_0(2 lambda))/2.
    """
    lam, mu, x0 = params.lam, params.mu, math.log(params.omega0)
    if kind == "gamma":
        if lam < 20.0:  # K, the exponent at the peak
            log_norm = lam * math.log(2.0 * lam) - lam - 0.5 * math.lgamma(2.0 * lam)
        else:  # its Stirling series, exact to rounding here: the next term is below 2e-15
            inv2 = 1.0 / (lam * lam)
            log_norm = 0.25 * math.log(lam / math.pi) - (1 / 48 - (1 / 5760 - inv2 / 80640) * inv2) / lam
        center = x0 + math.log(max(lam, 0.25))
        half = max(30.0 / (2.0 * lam) + 6.0, 12.0)

        def log_shape(y):
            t = y - math.log(lam)
            return -lam * (np.expm1(t) - t)
    elif kind == "bessel":
        log_norm = -0.5 * math.log(2.0 * _k0e(2.0 * lam))
        center = x0
        half = max(30.0 / lam, 10.0)

        def log_shape(y):
            return -2.0 * lam * np.sinh(0.5 * y) ** 2
    else:
        raise ValueError(f"kind must be 'gamma' or 'bessel', got {kind!r}")

    def weight(x):
        y = x - x0
        return np.exp(log_norm + log_shape(y) - 1j * mu * y)

    return _packet_from_weight(weight, x_grid, center=center, half=half, dx=_default_dx(params))


# ---------------------------------------------------------------------------
# the transform pair


def _step(grid: np.ndarray) -> float:
    # the mean spacing; grid[1] - grid[0] would carry the rounding of grid[0]
    # into every phase, growing with the index
    return float(grid[-1] - grid[0]) / (grid.size - 1)


def _chirp_z(rows, t0, dt, w0, dw, m, sign):
    """sum_j v_j exp(i s (w0 + k dw)(t0 + j dt)), k < m, for (v, s) = (rows[0], sign), (rows[1], -sign).

    Bluestein's identity k j = (k^2 + j^2 - (k - j)^2) / 2 turns the sum
    into a convolution with the chirp exp(-i theta n^2 / 2), theta =
    sign dw dt, which one zero-padded FFT product evaluates.  n^2 is formed
    in integers, so each chirp phase carries the rounding of theta and of
    one product only.  The sum at -sign is the conjugate of the sum at sign
    over conjugate data, so both rows share one plan (chirp, phase, kernel
    FFT): 5 FFTs in all.  A phase whose offset w0 or t0 is 0 is 1 and left out.
    """
    # imported here so that importing the package does not load numpy.fft
    from numpy import fft

    n = rows[0].size
    size = 1 << (n + m - 2).bit_length()  # the first power of two >= n + m - 1
    j = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(0.5j * (sign * dw * dt) * (j * j))
    head = chirp[:n] * np.exp(1j * sign * w0 * dt * j[:n]) if w0 else chirp[:n]
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1 :] = chirp[n - 1 : 0 : -1].conj()
    kernel = fft.fft(kernel)  # its spectrum from here on, so that one array of this size is kept
    out = np.array([fft.ifft(fft.fft(v * head, size) * kernel)[:m] * chirp[:m]
                    for v in (rows[0], rows[1].conj())])
    if t0:
        out *= np.exp(1j * sign * t0 * (w0 + dw * j[:m]))
    out[1] = out[1].conj()
    return out


def _root_order(theta: float, m: int, n: int) -> int:
    """N if theta = 2 pi / N makes each phase theta k j, k < m, j < n, an N-th root of unity, else 0.

    The phase error (m - 1)(n - 1) |theta - 2 pi / N| may be 1e-13 plus 8 unit roundoffs of the largest
    phase, Bluestein's own rounding, for a default grid's theta is an ulp or two off.  Past N = 4 (m + n)
    one FFT of length N costs more than Bluestein's five.
    """
    big = round(2.0 * math.pi / theta) if 2.0 * math.pi <= 4 * (m + n) * theta else 0
    phases = (m - 1) * (n - 1)
    return big if big and phases * abs(theta - 2.0 * math.pi / big) <= 1e-13 + 2.0**-50 * phases * theta else 0


def _roots_fft(big: int, *rows) -> np.ndarray:
    """sum over the rows (v, s) of sum_k v_k exp(2 pi i s j k / N), j < N = big: one FFT of length N."""
    from numpy import fft  # imported here so that importing the package does not load numpy.fft
    folded = np.zeros(big, dtype=complex)
    for v, sign in rows:  # exp(2 pi i s j k / N) = exp(-2 pi i j (-s k mod N) / N): v_k adds at -s k mod N
        for part in [v[k : k + big] for k in range(0, v.size, big)]:  # each index adds its terms in order of k
            if sign < 0:
                folded[: part.size] += part
            else:  # k = 0 at 0, then k = 1, 2, ... at N - 1, N - 2, ...
                folded[0] += part[0]
                folded[big - part.size + 1 :] += part[:0:-1]
    return fft.fft(folded)


def _forward_transform(x, weight, omega_grid, eps):
    # the rectangle weight is the dx of ``norm_squared``, so Parseval compares like with like
    dx, dw, m = _step(x), _step(omega_grid), omega_grid.size
    big = _root_order(dw * dx, m, x.size)
    if big:  # sign s reads the spectrum at -s k, and x[0] adds the phase exp(i s Omega_k x[0])
        sk = np.outer([eps, -eps], np.arange(m))  # s k for the rows' signs s = eps, -eps
        tail = np.exp(1j * x[0] * (dw * sk[0]))  # the second row's is its conjugate
        out = _roots_fft(big, (weight, -1))[-sk % big] * [tail, tail.conj()]
    else:
        out = _chirp_z((weight, weight), x[0], dx, 0.0, dw, m, eps)
    return out * (dx / math.sqrt(2.0 * math.pi))


def _inverse_transform(x, pair: UnruhSmearingPair, eps):
    w = pair.quadrature_weights()
    dw, dx, m, n = _step(pair.omega_grid), _step(x), w.size, x.size
    big = _root_order(dw * dx, m, n)
    if big:  # g_R at sign s = -eps, g_L at +eps, each with its phase exp(i s Omega_k x[0]); period N in j
        head = np.exp(-1j * eps * x[0] * (dw * np.arange(m)))
        out = _roots_fft(big, (w * pair.g_r * head, -eps), (w * pair.g_l * head.conj(), eps))[np.arange(n) % big]
    else:
        out = _chirp_z((w * pair.g_r, w * pair.g_l), 0.0, dw, x[0], dx, n, -eps).sum(axis=0)
    return out / math.sqrt(2.0 * math.pi)


def _smooth_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n >= 1."""
    odd = [3**b * f for f in [5**c for c in range(n.bit_length() // 2 + 1)] for b in range(n.bit_length())]
    return min(q << (-(-n // q) - 1).bit_length() for q in odd if q < 2 * n)  # q 2^a, a the least that reaches n


def _default_omega_grid(x: np.ndarray, density: np.ndarray) -> np.ndarray:
    dx = _step(x)  # the transforms' step, which the roots-of-unity alignment needs
    total = float(density.sum())
    if not 0.0 < total < math.inf:  # so that a NaN total fails too
        why = "an identically zero profile" if total == 0.0 else "a profile that is not finite"
        raise GridError(f"cannot build a frequency grid for {why}")
    mean = float(np.sum(x * density) / total)
    sigma = math.sqrt(max(float(np.sum((x - mean) ** 2 * density) / total), dx * dx))
    omega_max = math.pi / (2.0 * dx)
    # the inverse transform repeats with period 2 pi / d_omega in x: keep the
    # copies of the packet at least 8 sigma past both ends of the window
    reach = max(mean - float(x[0]), float(x[-1]) - mean)
    d_omega = min(1.0 / (24.0 * sigma), 2.0 * math.pi / (reach + 8.0 * sigma))
    m = _smooth_size(max(math.ceil(omega_max / d_omega), 63))  # so that numpy's FFT of length 4 m is fast
    return np.arange(m + 1) * (2.0 * math.pi / (4 * m * dx))  # each phase 2 pi k j / (4 m): a root of unity


def g_from_f(
    f: MinkowskiSmearing,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
) -> UnruhSmearingPair:
    """Unruh images g_R(Omega) = int alpha_R f domega and likewise g_L.

    Evaluated as the Fourier transform of F(x) = sqrt(omega) f at +-Omega.
    The pair takes the profile's ``mass`` and the ``kernel``.  A massive
    profile has no mover index, so its kernel must have eps = +1, the
    default.  Raises ``GridError`` when spectral mass piles up at the edge
    of the frequency window (aliasing).
    """
    if omega_grid is None:
        omega_grid = _default_omega_grid(f.x, f._density[1])
    else:
        omega_grid = _given_grid(omega_grid)  # the pair tests its spacing and its start
        if omega_grid[-1] > math.pi / f.dx:
            raise GridError(
                f"frequency window extends past the Nyquist limit pi/dx = {math.pi / f.dx:.2f}"
            )
    with np.errstate(invalid="ignore"):  # a profile that is not finite fails the peak test instead
        g_r, g_l = _forward_transform(f.x, f.weight, omega_grid, kernel.epsilon)
    pair = UnruhSmearingPair(omega_grid, g_r, g_l, f.mass, kernel)
    density = pair._sector_squares[1] + pair._sector_squares[2]
    peak = float(density.max())
    if not peak < math.inf:  # so that a NaN peak fails too
        raise GridError("cannot transform a profile that is not finite")
    if peak > 0.0 and float(density[-1]) > 1e-10 * peak:
        edge = float(pair.omega_grid[-1])
        raise GridError(
            f"spectral mass at the Omega = {edge:.2f} grid edge; the profile is not "
            "resolved, increase the frequency window or refine the x grid"
        )
    return pair


def f_from_g(pair: UnruhSmearingPair, x_grid) -> MinkowskiSmearing:
    """Inverse transform f = int [alpha_R* g_R + alpha_L* g_L] dOmega on a uniform x grid.

    The kernel is the pair's, and the profile takes the pair's ``mass`` and
    with it the map omega(x).
    """
    x_grid = _given_grid(x_grid)  # all the transform reads; the profile tests the spacing
    return MinkowskiSmearing(x_grid, _inverse_transform(x_grid, pair, pair.kernel.epsilon), pair.mass)


def closed_form_g(
    params: LogGaussianParams,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
) -> UnruhSmearingPair:
    """Cropped-Gaussian Unruh images of the log-Gaussian packet.

    g_R = (pi lambda)^(-1/4) exp[-(Omega - eps mu)^2 / (2 lambda)] omega0^(+i eps Omega),
    g_L = (pi lambda)^(-1/4) exp[-(Omega + eps mu)^2 / (2 lambda)] omega0^(-i eps Omega).

    For eps mu >> sqrt(lambda) the left image is exponentially small and the
    right one peaks at Omega = eps mu with spread sqrt(lambda/2).
    """
    if omega_grid is None:
        f = f_log_gaussian(params)
        omega_grid = _default_omega_grid(f.x, f._density[1])
    else:
        omega_grid = _given_grid(omega_grid)
    lam, mu, log_w0 = params.lam, params.mu, math.log(params.omega0)
    amp = (math.pi * lam) ** -0.25
    g_r, g_l = (amp * np.exp(-((omega_grid - s * mu) ** 2) / (2.0 * lam)) * np.exp(1j * s * omega_grid * log_w0)
                for s in (kernel.epsilon, -kernel.epsilon))  # s = eps for g_R, -eps for g_L
    return UnruhSmearingPair(omega_grid, g_r, g_l, kernel=kernel)


def parseval_residual(f: MinkowskiSmearing, pair: UnruhSmearingPair) -> float:
    """|int |f|^2 domega - int (|g_R|^2 + |g_L|^2) dOmega|."""
    return abs(f.norm_squared() - pair.norm_squared())


# ---------------------------------------------------------------------------
# peaking diagnostics


class PeakingReport(NamedTuple):
    """How sharply a packet selects one Unruh frequency and one sector.

    ``delta_omega`` is the spread of the signed Unruh variable (+Omega for
    the sector carrying e^{+i eps Omega x}, -Omega for the other), which is
    the Fourier conjugate of x = ln omega or the rapidity; ``uncertainty_product`` is its
    product with ``delta_log_omega`` and satisfies the >= 1/2 bound up to
    quadrature error.  ``leakage`` is the norm fraction in the minor sector;
    the single-mode approximation is declared valid when the leakage stays
    below the threshold.
    """

    peak_omega: float
    delta_omega: float
    delta_log_omega: float
    uncertainty_product: float
    leakage: float
    sma_valid: bool


def peaking_report_from_pair(
    f: MinkowskiSmearing,
    pair: UnruhSmearingPair,
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> PeakingReport:
    """Peaking diagnostics for an already-computed Unruh image, with the pair's kernel.

    The spread in x is that of ``f.x``: ln omega, or the rapidity of a
    massive packet.
    """
    _, dens_r, dens_l = pair._densities  # ratios alone are read, so the scale of _sector_squares drops out
    norm_r, norm_l = float(dens_r.sum()), float(dens_l.sum())
    total = norm_r + norm_l
    if total == 0.0:
        raise GridError("the Unruh pair has zero norm: it has no peak, spread or leakage")
    signed = pair.kernel.epsilon * pair.omega_grid
    mean = float((np.sum(signed * dens_r) - np.sum(signed * dens_l)) / total)
    var = float(
        (np.sum((signed - mean) ** 2 * dens_r) + np.sum((-signed - mean) ** 2 * dens_l)) / total
    )
    delta_omega = math.sqrt(max(var, 0.0))
    density_x = f._density[1]
    total_x = float(density_x.sum()) * f.dx
    mean_x = float(np.sum(f.x * density_x) * f.dx / total_x)
    delta_x = math.sqrt(max(float(np.sum((f.x - mean_x) ** 2 * density_x) * f.dx / total_x), 0.0))
    leakage = min(norm_r, norm_l) / total
    major = pair.g_r if norm_r >= norm_l else pair.g_l
    peak = float(pair.omega_grid[int(np.argmax(np.abs(major)))])
    return PeakingReport(
        peak_omega=peak,
        delta_omega=delta_omega,
        delta_log_omega=delta_x,
        uncertainty_product=delta_omega * delta_x,
        leakage=leakage,
        sma_valid=bool(leakage < leakage_threshold),
    )


# The benchmark's tracer (perfbench/tracer.py) wraps the names of the massive
# path from before the merge, here and in ``cli``, and the profile methods
# through ``vars(MassiveSmearing)``; they stay bound until it is retargeted.
# The report's name is bound to ``peaking_report_from_pair``, which ``cli`` calls.
MassiveSmearing = MinkowskiSmearing
massive_g_from_f = g_from_f
massive_f_from_g = f_from_g
massive_peaking_report = peaking_report_from_pair
