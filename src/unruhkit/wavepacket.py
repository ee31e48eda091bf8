"""Minkowski <-> Unruh smearing-function transform for wave packets.

A packet of Minkowski creators smeared with f(omega) equals a packet of
right/left Unruh creators smeared with (g_R(Omega), g_L(Omega)).  With the
phase convention fixed so that the Bogoliubov coefficients are pure phases,

    alpha_R = (2 pi omega)^(-1/2) (omega l)^(+i eps Omega),
    alpha_L = (2 pi omega)^(-1/2) (omega l)^(-i eps Omega),

the relation is exactly a Fourier transform between x = ln(omega l) on the
Minkowski side and the signed variable +-Omega on the Unruh side: the real
frequency line splits into Omega > 0 plus the R/L index.  All transforms
here therefore work with the L2(dx) weight F(x) = sqrt(omega) f(omega) on a
uniform x grid, where the rectangle rule is spectrally accurate, and with a
uniform Omega >= 0 grid whose trapezoid endpoint weights at Omega = 0 fold
the two half-lines back together exactly.

Massive packets transform the same way with the Minkowski rapidity
arcsinh(k/m) = ln[(omega_k + k)/m] in place of ln(omega l); right- and
left-movers no longer decouple, so there is no eps index.

The single-mode approximation is quantified by ``peaking_report``: a packet
behaves like one Unruh mode of sharp frequency when its Unruh image is
peaked (uncertainty product near the Fourier bound 1/2) and essentially
one-sided (small minor-sector leakage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError

DEFAULT_LEAKAGE_THRESHOLD = 1e-2
#: relative |F|^2 density allowed at the ends of an auto-built grid
_EDGE_DENSITY_TOL = 1e-24
#: norm deficit that marks a user grid as too narrow
_NORM_DEFICIT_TOL = 1e-10
_TRANSFORM_CHUNK = 512


@dataclass(frozen=True)
class BogoliubovKernel:
    """Mover index eps (+1 right, -1 left) and the length convention l."""

    epsilon: int = 1
    length_scale: float = 1.0

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if self.length_scale <= 0.0:
            raise ValueError(f"length scale must be > 0, got {self.length_scale}")


def alpha_r(omega, big_omega, kernel: BogoliubovKernel = BogoliubovKernel()):
    """(2 pi omega)^(-1/2) (omega l)^(+i eps Omega); unit-modulus phase over sqrt."""
    omega = np.asarray(omega, dtype=float)
    big_omega = np.asarray(big_omega, dtype=float)
    if np.any(omega <= 0.0) or np.any(big_omega <= 0.0):
        raise ValueError("alpha coefficients need omega > 0 and Omega > 0")
    phase = np.exp(1j * kernel.epsilon * big_omega * np.log(omega * kernel.length_scale))
    return phase / np.sqrt(2.0 * math.pi * omega)


def alpha_l(omega, big_omega, kernel: BogoliubovKernel = BogoliubovKernel()):
    """(2 pi omega)^(-1/2) (omega l)^(-i eps Omega)."""
    return np.conj(alpha_r(omega, big_omega, kernel))


# ---------------------------------------------------------------------------
# sampled profiles


def _check_uniform(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 16:
        raise GridError(f"grid must be a 1-d array with at least 16 points, got shape {x.shape}")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise GridError("grid must be uniformly spaced")
    return x


@dataclass(frozen=True, eq=False)
class MinkowskiSmearing:
    """Profile f(omega) sampled on a log-uniform frequency grid.

    ``x`` holds ln(omega) (the l = 1 convention; a kernel with l != 1 only
    shifts phases inside the transforms).  The L2 weight in the Fourier
    variable is ``weight_x`` = sqrt(omega) f(omega), so norms and moments in
    x use the plain rectangle rule.
    """

    x: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        x = np.array(_check_uniform(self.x), dtype=float)
        samples = np.array(self.samples, dtype=complex)
        if samples.shape != x.shape:
            raise GridError("samples and grid must have matching shapes")
        x.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "samples", samples)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def omega(self) -> np.ndarray:
        return np.exp(self.x)

    def weight_x(self) -> np.ndarray:
        return np.sqrt(self.omega) * self.samples

    def norm_squared(self) -> float:
        """int |f|^2 domega evaluated as int |F|^2 dx."""
        return float(np.sum(np.abs(self.weight_x()) ** 2) * self.dx)

    def normalized(self) -> "MinkowskiSmearing":
        n2 = self.norm_squared()
        if n2 == 0.0:
            raise ValueError("cannot normalize an identically zero profile")
        return MinkowskiSmearing(self.x, self.samples / math.sqrt(n2))

    def l2_distance(self, other: "MinkowskiSmearing") -> float:
        if other.x.shape != self.x.shape or not np.allclose(other.x, self.x):
            raise GridError("L2 distance requires identical grids")
        diff = self.weight_x() - other.weight_x()
        return float(math.sqrt(np.sum(np.abs(diff) ** 2) * self.dx))


@dataclass(frozen=True, eq=False)
class UnruhSmearingPair:
    """Right/left Unruh profiles on a uniform Omega >= 0 grid starting at 0."""

    omega_grid: np.ndarray
    g_r: np.ndarray
    g_l: np.ndarray

    def __post_init__(self):
        grid = np.array(_check_uniform(self.omega_grid), dtype=float)
        if grid[0] != 0.0:
            raise GridError("the Unruh frequency grid must start at Omega = 0")
        g_r = np.array(self.g_r, dtype=complex)
        g_l = np.array(self.g_l, dtype=complex)
        if g_r.shape != grid.shape or g_l.shape != grid.shape:
            raise GridError("g_R, g_L and the grid must have matching shapes")
        for arr in (grid, g_r, g_l):
            arr.setflags(write=False)
        object.__setattr__(self, "omega_grid", grid)
        object.__setattr__(self, "g_r", g_r)
        object.__setattr__(self, "g_l", g_l)

    @property
    def d_omega(self) -> float:
        return float(self.omega_grid[1] - self.omega_grid[0])

    def quadrature_weights(self) -> np.ndarray:
        # trapezoid: the half weight at Omega = 0 is exactly right once the
        # R and L half-lines are folded onto the same endpoint
        w = np.full(self.omega_grid.size, self.d_omega)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def sector_norms(self) -> tuple[float, float]:
        w = self.quadrature_weights()
        return (
            float(np.sum(w * np.abs(self.g_r) ** 2)),
            float(np.sum(w * np.abs(self.g_l) ** 2)),
        )

    def norm_squared(self) -> float:
        nr, nl = self.sector_norms()
        return nr + nl


# ---------------------------------------------------------------------------
# packet families


@dataclass(frozen=True)
class LogGaussianParams:
    """Gaussian in ln(omega): dimensionless width lambda and chirp mu, scale omega0."""

    lam: float
    mu: float
    omega0: float = 1.0

    def __post_init__(self):
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


def _log_gaussian_weight(params: LogGaussianParams) -> Callable[[np.ndarray], np.ndarray]:
    lam, mu, x0 = params.lam, params.mu, math.log(params.omega0)

    def weight(x):
        y = x - x0
        return (lam / math.pi) ** 0.25 * np.exp(-0.5 * lam * y * y) * np.exp(-1j * mu * y)

    return weight


def _gamma_weight(params: LogGaussianParams) -> Callable[[np.ndarray], np.ndarray]:
    # imported here so that importing the package does not load scipy.special;
    # math.gamma is not a substitute, it differs by an ulp (e.g. at 0.6)
    from scipy.special import gamma

    lam, mu, x0 = params.lam, params.mu, math.log(params.omega0)
    norm = math.sqrt(gamma(2.0 * lam))

    def weight(x):
        u = np.exp(x - x0)
        return 2.0**lam * u**lam * np.exp(-u) * np.exp(-1j * mu * (x - x0)) / norm

    return weight


def _bessel_weight(params: LogGaussianParams) -> Callable[[np.ndarray], np.ndarray]:
    from scipy.special import k0

    lam, mu, x0 = params.lam, params.mu, math.log(params.omega0)
    norm = math.sqrt(2.0 * k0(2.0 * lam))

    def weight(x):
        u = np.exp(x - x0)
        return np.exp(-0.5 * lam * (u + 1.0 / u)) * np.exp(-1j * mu * (x - x0)) / norm

    return weight


def _auto_x_grid(weight, center: float, half: float, dx: float) -> np.ndarray:
    """Widen [center - half, center + half] until the edge density is negligible."""
    for _ in range(60):
        n = int(math.ceil(2.0 * half / dx)) + 1
        x = np.linspace(center - half, center + half, n)
        values = np.abs(weight(x)) ** 2
        total = float(values.sum())
        if total > 0.0:
            edge = float(values[:3].sum() + values[-3:].sum())
            if edge <= _EDGE_DENSITY_TOL * total:
                return x
        half *= 1.5
    raise GridError("could not find a wide enough grid for the requested profile")


def _default_dx(params: LogGaussianParams) -> float:
    # resolve the x profile and keep the Nyquist frequency pi/dx well beyond
    # the Unruh-side content around |mu| + a few sqrt(lambda)
    sigma_x = (2.0 * params.lam) ** -0.5
    omega_reach = abs(params.mu) + 14.0 * math.sqrt(params.lam / 2.0) + 6.0
    return min(sigma_x / 8.0, math.pi / (2.0 * omega_reach))


def _packet_from_weight(weight, x_grid, center, half, dx) -> MinkowskiSmearing:
    if x_grid is None:
        x = _auto_x_grid(weight, center, half, dx)
    else:
        x = _check_uniform(np.asarray(x_grid, dtype=float))
    f = MinkowskiSmearing(x, weight(x) / np.sqrt(np.exp(x)))
    deficit = abs(1.0 - f.norm_squared())
    if deficit > _NORM_DEFICIT_TOL:
        lo, hi = float(x[0]), float(x[-1])
        raise GridError(
            f"grid [{lo:.3f}, {hi:.3f}] holds only {f.norm_squared():.12f} of the unit norm; "
            "widen the bounds or refine the spacing"
        )
    return f


def f_log_gaussian(params: LogGaussianParams, x_grid=None) -> MinkowskiSmearing:
    """Packet with |f|^2 Gaussian in ln(omega) and linear-in-x phase -mu x.

    f(omega) = (lambda / (pi omega^2))^(1/4)
               exp(-lambda ln^2(omega/omega0) / 2) (omega/omega0)^(-i mu).

    Normalized analytically; mean of ln(omega l) is ln(omega0 l) and its
    spread is (2 lambda)^(-1/2).  With no explicit grid the bounds are
    auto-widened until the discarded tail is negligible.
    """
    sigma_x = (2.0 * params.lam) ** -0.5
    return _packet_from_weight(
        _log_gaussian_weight(params),
        x_grid,
        center=math.log(params.omega0),
        half=max(14.0 * sigma_x, 10.0),
        dx=_default_dx(params),
    )


def mixed_log_gaussian(params: LogGaussianParams, mixing_angle: float, x_grid=None) -> MinkowskiSmearing:
    """Normalized combination cos(theta) f + sin(theta) f* of the log-Gaussian.

    The conjugate packet peaks in the opposite Unruh sector, so the mixing
    angle dials in comparable right and left weights.
    """
    base = _log_gaussian_weight(params)

    def weight(x):
        v = base(x)
        return math.cos(mixing_angle) * v + math.sin(mixing_angle) * np.conj(v)

    sigma_x = (2.0 * params.lam) ** -0.5
    f = _packet_from_weight(
        weight,
        x_grid,
        center=math.log(params.omega0),
        half=max(14.0 * sigma_x, 10.0),
        dx=_default_dx(params),
    )
    return f.normalized()


def alternate_packets(kind: str, params: LogGaussianParams, x_grid=None) -> MinkowskiSmearing:
    """Non-Gaussian packet families with the same chirp phase.

    "gamma":  f = 2^lambda (omega/omega0)^(lambda - i mu) e^(-omega/omega0)
                  / sqrt(omega Gamma(2 lambda)),
    "bessel": f = (omega/omega0)^(-i mu)
                  exp[-(lambda/2)(omega/omega0 + omega0/omega)]
                  / sqrt(2 omega K_0(2 lambda)).

    Both are analytically normalized; the grid default accounts for the slow
    exponential left tail of the gamma family.
    """
    x0 = math.log(params.omega0)
    if kind == "gamma":
        weight = _gamma_weight(params)
        center = x0 + math.log(max(params.lam, 0.25))
        half = max(30.0 / (2.0 * params.lam) + 6.0, 12.0)
    elif kind == "bessel":
        weight = _bessel_weight(params)
        center = x0
        half = max(30.0 / params.lam, 10.0)
    else:
        raise ValueError(f"kind must be 'gamma' or 'bessel', got {kind!r}")
    return _packet_from_weight(weight, x_grid, center=center, half=half, dx=_default_dx(params))


# ---------------------------------------------------------------------------
# the transform pair


def _forward_transform(x, weight, omega_grid, eps, log_l):
    dx = float(x[1] - x[0])
    g_r = np.empty(omega_grid.size, dtype=complex)
    g_l = np.empty(omega_grid.size, dtype=complex)
    for lo in range(0, omega_grid.size, _TRANSFORM_CHUNK):
        sl = slice(lo, lo + _TRANSFORM_CHUNK)
        phases = np.exp(1j * eps * np.outer(omega_grid[sl], x))
        g_r[sl] = phases @ weight
        g_l[sl] = phases.conj() @ weight
    scale = dx / math.sqrt(2.0 * math.pi)
    if log_l != 0.0:
        g_r *= np.exp(1j * eps * omega_grid * log_l)
        g_l *= np.exp(-1j * eps * omega_grid * log_l)
    return g_r * scale, g_l * scale


def _inverse_transform(x, pair: UnruhSmearingPair, eps, log_l):
    w = pair.quadrature_weights()
    a = w * pair.g_r
    b = w * pair.g_l
    if log_l != 0.0:
        a = a * np.exp(-1j * eps * pair.omega_grid * log_l)
        b = b * np.exp(1j * eps * pair.omega_grid * log_l)
    out = np.empty(x.size, dtype=complex)
    for lo in range(0, x.size, _TRANSFORM_CHUNK):
        sl = slice(lo, lo + _TRANSFORM_CHUNK)
        phases = np.exp(-1j * eps * np.outer(x[sl], pair.omega_grid))
        out[sl] = phases @ a + phases.conj() @ b
    return out / math.sqrt(2.0 * math.pi)


def _default_omega_grid(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    dx = float(x[1] - x[0])
    density = np.abs(weight) ** 2
    total = float(density.sum())
    if total == 0.0:
        raise GridError("cannot build a frequency grid for an identically zero profile")
    mean = float(np.sum(x * density) / total)
    sigma = math.sqrt(max(float(np.sum((x - mean) ** 2 * density) / total), dx * dx))
    omega_max = math.pi / (2.0 * dx)
    d_omega = 1.0 / (24.0 * sigma)
    n = int(math.ceil(omega_max / d_omega)) + 1
    n = min(max(n, 64), 20_000)
    return np.linspace(0.0, omega_max, n)


def _explicit_omega_grid(omega_grid, dx: float) -> np.ndarray:
    """A caller's frequency grid: uniform, from Omega = 0, and within the Nyquist limit pi/dx."""
    omega_grid = _check_uniform(np.asarray(omega_grid, dtype=float))
    if omega_grid[0] != 0.0:
        raise GridError("the Unruh frequency grid must start at Omega = 0")
    if omega_grid[-1] > math.pi / dx:
        raise GridError(
            f"frequency window extends past the Nyquist limit pi/dx = {math.pi / dx:.2f}"
        )
    return omega_grid


def _check_aliasing(pair: UnruhSmearingPair) -> None:
    density = np.abs(pair.g_r) ** 2 + np.abs(pair.g_l) ** 2
    peak = float(density.max())
    if peak > 0.0 and float(density[-1]) > 1e-10 * peak:
        edge = float(pair.omega_grid[-1])
        raise GridError(
            f"spectral mass at the Omega = {edge:.2f} grid edge; the profile is not "
            "resolved, increase the frequency window or refine the x grid"
        )


def g_from_f(
    f: MinkowskiSmearing,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
) -> UnruhSmearingPair:
    """Unruh images g_R(Omega) = int alpha_R f domega and likewise g_L.

    Evaluated as the Fourier transform of F(x) = sqrt(omega) f at +-Omega.
    Raises ``GridError`` when spectral mass piles up at the edge of the
    frequency window (aliasing).
    """
    weight = f.weight_x()
    if omega_grid is None:
        omega_grid = _default_omega_grid(f.x, weight)
    else:
        omega_grid = _explicit_omega_grid(omega_grid, f.dx)
    g_r, g_l = _forward_transform(
        f.x, weight, omega_grid, kernel.epsilon, math.log(kernel.length_scale)
    )
    pair = UnruhSmearingPair(omega_grid, g_r, g_l)
    _check_aliasing(pair)
    return pair


def f_from_g(
    pair: UnruhSmearingPair,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    x_grid=None,
) -> MinkowskiSmearing:
    """Inverse transform f(omega) = int [alpha_R* g_R + alpha_L* g_L] dOmega."""
    if x_grid is None:
        # mirror the forward defaults: resolve the finest oscillation the pair
        # can produce and span enough x to hold its Fourier image
        dx = math.pi / (2.0 * float(pair.omega_grid[-1]))
        half = math.pi / (2.0 * pair.d_omega) * 0.5
        n = int(math.ceil(2.0 * half / dx)) + 1
        x_grid = np.linspace(-half, half, min(max(n, 64), 60_000))
    else:
        x_grid = _check_uniform(np.asarray(x_grid, dtype=float))
    weight = _inverse_transform(x_grid, pair, kernel.epsilon, math.log(kernel.length_scale))
    return MinkowskiSmearing(x_grid, weight / np.sqrt(np.exp(x_grid)))


def closed_form_g(
    params: LogGaussianParams,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
) -> UnruhSmearingPair:
    """Cropped-Gaussian Unruh images of the log-Gaussian packet.

    g_R = (pi lambda)^(-1/4) exp[-(Omega - eps mu)^2 / (2 lambda)] (omega0 l)^(+i eps Omega),
    g_L = (pi lambda)^(-1/4) exp[-(Omega + eps mu)^2 / (2 lambda)] (omega0 l)^(-i eps Omega).

    For eps mu >> sqrt(lambda) the left image is exponentially small and the
    right one peaks at Omega = eps mu with spread sqrt(lambda/2).
    """
    if omega_grid is None:
        f = f_log_gaussian(params)
        omega_grid = _default_omega_grid(f.x, f.weight_x())
    else:
        omega_grid = _check_uniform(np.asarray(omega_grid, dtype=float))
    lam, mu, eps = params.lam, params.mu, kernel.epsilon
    log_w0l = math.log(params.omega0 * kernel.length_scale)
    amp = (math.pi * lam) ** -0.25
    g_r = amp * np.exp(-((omega_grid - eps * mu) ** 2) / (2.0 * lam)) * np.exp(
        1j * eps * omega_grid * log_w0l
    )
    g_l = amp * np.exp(-((omega_grid + eps * mu) ** 2) / (2.0 * lam)) * np.exp(
        -1j * eps * omega_grid * log_w0l
    )
    return UnruhSmearingPair(omega_grid, g_r, g_l)


def parseval_residual(f: MinkowskiSmearing, pair: UnruhSmearingPair) -> float:
    """|int |f|^2 domega - int (|g_R|^2 + |g_L|^2) dOmega|."""
    return abs(f.norm_squared() - pair.norm_squared())


def round_trip_error(
    f: MinkowskiSmearing,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
) -> float:
    """L2 distance between f and its image under forward plus inverse transform."""
    pair = g_from_f(f, kernel, omega_grid)
    back = f_from_g(pair, kernel, x_grid=f.x)
    return f.l2_distance(back)


# ---------------------------------------------------------------------------
# peaking diagnostics


@dataclass(frozen=True)
class PeakingReport:
    """How sharply a packet selects one Unruh frequency and one sector.

    ``delta_omega`` is the spread of the signed Unruh variable (+Omega for
    the sector carrying e^{+i eps Omega x}, -Omega for the other), which is
    the Fourier conjugate of x = ln(omega l); ``uncertainty_product`` is its
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


def _signed_moments(pair: UnruhSmearingPair, eps: int) -> tuple[float, float]:
    w = pair.quadrature_weights()
    dens_r = w * np.abs(pair.g_r) ** 2
    dens_l = w * np.abs(pair.g_l) ** 2
    total = float(dens_r.sum() + dens_l.sum())
    signed = eps * pair.omega_grid
    mean = float((np.sum(signed * dens_r) - np.sum(signed * dens_l)) / total)
    var = float(
        (np.sum((signed - mean) ** 2 * dens_r) + np.sum((-signed - mean) ** 2 * dens_l)) / total
    )
    return mean, math.sqrt(max(var, 0.0))


def peaking_report_from_pair(
    f: MinkowskiSmearing,
    pair: UnruhSmearingPair,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> PeakingReport:
    """Peaking diagnostics for an already-computed Unruh image."""
    _, delta_omega = _signed_moments(pair, kernel.epsilon)
    density_x = np.abs(f.weight_x()) ** 2
    total_x = float(density_x.sum()) * f.dx
    xl = f.x + math.log(kernel.length_scale)
    mean_x = float(np.sum(xl * density_x) * f.dx / total_x)
    delta_x = math.sqrt(max(float(np.sum((xl - mean_x) ** 2 * density_x) * f.dx / total_x), 0.0))
    norm_r, norm_l = pair.sector_norms()
    total = norm_r + norm_l
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


def peaking_report(
    f: MinkowskiSmearing,
    kernel: BogoliubovKernel = BogoliubovKernel(),
    omega_grid=None,
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> PeakingReport:
    """Compute the Unruh image of ``f`` and its peaking diagnostics."""
    pair = g_from_f(f, kernel, omega_grid)
    return peaking_report_from_pair(f, pair, kernel, leakage_threshold)


# ---------------------------------------------------------------------------
# massive scalar field: rapidity replaces ln(omega l)


@dataclass(frozen=True)
class MassiveKernel:
    """Mass scale of the field; omega_k = sqrt(m^2 + k^2) >= m."""

    mass: float

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"mass must be > 0, got {self.mass}")


def massive_alpha(k, big_omega, kernel: MassiveKernel):
    """Pair (alpha_R, alpha_L) = (2 pi omega_k)^(-1/2) ((omega_k + k)/m)^(+-i Omega).

    The exponent variable is the Minkowski rapidity arcsinh(k/m), evaluated
    in that form to stay accurate for large negative k.
    """
    k = np.asarray(k, dtype=float)
    big_omega = np.asarray(big_omega, dtype=float)
    if np.any(big_omega <= 0.0):
        raise ValueError("massive alpha coefficients need Omega > 0")
    omega = np.hypot(kernel.mass, k)
    rapidity = np.arcsinh(k / kernel.mass)
    phase = np.exp(1j * big_omega * rapidity)
    root = np.sqrt(2.0 * math.pi * omega)
    return phase / root, np.conj(phase) / root


@dataclass(frozen=True, eq=False)
class MassiveSmearing:
    """Profile f(k) over momentum, sampled on a uniform rapidity grid.

    ``x`` is the rapidity arcsinh(k/m); the measure transforms as
    dk = omega_k dx, so the L2(dx) weight is again sqrt(omega_k) f.
    """

    x: np.ndarray
    samples: np.ndarray
    mass: float

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        x = np.array(_check_uniform(self.x), dtype=float)
        samples = np.array(self.samples, dtype=complex)
        if samples.shape != x.shape:
            raise GridError("samples and grid must have matching shapes")
        x.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "samples", samples)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def momentum(self) -> np.ndarray:
        return self.mass * np.sinh(self.x)

    @property
    def omega(self) -> np.ndarray:
        return self.mass * np.cosh(self.x)

    def weight_x(self) -> np.ndarray:
        return np.sqrt(self.omega) * self.samples

    def norm_squared(self) -> float:
        """int |f|^2 dk evaluated in rapidity."""
        return float(np.sum(np.abs(self.weight_x()) ** 2) * self.dx)

    def normalized(self) -> "MassiveSmearing":
        n2 = self.norm_squared()
        if n2 == 0.0:
            raise ValueError("cannot normalize an identically zero profile")
        return MassiveSmearing(self.x, self.samples / math.sqrt(n2), self.mass)

    def l2_distance(self, other: "MassiveSmearing") -> float:
        if other.x.shape != self.x.shape or not np.allclose(other.x, self.x):
            raise GridError("L2 distance requires identical grids")
        diff = self.weight_x() - other.weight_x()
        return float(math.sqrt(np.sum(np.abs(diff) ** 2) * self.dx))


def rapidity_gaussian(
    lam: float,
    mu: float,
    kernel: MassiveKernel,
    x_grid=None,
    center: float = 0.0,
) -> MassiveSmearing:
    """Packet Gaussian in rapidity with chirp phase e^{-i mu x}, centred on k = m sinh(center)."""
    params = LogGaussianParams(lam, mu)

    def weight(x):
        y = x - center
        return (lam / math.pi) ** 0.25 * np.exp(-0.5 * lam * y * y) * np.exp(-1j * mu * y)

    if x_grid is None:
        sigma_x = (2.0 * lam) ** -0.5
        x = _auto_x_grid(weight, center, max(14.0 * sigma_x, 10.0), _default_dx(params))
    else:
        x = _check_uniform(np.asarray(x_grid, dtype=float))
    omega = kernel.mass * np.cosh(x)
    f = MassiveSmearing(x, weight(x) / np.sqrt(omega), kernel.mass)
    if abs(1.0 - f.norm_squared()) > _NORM_DEFICIT_TOL:
        raise GridError("rapidity grid too narrow to hold the unit norm; widen the bounds")
    return f


def massive_g_from_f(f: MassiveSmearing, omega_grid=None) -> UnruhSmearingPair:
    """Unruh images of a massive packet; no mover index in the massive case."""
    weight = f.weight_x()
    if omega_grid is None:
        omega_grid = _default_omega_grid(f.x, weight)
    else:
        omega_grid = _explicit_omega_grid(omega_grid, f.dx)
    g_r, g_l = _forward_transform(f.x, weight, omega_grid, 1, 0.0)
    pair = UnruhSmearingPair(omega_grid, g_r, g_l)
    _check_aliasing(pair)
    return pair


def massive_f_from_g(pair: UnruhSmearingPair, kernel: MassiveKernel, x_grid) -> MassiveSmearing:
    """Inverse massive transform onto the given rapidity grid."""
    x_grid = _check_uniform(np.asarray(x_grid, dtype=float))
    weight = _inverse_transform(x_grid, pair, 1, 0.0)
    omega = kernel.mass * np.cosh(x_grid)
    return MassiveSmearing(x_grid, weight / np.sqrt(omega), kernel.mass)


def massive_peaking_report(
    f: MassiveSmearing,
    omega_grid=None,
    leakage_threshold: float = DEFAULT_LEAKAGE_THRESHOLD,
) -> PeakingReport:
    """Peaking diagnostics of a massive packet (rapidity spread vs Unruh spread)."""
    pair = massive_g_from_f(f, omega_grid)
    _, delta_omega = _signed_moments(pair, 1)
    density_x = np.abs(f.weight_x()) ** 2
    total_x = float(density_x.sum()) * f.dx
    mean_x = float(np.sum(f.x * density_x) * f.dx / total_x)
    delta_x = math.sqrt(max(float(np.sum((f.x - mean_x) ** 2 * density_x) * f.dx / total_x), 0.0))
    norm_r, norm_l = pair.sector_norms()
    total = norm_r + norm_l
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
