"""Smearing-function transform pair, packet families and peaking diagnostics."""

import math

import numpy as np
import pytest

from unruhkit.errors import GridError
from unruhkit.wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
    MassiveKernel,
    MinkowskiSmearing,
    UnruhSmearingPair,
    alpha_l,
    alpha_r,
    alternate_packets,
    closed_form_g,
    f_from_g,
    f_log_gaussian,
    g_from_f,
    massive_alpha,
    massive_f_from_g,
    massive_g_from_f,
    massive_peaking_report,
    mixed_log_gaussian,
    parseval_residual,
    peaking_report,
    peaking_report_from_pair,
    rapidity_gaussian,
    round_trip_error,
)


class TestAlphaCoefficients:
    def test_modulus_is_frequency_only(self):
        omegas = np.array([0.3, 1.0, 4.2])
        for big in (0.5, 2.0, 7.0):
            values = alpha_r(omegas, big)
            assert np.allclose(np.abs(values), 1.0 / np.sqrt(2.0 * np.pi * omegas))

    def test_left_is_conjugate_of_right(self):
        kernel = BogoliubovKernel(epsilon=-1, length_scale=2.0)
        a_r = alpha_r(1.7, 3.1, kernel)
        a_l = alpha_l(1.7, 3.1, kernel)
        assert abs(a_l - np.conj(a_r)) < 1e-15

    def test_unit_phase_at_inverse_length(self):
        kernel = BogoliubovKernel(length_scale=2.5)
        value = alpha_r(1.0 / 2.5, 4.0, kernel)
        assert abs(value.imag) < 1e-15
        assert value.real > 0.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            alpha_r(-1.0, 1.0)
        with pytest.raises(ValueError):
            alpha_r(1.0, 0.0)
        with pytest.raises(ValueError):
            BogoliubovKernel(epsilon=2)


class TestLogGaussian:
    def test_normalized(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 5.0))
        assert abs(f.norm_squared() - 1.0) < 1e-12

    def test_log_frequency_moments(self):
        # <ln(omega l)> = ln(omega0 l) and spread (2 lambda)^(-1/2)
        lam, omega0 = 2.5, 3.0
        f = f_log_gaussian(LogGaussianParams(lam, 1.0, omega0))
        density = np.abs(f.weight_x()) ** 2 * f.dx
        mean = float(np.sum(f.x * density))
        spread = math.sqrt(float(np.sum((f.x - mean) ** 2 * density)))
        assert abs(mean - math.log(omega0)) < 1e-10
        assert abs(spread - (2.0 * lam) ** -0.5) < 1e-10

    def test_frequency_moments_against_lognormal_oracle(self):
        # quadrature of omega |f|^2 domega; the omega0 = 2 scale makes the
        # dimensional prefactor visible: <omega> = omega0 e^{1/(4 lambda)}
        lam, omega0 = 1.0, 2.0
        f = f_log_gaussian(LogGaussianParams(lam, 0.0, omega0))
        density = np.abs(f.weight_x()) ** 2 * f.dx
        omega = f.omega
        mean = float(np.sum(omega * density))
        second = float(np.sum(omega**2 * density))
        spread = math.sqrt(second - mean * mean)
        assert abs(mean - omega0 * math.exp(0.25 / lam)) < 1e-10
        assert abs(spread - mean * math.sqrt(math.exp(0.5 / lam) - 1.0)) < 1e-10

    def test_narrow_explicit_grid_rejected(self):
        with pytest.raises(GridError):
            f_log_gaussian(LogGaussianParams(1.0, 0.0), x_grid=np.linspace(-1.0, 1.0, 64))


class TestTransformPair:
    def test_quadrature_matches_closed_form(self):
        params = LogGaussianParams(1.0, 5.0)
        kernel = BogoliubovKernel(epsilon=1)
        f = f_log_gaussian(params)
        pair = g_from_f(f, kernel)
        exact = closed_form_g(params, kernel, omega_grid=pair.omega_grid)
        assert np.max(np.abs(pair.g_r - exact.g_r)) < 1e-6
        assert np.max(np.abs(pair.g_l - exact.g_l)) < 1e-6

    def test_closed_form_with_nontrivial_scales(self):
        params = LogGaussianParams(1.7, 3.0, omega0=2.0)
        kernel = BogoliubovKernel(epsilon=-1, length_scale=1.5)
        f = f_log_gaussian(params)
        pair = g_from_f(f, kernel)
        exact = closed_form_g(params, kernel, omega_grid=pair.omega_grid)
        assert np.max(np.abs(pair.g_r - exact.g_r)) < 1e-8
        assert np.max(np.abs(pair.g_l - exact.g_l)) < 1e-8

    def test_symmetric_images_without_chirp(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 0.0))
        pair = g_from_f(f)
        assert np.max(np.abs(np.abs(pair.g_r) - np.abs(pair.g_l))) < 1e-12

    def test_parseval(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 5.0))
        pair = g_from_f(f)
        assert parseval_residual(f, pair) < 1e-6

    def test_round_trip(self):
        assert round_trip_error(f_log_gaussian(LogGaussianParams(1.0, 5.0))) < 1e-6

    def test_linearity_of_inverse(self):
        kernel = BogoliubovKernel()
        f = f_log_gaussian(LogGaussianParams(1.0, 4.0))
        pair = g_from_f(f, kernel)
        a, b = 0.3 - 0.2j, 1.1 + 0.5j
        combo = UnruhSmearingPair(
            pair.omega_grid, a * pair.g_r + b * pair.g_r, a * pair.g_l + b * pair.g_l
        )
        direct = f_from_g(combo, kernel, x_grid=f.x)
        single = f_from_g(pair, kernel, x_grid=f.x)
        assert np.max(np.abs(direct.samples - (a + b) * single.samples)) < 1e-10

    def test_delta_like_right_sector(self):
        # a narrow g_R at Omega0 inverts to |f| ~ omega^(-1/2) with phase
        # (omega l)^(-i eps Omega0)
        omega0_big = 3.0
        width = 0.05
        grid = np.linspace(0.0, 8.0, 3200)
        g_r = np.exp(-((grid - omega0_big) ** 2) / (2.0 * width**2)).astype(complex)
        pair = UnruhSmearingPair(grid, g_r, np.zeros_like(g_r))
        x = np.linspace(-6.0, 6.0, 700)
        f = f_from_g(pair, BogoliubovKernel(), x_grid=x)
        weight = f.weight_x()  # sqrt(omega) f, should be ~ const modulus
        mods = np.abs(weight)
        assert mods.max() / mods.min() < 1.05
        rephased = weight * np.exp(1j * omega0_big * x)
        angles = np.angle(rephased * np.conj(rephased[350]))
        assert np.max(np.abs(angles)) < 1e-6

    def test_aliasing_detected(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        with pytest.raises(GridError):
            g_from_f(f, omega_grid=np.linspace(0.0, 4.0, 400))

    def test_omega_grid_must_start_at_zero(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 5.0))
        with pytest.raises(GridError):
            g_from_f(f, omega_grid=np.linspace(1.0, 20.0, 400))


class TestClosedFormProperties:
    def test_minor_sector_bound(self):
        # integral ratio |g_L|^2 / |g_R|^2 < e^{-mu^2/lambda} for eps mu >> sqrt(lambda)
        params = LogGaussianParams(1.0, 4.0)
        pair = closed_form_g(params, omega_grid=np.linspace(0.0, 25.0, 2000))
        norm_r, norm_l = pair.sector_norms()
        assert norm_l / norm_r < math.exp(-params.mu**2 / params.lam)

    def test_peak_location_and_width(self):
        params = LogGaussianParams(0.8, 6.0)
        grid = np.linspace(0.0, 30.0, 6000)
        pair = closed_form_g(params, omega_grid=grid)
        peak = grid[int(np.argmax(np.abs(pair.g_r)))]
        assert abs(peak - 6.0) < 0.01
        w = pair.quadrature_weights()
        dens = w * np.abs(pair.g_r) ** 2
        mean = float(np.sum(grid * dens) / dens.sum())
        spread = math.sqrt(float(np.sum((grid - mean) ** 2 * dens) / dens.sum()))
        assert abs(spread - math.sqrt(params.lam / 2.0)) < 1e-3

    def test_no_chirp_symmetry(self):
        pair = closed_form_g(LogGaussianParams(1.0, 0.0))
        assert np.max(np.abs(np.abs(pair.g_r) - np.abs(pair.g_l))) < 1e-14


class TestAlternatePackets:
    @pytest.mark.parametrize("kind", ["gamma", "bessel"])
    def test_normalized_within_tolerance(self, kind):
        f = alternate_packets(kind, LogGaussianParams(1.0, 5.0))
        assert abs(f.norm_squared() - 1.0) < 1e-8

    @pytest.mark.parametrize("kind", ["gamma", "bessel"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_parseval_and_round_trip(self, kind, lam):
        f = alternate_packets(kind, LogGaussianParams(lam, 5.0))
        pair = g_from_f(f)
        assert parseval_residual(f, pair) < 1e-6
        assert round_trip_error(f) < 1e-6

    def test_gamma_density_peaks(self):
        # d|f|^2/domega = 0 at omega = omega0/2 for lambda = 1; the density per
        # unit ln(omega) peaks at omega0 instead
        omega0 = 2.0
        f = alternate_packets("gamma", LogGaussianParams(1.0, 0.0, omega0))
        density_per_domega = np.abs(f.samples) ** 2
        density_per_dx = np.abs(f.weight_x()) ** 2
        peak_omega = f.omega[int(np.argmax(density_per_domega))]
        peak_x = f.omega[int(np.argmax(density_per_dx))]
        # argmax resolution is one grid step, d omega = omega dx
        assert abs(peak_omega - omega0 / 2.0) < 1.5 * (omega0 / 2.0) * f.dx
        assert abs(peak_x - omega0) < 1.5 * omega0 * f.dx

    @pytest.mark.parametrize("kind", ["gamma", "bessel"])
    def test_sma_valid_when_chirped(self, kind):
        f = alternate_packets(kind, LogGaussianParams(1.0, 5.0))
        report = peaking_report(f)
        assert report.sma_valid
        assert report.leakage < 1e-2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            alternate_packets("lorentz", LogGaussianParams(1.0, 0.0))


class TestPeakingReport:
    def test_peaked_regime_saturates_uncertainty(self):
        report = peaking_report(f_log_gaussian(LogGaussianParams(1.0, 8.0)))
        assert abs(report.uncertainty_product - 0.5) < 0.01
        assert report.sma_valid
        assert abs(report.peak_omega - 8.0) < 0.1
        assert abs(report.delta_omega - math.sqrt(0.5)) < 1e-3

    @pytest.mark.parametrize(
        "packet",
        [
            f_log_gaussian(LogGaussianParams(1.0, 8.0)),
            f_log_gaussian(LogGaussianParams(2.0, 0.0)),
            alternate_packets("gamma", LogGaussianParams(1.0, 5.0)),
            alternate_packets("bessel", LogGaussianParams(1.0, 5.0)),
            mixed_log_gaussian(LogGaussianParams(1.0, 6.0), 0.6),
        ],
    )
    def test_uncertainty_bound(self, packet):
        report = peaking_report(packet)
        assert report.uncertainty_product >= 0.5 - 1e-3

    def test_balanced_packet_fails_sma(self):
        report = peaking_report(f_log_gaussian(LogGaussianParams(1.0, 0.0)))
        assert abs(report.leakage - 0.5) < 1e-10
        assert not report.sma_valid

    def test_truncating_one_sector_breaks_saturation(self):
        # zeroing g_L restricts the Fourier image to a half line, which a
        # Gaussian cannot saturate: strict inequality.  The hard cut at
        # Omega = 0 gives the reconstruction slow 1/x tails, so the report is
        # taken from the clipped pair itself rather than a re-transform.
        kernel = BogoliubovKernel()
        f = f_log_gaussian(LogGaussianParams(1.0, 0.0))
        pair = g_from_f(f, kernel)
        clipped = UnruhSmearingPair(pair.omega_grid, pair.g_r, np.zeros_like(pair.g_l))
        back = f_from_g(clipped, kernel, x_grid=f.x).normalized()
        report = peaking_report_from_pair(back, clipped, kernel)
        assert report.uncertainty_product > 0.5 + 1e-3
        assert report.leakage == 0.0

    def test_mixed_packet_splits_weight(self):
        angle = 0.6
        f = mixed_log_gaussian(LogGaussianParams(1.0, 6.0), angle)
        pair = g_from_f(f)
        norm_r, norm_l = pair.sector_norms()
        assert abs(norm_r - math.cos(angle) ** 2) < 1e-6
        assert abs(norm_l - math.sin(angle) ** 2) < 1e-6

    def test_mixed_packet_transform_suite(self):
        f = mixed_log_gaussian(LogGaussianParams(1.0, 6.0), 0.8)
        pair = g_from_f(f)
        assert parseval_residual(f, pair) < 1e-6
        assert round_trip_error(f) < 1e-6


class TestMassive:
    def test_alpha_modulus_and_zero_momentum(self):
        kernel = MassiveKernel(1.3)
        a_r, a_l = massive_alpha(0.0, 2.0, kernel)
        assert abs(a_r - a_l) < 1e-15
        assert abs(a_r - 1.0 / math.sqrt(2.0 * math.pi * 1.3)) < 1e-15
        ks = np.array([-3.0, 0.2, 5.0])
        a_r, a_l = massive_alpha(ks, 1.5, kernel)
        omega = np.hypot(1.3, ks)
        assert np.allclose(np.abs(a_r), 1.0 / np.sqrt(2.0 * np.pi * omega))
        assert np.allclose(a_l, np.conj(a_r))

    def test_rapidity_gaussian_normalized(self):
        f = rapidity_gaussian(1.0, 5.0, MassiveKernel(1.0))
        assert abs(f.norm_squared() - 1.0) < 1e-12

    def test_matches_massless_pipeline_under_variable_map(self):
        # identical profiles in x = ln(omega l) and x = rapidity give identical
        # Unruh images; this is the content of the massless -> massive map
        lam, mu = 1.0, 5.0
        massless = f_log_gaussian(LogGaussianParams(lam, mu, omega0=1.0))
        massive = rapidity_gaussian(lam, mu, MassiveKernel(1.0))
        assert np.allclose(massless.x, massive.x)
        pair_a = g_from_f(massless, BogoliubovKernel(epsilon=1))
        pair_b = massive_g_from_f(massive, omega_grid=pair_a.omega_grid)
        assert np.max(np.abs(pair_a.g_r - pair_b.g_r)) < 1e-6
        assert np.max(np.abs(pair_a.g_l - pair_b.g_l)) < 1e-6

    def test_parseval_and_round_trip(self):
        kernel = MassiveKernel(2.0)
        f = rapidity_gaussian(1.0, 4.0, kernel)
        pair = massive_g_from_f(f)
        assert abs(f.norm_squared() - pair.norm_squared()) < 1e-6
        back = massive_f_from_g(pair, kernel, f.x)
        assert f.l2_distance(back) < 1e-6

    def test_peaked_at_chirp_frequency(self):
        report = massive_peaking_report(rapidity_gaussian(1.0, 6.0, MassiveKernel(1.0)))
        assert abs(report.peak_omega - 6.0) < 0.1
        assert report.sma_valid

    def test_no_chirp_symmetry(self):
        pair = massive_g_from_f(rapidity_gaussian(1.0, 0.0, MassiveKernel(1.0)))
        assert np.max(np.abs(np.abs(pair.g_r) - np.abs(pair.g_l))) < 1e-12

    def test_momentum_and_frequency_grids(self):
        f = rapidity_gaussian(1.0, 0.0, MassiveKernel(2.0))
        assert np.allclose(f.omega, np.hypot(2.0, f.momentum))
        assert f.omega.min() >= 2.0


class TestGridValidation:
    def test_nonuniform_grid_rejected(self):
        x = np.concatenate([np.linspace(-5, 0, 50), np.linspace(0.1, 5, 60)])
        with pytest.raises(GridError):
            MinkowskiSmearing(x, np.zeros_like(x, dtype=complex))

    def test_pair_grid_must_start_at_zero(self):
        grid = np.linspace(1.0, 5.0, 64)
        with pytest.raises(GridError):
            UnruhSmearingPair(grid, np.zeros(64, complex), np.zeros(64, complex))

    def test_nyquist_guard(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 2.0))
        beyond = math.pi / f.dx * 1.5
        with pytest.raises(GridError):
            g_from_f(f, omega_grid=np.linspace(0.0, beyond, 512))

    def test_nyquist_guard_on_both_forward_paths(self):
        # the massless and the massive transform reject a window 3x past pi/dx
        # with the same message
        massless = f_log_gaussian(LogGaussianParams(1.0, 2.0))
        massive = rapidity_gaussian(1.0, 2.0, MassiveKernel(1.0))
        messages = []
        for transform, f in ((g_from_f, massless), (massive_g_from_f, massive)):
            grid = np.linspace(0.0, 3.0 * math.pi / f.dx, 512)
            with pytest.raises(GridError, match="Nyquist limit") as err:
                transform(f, omega_grid=grid)
            messages.append(str(err.value))
        # the two profiles share their grid, so the messages must agree
        assert massless.dx == massive.dx
        assert messages[0] == messages[1]
