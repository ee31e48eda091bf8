"""Smearing-function transform pair, packet families and peaking diagnostics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unruhkit import wavepacket
from unruhkit.errors import GridError
from unruhkit.wavepacket import (
    BogoliubovKernel,
    LogGaussianParams,
    MinkowskiSmearing,
    UnruhSmearingPair,
    alternate_packets,
    closed_form_g,
    f_from_g,
    f_log_gaussian,
    g_from_f,
    parseval_residual,
    peaking_report_from_pair,
    rapidity_gaussian,
    _auto_x_grid,
    _check_uniform,
    _forward_transform,
    _inverse_transform,
    _k0e,
    _root_order,
    _roots_fft,
    _smooth_size,
    _step,
)


def add_at_fold(big, *rows):
    """The spectrum of ``_roots_fft`` with each v_k added at -s k mod N by ``np.add.at``, in the order of k."""
    folded = np.zeros(big, dtype=complex)
    for v, sign in rows:
        np.add.at(folded, -sign * np.arange(v.size) % big, v)
    return np.fft.fft(folded)


@settings(max_examples=200, deadline=None)
@given(big=st.integers(1, 40), sizes=st.lists(st.integers(1, 200), min_size=1, max_size=3),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3), seed=st.integers(0, 2**32 - 1))
@example(big=29, sizes=[112, 43], signs=[-1, 1, 1], seed=1)  # four rows of N, where a reshaped sum reorders
@example(big=1280, sizes=[321, 321], signs=[-1, 1, 1], seed=2)  # a packet's inverse transform, no wrap
def test_roots_fft_folds_bit_for_bit_as_add_at(big, sizes, signs, seed):
    # slice adds, a row of N at a time in the order of k, add each index's terms in add.at's order,
    # signed zeros included
    rng = np.random.default_rng(seed)
    rows = []
    for size, sign in zip(sizes, signs):
        v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size) + 1j * rng.standard_normal(size)
        v[rng.random(size) < 0.2] = complex(-0.0, -0.0)
        rows.append((v, sign))
    assert _roots_fft(big, *rows).tobytes() == add_at_fold(big, *rows).tobytes()


def direct_sum(v, t, w, sign):
    """sum_j v_j exp(i sign w_k t_j) by the O(N_t N_w) definition: the oracle of both FFT paths."""
    return np.exp(1j * sign * np.outer(w, t)) @ v


def count_ffts(mp) -> list:
    """Patch numpy.fft.fft and ifft through ``mp`` to append, per call, the 1-d transforms it makes."""
    from numpy import fft

    transforms = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _transform=getattr(fft, name), **kwargs):
            transforms.append(np.size(a) // np.shape(a)[-1])
            return _transform(a, *args, **kwargs)

        mp.setattr(fft, name, counted)
    return transforms


def assert_transforms_match_direct_sum(x, omega, eps, rng):
    """Forward and inverse transforms on (x, omega) against the direct sum, to 1e-10 relative."""
    weight = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    g_r, g_l = _forward_transform(x, weight, omega, eps)
    scale = _step(x) / math.sqrt(2.0 * math.pi)
    for got, sign in ((g_r, eps), (g_l, -eps)):
        ref = scale * direct_sum(weight, x, omega, sign)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    pair = UnruhSmearingPair(omega, *(rng.normal(size=(2, omega.size)) + 1j * rng.normal(size=(2, omega.size))))
    w = pair.quadrature_weights()
    ref = direct_sum(w * pair.g_r, omega, x, -eps) + direct_sum(w * pair.g_l, omega, x, eps)
    got = _inverse_transform(x, pair, eps) * math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestBogoliubovKernel:
    @pytest.mark.parametrize("epsilon", [2, 0])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be"):
            BogoliubovKernel(epsilon)

    def test_a_massive_packet_has_no_mover_index(self):
        f = rapidity_gaussian(1.0, 4.0, 1.0)
        left = BogoliubovKernel(epsilon=-1)
        with pytest.raises(ValueError, match="no mover index"):
            g_from_f(f, left)
        pair = g_from_f(f)
        with pytest.raises(ValueError, match="no mover index"):
            UnruhSmearingPair(pair.omega_grid, pair.g_r, pair.g_l, pair.mass, left)

    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_the_pair_carries_its_kernel(self, epsilon):
        # the inverse and the peaking report take the kernel from the pair, so no
        # caller can hand them one that does not match the forward transform
        kernel = BogoliubovKernel(epsilon)
        params = LogGaussianParams(1.7, 3.0, omega0=2.0)
        f = f_log_gaussian(params)
        pair = g_from_f(f, kernel)
        assert pair.kernel is kernel
        assert closed_form_g(params, kernel, omega_grid=pair.omega_grid).kernel is kernel
        assert f.l2_distance(f_from_g(pair, f.x)) < 1e-6
        # the left-mover image is the right-mover one with its sectors exchanged, and the
        # signed variable with them: one report
        report, right = peaking_report_from_pair(f, pair), peaking_report_from_pair(f, g_from_f(f))
        assert report.sma_valid == right.sma_valid and report.peak_omega == right.peak_omega
        assert np.allclose(report[1:5], right[1:5], rtol=1e-12, atol=1e-15)


class TestLogGaussian:
    def test_normalized(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 5.0))
        assert abs(f.norm_squared() - 1.0) < 1e-12

    @pytest.mark.parametrize("points", [20001, 200001])
    def test_unit_norm_on_a_fine_grid_far_from_zero(self, points):
        # the rectangle weight is the mean step; the first step x[1] - x[0]
        # carries the rounding of x[0], 1.6e-10 of the step at 200001 points
        # here, which failed the unit-norm check
        center = 300.0
        x = np.linspace(center - 12.0, center + 12.0, points)
        f = f_log_gaussian(LogGaussianParams(1.0, 3.0, omega0=math.exp(center)), x_grid=x)
        assert abs(f.norm_squared() - 1.0) < 1e-14
        if points == 20001:  # and the forward transform's weight is the same step
            assert abs(g_from_f(f).norm_squared() - 1.0) < 1e-13

    def test_log_frequency_moments(self):
        # <ln(omega l)> = ln(omega0 l) and spread (2 lambda)^(-1/2)
        lam, omega0 = 2.5, 3.0
        f = f_log_gaussian(LogGaussianParams(lam, 1.0, omega0))
        density = np.abs(f.weight) ** 2 * f.dx
        mean = float(np.sum(f.x * density))
        spread = math.sqrt(float(np.sum((f.x - mean) ** 2 * density)))
        assert abs(mean - math.log(omega0)) < 1e-10
        assert abs(spread - (2.0 * lam) ** -0.5) < 1e-10

    def test_frequency_moments_against_lognormal_oracle(self):
        # quadrature of omega |f|^2 domega; the omega0 = 2 scale makes the
        # dimensional prefactor visible: <omega> = omega0 e^{1/(4 lambda)}
        lam, omega0 = 1.0, 2.0
        f = f_log_gaussian(LogGaussianParams(lam, 0.0, omega0))
        density = np.abs(f.weight) ** 2 * f.dx
        omega = f.omega
        mean = float(np.sum(omega * density))
        second = float(np.sum(omega**2 * density))
        spread = math.sqrt(second - mean * mean)
        assert abs(mean - omega0 * math.exp(0.25 / lam)) < 1e-10
        assert abs(spread - mean * math.sqrt(math.exp(0.5 / lam) - 1.0)) < 1e-10

    def test_narrow_explicit_grid_rejected(self):
        with pytest.raises(GridError):
            f_log_gaussian(LogGaussianParams(1.0, 0.0), x_grid=np.linspace(-1.0, 1.0, 64))

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1.0), "lambda must be > 0 and finite"),
        ((math.inf, 1.0), "lambda must be > 0 and finite"),
        ((1.0, math.nan), "mu must be finite"),
        ((1.0, 1.0, math.nan), "omega0 must be > 0 and finite"),
    ])
    def test_non_finite_parameters_rejected(self, args, message):
        # these used to pass construction and end in a NaN-to-integer error
        # or a ZeroDivisionError in the grid code, or in NaN profiles
        with pytest.raises(ValueError, match=message):
            LogGaussianParams(*args)


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
        kernel = BogoliubovKernel(epsilon=-1)
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
        f = f_log_gaussian(LogGaussianParams(1.0, 5.0))
        assert f.l2_distance(f_from_g(g_from_f(f), f.x)) < 1e-6

    def test_linearity_of_inverse(self):
        kernel = BogoliubovKernel()
        f = f_log_gaussian(LogGaussianParams(1.0, 4.0))
        pair = g_from_f(f, kernel)
        a, b = 0.3 - 0.2j, 1.1 + 0.5j
        combo = UnruhSmearingPair(
            pair.omega_grid, a * pair.g_r + b * pair.g_r, a * pair.g_l + b * pair.g_l
        )
        direct = f_from_g(combo, x_grid=f.x)
        single = f_from_g(pair, x_grid=f.x)
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
        f = f_from_g(pair, x_grid=x)
        weight = f.weight  # sqrt(omega) f, should be ~ const modulus
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


class TestChirpZ:
    @settings(max_examples=60, deadline=None)
    @given(
        n_x=st.integers(16, 400),
        n_omega=st.integers(16, 400),
        x0=st.floats(-50.0, 50.0).filter(lambda v: abs(v) > 0.1),
        span=st.floats(1.0, 40.0),
        reach=st.floats(0.1, 1.0),
        eps=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the rounding of x[1] - x[0], taken as the step, would shift the last
    # phase by n_x ulp(x0) pi/dx, here about 1e-9
    @example(n_x=400, n_omega=399, x0=48.3, span=1.7, reach=1.0, eps=1, seed=0)
    def test_forward_and_inverse_match_direct_sum(self, n_x, n_omega, x0, span, reach, eps, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(x0, x0 + span, n_x)
        omega = np.linspace(0.0, reach * math.pi * (n_x - 1) / span, n_omega)
        weight = rng.normal(size=n_x) + 1j * rng.normal(size=n_x)
        g_r, g_l = _forward_transform(x, weight, omega, eps)
        scale = (x[1] - x[0]) / math.sqrt(2.0 * math.pi)
        for got, sign in ((g_r, eps), (g_l, -eps)):
            ref = scale * direct_sum(weight, x, omega, sign)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

        g = rng.normal(size=(2, n_omega)) + 1j * rng.normal(size=(2, n_omega))
        pair = UnruhSmearingPair(omega, *g)
        w = pair.quadrature_weights()
        ref = direct_sum(w * pair.g_r, omega, x, -eps) + direct_sum(w * pair.g_l, omega, x, eps)
        got = _inverse_transform(x, pair, eps) * math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_large_grids_are_not_capped(self):
        # 48001 x points call for about 1.07e5 frequencies; neither grid is capped
        params = LogGaussianParams(0.01, 8.0)
        f = f_log_gaussian(params, x_grid=np.linspace(-60.0, 60.0, 48001))
        pair = g_from_f(f)
        assert pair.omega_grid.size > 100_000
        assert parseval_residual(f, pair) < 1e-6
        # the packet's content, |Omega - 8| < 1, against the direct sum
        rows = np.flatnonzero(np.abs(pair.omega_grid - 8.0) < 1.0)[::4]
        ref = direct_sum(f.weight, f.x, pair.omega_grid[rows], 1) * f.dx / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(pair.g_r[rows] - ref)) <= 1e-10 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(
        n_x=st.integers(16, 800),
        n_omega=st.integers(16, 300),
        wrap=st.floats(0.0, 1.0),
        x0=st.floats(-50.0, 50.0),
        span=st.floats(1.0, 40.0),
        eps=st.sampled_from([-1, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    # the default rule's N = 4 (N_Omega - 1) and the Nyquist limit's 2 (N_Omega - 1), each with
    # N_x past N: the forward sum folds x modulo N and the inverse one repeats its N outputs
    @example(n_x=800, n_omega=101, wrap=1.0, x0=-3.7, span=30.0, eps=1, seed=0)
    @example(n_x=500, n_omega=64, wrap=0.0, x0=48.3, span=1.7, eps=-1, seed=1)
    def test_aligned_grids_take_one_fft_each_way(self, n_x, n_omega, wrap, x0, span, eps, seed):
        # d_omega = 2 pi / (N dx), with N from 2 (N_Omega - 1), the Nyquist limit, to 4 (N_Omega - 1)
        rng = np.random.default_rng(seed)
        x = np.linspace(x0, x0 + span, n_x)
        big = 2 * (n_omega - 1) + round(wrap * 2 * (n_omega - 1))
        omega = np.arange(n_omega) * (2.0 * math.pi / (big * _step(x)))
        theta = _step(omega) * _step(x)
        assert _root_order(theta, n_omega, n_x) == big
        with pytest.MonkeyPatch.context() as mp:
            ffts = count_ffts(mp)
            assert_transforms_match_direct_sum(x, omega, eps, rng)
            assert ffts == [1, 1]

        # half again the gate's phase-error tolerance off: Bluestein's 5 FFTs each way, and still the sum
        phases = (n_omega - 1) * (n_x - 1)
        off = 1.5 * (1e-13 + 2.0**-50 * phases * theta) / phases
        omega = np.arange(n_omega) * ((2.0 * math.pi / big + off) / _step(x))
        assert _root_order(_step(omega) * _step(x), n_omega, n_x) == 0
        with pytest.MonkeyPatch.context() as mp:
            ffts = count_ffts(mp)
            assert_transforms_match_direct_sum(x, omega, eps, rng)
            assert sum(ffts) == 10

    def test_a_default_grid_round_trip_takes_two_ffts(self, monkeypatch):
        # the default Omega grid makes every phase a root of unity: one FFT each way; the
        # explicit grids of the packet_explicit_grids golden case keep Bluestein's 5 each way
        ffts = count_ffts(monkeypatch)
        explicit = f_log_gaussian(LogGaussianParams(1.0, 8.0), x_grid=np.linspace(-6.0, 6.0, 3000))
        for f, omega_grid, count in (
            (f_log_gaussian(LogGaussianParams(1.0, 8.0)), None, 2),
            (rapidity_gaussian(1.0, 5.0, 1.0), None, 2),
            (explicit, np.linspace(0.0, 40.0, 2000), 10),
        ):
            ffts.clear()
            f_from_g(g_from_f(f, omega_grid=omega_grid), f.x)
            assert sum(ffts) == count


def _is_five_smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def _old_rule_step(x, weight) -> float:
    """The default Omega spacing before the grids were aligned to roots of unity."""
    dx = float(x[1] - x[0])
    density = np.abs(weight) ** 2
    mean = float(np.sum(x * density) / density.sum())
    sigma = math.sqrt(max(float(np.sum((x - mean) ** 2 * density) / density.sum()), dx * dx))
    reach = max(mean - float(x[0]), float(x[-1]) - mean)
    d_omega = min(1.0 / (24.0 * sigma), 2.0 * math.pi / (reach + 8.0 * sigma))
    n = max(int(math.ceil(math.pi / (2.0 * dx) / d_omega)) + 1, 64)
    return math.pi / (2.0 * dx) / (n - 1)


def _benchmark_packets():
    """argv of the benchmark's packet shapes, at the central mu and 3% to either side."""
    from test_perfbench_contract import load

    return [["packet", "--family", family, "--lam", repr(lam), "--mu", repr(mu * scale)]
            for family, lam, mu in load("workloads").PACKETS for scale in (0.97, 1.0, 1.03)]


def _golden_packets():
    from test_cli_golden import PACKET_CASES

    return [argv for stem, argv in sorted(PACKET_CASES.items()) if stem != "packet_explicit_grids"]


class TestDefaultOmegaGrid:
    @pytest.mark.parametrize("argv", _benchmark_packets() + _golden_packets(), ids=" ".join)
    def test_the_grid_is_aligned_and_no_coarser(self, argv):
        from unruhkit import cli

        f, pair, *_ = cli._packet_pipeline(cli._build_parser().parse_args(argv))
        grid, dx = pair.omega_grid, _step(f.x)
        assert grid[0] == 0.0 and grid.size >= 64
        m = grid.size - 1
        assert _is_five_smooth(m)
        assert math.isclose(_step(grid) * dx * 4 * m, 2.0 * math.pi, rel_tol=1e-15)
        assert math.isclose(grid[-1], math.pi / (2.0 * dx), rel_tol=1e-15)
        assert _step(grid) <= _old_rule_step(f.x, f.weight)
        assert _root_order(_step(grid) * dx, grid.size, f.x.size) == 4 * m  # so the transforms take the FFT path

    def test_smooth_size_against_brute_force(self):
        def brute(n):
            return next(k for k in range(n, 2 * n + 1) if _is_five_smooth(k))

        assert [_smooth_size(n) for n in range(1, 5001)] == [brute(n) for n in range(1, 5001)]


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

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.05, 50.0), mu=st.floats(-20.0, 20.0), omega0=st.floats(0.1, 10.0),
           given_grid=st.booleans())
    @example(lam=1.0, mu=4.0, omega0=2.0, given_grid=False)
    @example(lam=1.0, mu=4.0, omega0=2.0, given_grid=True)
    def test_left_movers_exchange_the_sectors(self, lam, mu, omega0, given_grid):
        # one expression over s = +-1: g_R at eps = -1 is g_L at eps = +1 bit for bit, and the reverse
        params = LogGaussianParams(lam, mu, omega0)
        grid = np.linspace(0.0, 30.0, 257) if given_grid else None
        right, left = (closed_form_g(params, BogoliubovKernel(eps), grid) for eps in (1, -1))
        assert left.omega_grid.tobytes() == right.omega_grid.tobytes()
        assert left.g_r.tobytes() == right.g_l.tobytes() and left.g_l.tobytes() == right.g_r.tobytes()

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
        assert f.l2_distance(f_from_g(pair, f.x)) < 1e-6

    def test_gamma_density_peaks(self):
        # d|f|^2/domega = 0 at omega = omega0/2 for lambda = 1; the density per
        # unit ln(omega) peaks at omega0 instead
        omega0 = 2.0
        f = alternate_packets("gamma", LogGaussianParams(1.0, 0.0, omega0))
        density_per_domega = np.abs(f.samples) ** 2
        density_per_dx = np.abs(f.weight) ** 2
        peak_omega = f.omega[int(np.argmax(density_per_domega))]
        peak_x = f.omega[int(np.argmax(density_per_dx))]
        # argmax resolution is one grid step, d omega = omega dx
        assert abs(peak_omega - omega0 / 2.0) < 1.5 * (omega0 / 2.0) * f.dx
        assert abs(peak_x - omega0) < 1.5 * omega0 * f.dx

    @pytest.mark.parametrize("kind", ["gamma", "bessel"])
    def test_sma_valid_when_chirped(self, kind):
        f = alternate_packets(kind, LogGaussianParams(1.0, 5.0))
        report = peaking_report_from_pair(f, g_from_f(f))
        assert report.sma_valid
        assert report.leakage < 1e-2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            alternate_packets("lorentz", LogGaussianParams(1.0, 0.0))


def gamma_image(omega, params, eps):
    """Exact (g_R, g_L) of the gamma packet on ``omega``.

    With y = ln(omega/omega0) its weight is F = C e^{(lambda - i mu) y - e^y}, with
    C = 2^lambda / sqrt(Gamma(2 lambda)), and int e^{(lambda + i nu) y - e^y} dy = Gamma(lambda + i nu).
    So g(s) = C Gamma(lambda + i (s - mu)) omega0^{i s} / sqrt(2 pi), with g_R(Omega) = g(eps Omega)
    and g_L(Omega) = g(-eps Omega).
    """
    from scipy.special import gammaln, loggamma

    lam, mu = params.lam, params.mu
    log_c = lam * math.log(2.0) - 0.5 * gammaln(2.0 * lam)

    def g(s):
        log_g = log_c + loggamma(lam + 1j * (s - mu)) + 1j * s * math.log(params.omega0)
        return np.exp(log_g) / math.sqrt(2.0 * math.pi)

    return g(eps * omega), g(-eps * omega)


def bessel_integral(lam, nu):
    """e^lambda K_{i nu}(lambda) = int_0^inf e^{-2 lambda sinh^2(t/2)} cos(nu t) dt, by the trapezoid rule.

    The integrand is analytic in |Im t| < pi/2, where it is at most e^{lambda (1 - cos d) + |nu| d} at
    |Im t| = d, so the rule's error is about e^{lambda + pi |nu| / 2 - pi^2 / h} (Trefethen & Weideman,
    SIAM Rev. 56, 2014): below rounding at h = 0.02 for lambda <= 100 and |nu| <= 200.  The sum stops
    where the terms underflow.  For large |nu| the value cancels down to about e^{-pi |nu| / 2}, so its
    error is absolute, relative to the value at nu = 0.
    """
    h = 0.02
    t = h * np.arange(math.ceil(2.0 * math.asinh(math.sqrt(372.6 / lam)) / h) + 1)
    w = h * np.exp(-2.0 * lam * np.sinh(0.5 * t) ** 2)
    w[0] *= 0.5
    return np.cos(np.outer(nu, t)) @ w


def bessel_image(omega, params, eps):
    """Exact (g_R, g_L) of the Bessel packet on ``omega``.

    Its weight is F = e^{-lambda cosh y - i mu y} / sqrt(2 K_0(2 lambda)), and
    int e^{-lambda cosh y + i nu y} dy = 2 K_{i nu}(lambda).  So g(s) = 2 K_{i (s - mu)}(lambda)
    omega0^{i s} / sqrt(4 pi K_0(2 lambda)), with g_R(Omega) = g(eps Omega) and g_L(Omega) = g(-eps Omega).
    """
    from scipy.special import k0e

    lam, mu = params.lam, params.mu

    norm = math.sqrt(math.pi * k0e(2.0 * lam))  # k0e(z) = e^z K_0(z); the e^lambda of bessel_integral cancels

    def g(s):
        return bessel_integral(lam, s - mu) * np.exp(1j * s * math.log(params.omega0)) / norm

    return g(eps * omega), g(-eps * omega)


def image_error(pair, exact):
    """max |g_from_f - exact| over both sectors, and the peak of the exact image."""
    g_r, g_l = exact
    peak = max(np.abs(g_r).max(), np.abs(g_l).max())
    return max(np.abs(pair.g_r - g_r).max(), np.abs(pair.g_l - g_l).max()), peak


LOG_LAM = st.floats(math.log(0.1), math.log(100.0)).map(math.exp)
IMAGE_MU = st.floats(-10.0, 10.0)
IMAGE_OMEGA0 = st.floats(math.log(0.1), math.log(10.0)).map(math.exp)
EPSILON = st.sampled_from([1, -1])


class TestExactImages:
    """``g_from_f`` on the default grids against each family's exact Unruh image, to 1e-12 of its peak.

    Below lambda = 0.1 the grids reach |x| ~ 700, and the rounding of each sample's position moves
    the chirp phase mu x by about |mu| |x| machine epsilons: 1.6e-12 of the peak for gamma at
    lambda = 0.05, mu = 8.
    """

    @settings(max_examples=25, deadline=None)
    @given(lam=LOG_LAM, mu=IMAGE_MU, omega0=IMAGE_OMEGA0, eps=EPSILON)
    @example(lam=0.3, mu=8.0, omega0=1.0, eps=1)  # the benchmark's packets
    @example(lam=1.0, mu=8.0, omega0=1.0, eps=1)
    @example(lam=0.501, mu=8.0, omega0=1.0, eps=1)  # the window's cut tail takes 1.5e-12 of the peak
    @example(lam=0.1, mu=10.0, omega0=0.1, eps=-1)
    @example(lam=100.0, mu=-10.0, omega0=10.0, eps=1)  # the Stirling branch of the norm
    def test_gamma(self, lam, mu, omega0, eps):
        params = LogGaussianParams(lam, mu, omega0)
        f = alternate_packets("gamma", params)
        pair = g_from_f(f, BogoliubovKernel(eps))
        err, peak = image_error(pair, gamma_image(pair.omega_grid, params, eps))
        # the window drops the left tail, where |F| falls as e^{lambda y}: the samples it leaves
        # out sum to at most |F(x_0)| / lambda, over sqrt(2 pi), in either sector
        assert err <= 1e-12 * peak + abs(f.weight[0]) / (lam * math.sqrt(2.0 * math.pi))

    @settings(max_examples=25, deadline=None)
    @given(lam=LOG_LAM, mu=IMAGE_MU, omega0=IMAGE_OMEGA0, eps=EPSILON)
    @example(lam=0.2, mu=8.0, omega0=1.0, eps=1)  # the benchmark's packets
    @example(lam=1.0, mu=8.0, omega0=1.0, eps=1)
    @example(lam=0.1, mu=10.0, omega0=0.1, eps=-1)
    @example(lam=100.0, mu=-10.0, omega0=10.0, eps=1)
    def test_bessel(self, lam, mu, omega0, eps):
        params = LogGaussianParams(lam, mu, omega0)
        pair = g_from_f(alternate_packets("bessel", params), BogoliubovKernel(eps))
        err, peak = image_error(pair, bessel_image(pair.omega_grid, params, eps))
        assert err <= 1e-12 * peak

    @pytest.mark.parametrize("lam, nu", [(0.1, 0.0), (0.1, 7.5), (1.0, 3.0), (4.0, 0.5), (100.0, 12.0)])
    def test_bessel_integral_against_quad(self, lam, nu):
        from scipy.integrate import quad

        # past t = 40 the integrand is below the smallest double for every lambda here
        exact, _ = quad(lambda t: math.exp(-2.0 * lam * math.sinh(0.5 * t) ** 2), 0.0, 40.0,
                        weight="cos", wvar=nu, epsabs=1e-15, epsrel=1e-10, limit=200)
        assert abs(bessel_integral(lam, np.array([nu]))[0] - exact) <= 1e-13 * bessel_integral(lam, np.zeros(1))[0]

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(math.log(0.05), math.log(100.0)).map(math.exp), mu=IMAGE_MU,
           mass=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))
    @example(lam=1.0, mu=5.0, mass=1.0)  # the benchmark's packets
    @example(lam=0.05, mu=5.0, mass=1.0)
    def test_rapidity_gaussian(self, lam, mu, mass):
        # F is the log-Gaussian weight centred on x = 0, whatever the mass: its image is the
        # log-Gaussian closed form with omega0 = 1, whose centre phase omega0^{+-i eps Omega} is 1
        pair = g_from_f(rapidity_gaussian(lam, mu, mass))
        exact = closed_form_g(LogGaussianParams(lam, mu), omega_grid=pair.omega_grid)
        err, peak = image_error(pair, (exact.g_r, exact.g_l))
        assert err <= 1e-12 * peak


class TestSpecialFunctions:
    """The packet norms ln Gamma(2 lambda) and e^z K_0(z) at z = 2 lambda against scipy.special."""

    def test_scaled_k0_matches_scipy(self):
        from scipy.special import k0e

        # below 1e-8 the log limit, down to the subnormal 2e-310 where the
        # trapezoid's term count would overflow; past 745, where K_0 itself
        # underflows, e^z K_0(z) stays representable, out to z = 1e20
        z = np.concatenate([[2e-310], np.geomspace(1e-307, 1e-8, 400, endpoint=False),
                            np.geomspace(1e-8, 700.0, 2001), np.geomspace(745.2, 1e20, 200)])
        ours = np.array([_k0e(float(x)) for x in z])
        assert np.max(np.abs(ours - k0e(z)) / k0e(z)) <= 2e-15

    def test_math_lgamma_matches_scipy(self):
        # the log norm enters the exponent, so its absolute error is the weight's
        # relative one; relative to max(1, |ln Gamma|) the two differ by <= 5.6e-16
        from scipy.special import gammaln

        x = 2.0 * np.geomspace(1e-300, 1e6, 4001)
        ours = np.array([math.lgamma(float(v)) for v in x])
        assert np.max(np.abs(ours - gammaln(x)) / np.maximum(np.abs(gammaln(x)), 1.0)) <= 2e-15


class TestPeakingReport:
    def test_peaked_regime_saturates_uncertainty(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        report = peaking_report_from_pair(f, g_from_f(f))
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
        ],
    )
    def test_uncertainty_bound(self, packet):
        report = peaking_report_from_pair(packet, g_from_f(packet))
        assert report.uncertainty_product >= 0.5 - 1e-3

    def test_balanced_packet_fails_sma(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 0.0))
        report = peaking_report_from_pair(f, g_from_f(f))
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
        back = f_from_g(clipped, x_grid=f.x)
        report = peaking_report_from_pair(back, clipped)
        assert report.uncertainty_product > 0.5 + 1e-3
        assert report.leakage == 0.0

    def test_a_pair_of_zero_norm_is_a_grid_error(self):
        # it used to warn of an invalid scalar divide and then raise a raw ZeroDivisionError
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        zeros = np.zeros(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="zero norm"):
                peaking_report_from_pair(f, UnruhSmearingPair(np.linspace(0.0, 10.0, 64), zeros, zeros))


class TestDerivedArrays:
    """|F|^2, |g_R|^2, |g_L|^2, the quadrature weights and the weighted densities, each held once."""

    @pytest.mark.parametrize("owner, name", [(MinkowskiSmearing, "_density"), (UnruhSmearingPair, "_sector_squares"),
                                             (UnruhSmearingPair, "_densities")])
    def test_a_packet_call_computes_each_once(self, owner, name, monkeypatch, tmp_path, capsys):
        from functools import cached_property

        from unruhkit.cli import main

        calls = []
        getter = vars(owner)[name].func
        counted = cached_property(lambda self: calls.append(self) or getter(self))
        counted.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, counted)
        assert main(["packet", "--family", "gamma", "--out", str(tmp_path / "p.json")]) == 0
        if owner is MinkowskiSmearing:  # the grid search hands the profile its squares; the round trip's needs none
            assert calls == []
        else:
            assert calls and len(calls) == len(set(map(id, calls)))

    @pytest.mark.parametrize("family", ["log-gaussian", "gamma", "bessel", "rapidity-gaussian"])
    def test_the_grid_search_hands_the_profile_its_squares(self, family, monkeypatch):
        # the last squares the default-grid search takes are the profile's |F|^2, bit for bit
        # as the profile would take them from its own weight, and the profile takes none
        held, args, squares = [], [], wavepacket._squares
        monkeypatch.setattr(wavepacket, "_squares", lambda *a: args.append(a) or held.append(squares(*a)) or held[-1])
        params = LogGaussianParams(0.3, -2.5, 2.0)
        if family == "log-gaussian":
            f = f_log_gaussian(params)
        elif family == "rapidity-gaussian":
            f = rapidity_gaussian(params.lam, params.mu, 0.5)
        else:
            f = alternate_packets(family, params)
        last, count = held[-1], len(held)
        assert f._density is last and f.norm_squared() > 0.0 and len(held) == count
        assert all(a[0] is not f.weight for a in args)  # taken from the samples, never from the profile
        scale, density = squares(f.weight)
        assert scale == f._density[0] and density.tobytes() == f._density[1].tobytes()

    def test_held_arrays_are_read_only(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        pair = g_from_f(f)
        for held in (f._density[1], *pair._sector_squares[1:], pair.quadrature_weights(), *pair._densities):
            with pytest.raises(ValueError):
                held[0] = 0.0

    @pytest.mark.parametrize("mu", [8.0, 1.0])
    @pytest.mark.parametrize("scale", [1e160, 2.0**532, 1e-160, 1e-200, 2.0**-600])
    @pytest.mark.parametrize("omega_grid", [None, np.linspace(0.0, 30.0, 2000)], ids=["default", "given"])
    def test_a_weight_whose_square_overflows(self, mu, scale, omega_grid):
        # |F|^2 above the float range used to warn of an overflow in square, and
        # g_from_f then called the finite profile "not finite"; below it, |F|^2
        # lost bits or underflowed: at 1e-160 the uncertainty product read 0.4965,
        # under the Fourier bound, and at 1e-200 the profile was "identically zero"
        f = f_log_gaussian(LogGaussianParams(1.0, mu))
        big = MinkowskiSmearing(f.x, f.weight * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair, big_pair = g_from_f(f, omega_grid=omega_grid), g_from_f(big, omega_grid=omega_grid)
            report, big_report = peaking_report_from_pair(f, pair), peaking_report_from_pair(big, big_pair)
            norms = big.norm_squared(), big_pair.norm_squared()
        assert norms == (math.inf, math.inf) if scale > 1.0 else max(norms) < 1e-300
        assert np.array_equal(big_pair.omega_grid, pair.omega_grid)
        assert big_report.peak_omega == report.peak_omega and big_report.sma_valid == report.sma_valid
        if math.frexp(scale)[0] == 0.5:  # scaling by a power of two moves no bit of the transform
            assert big_report == report
        # the leakage of mu = 8, 8e-28, is the transform's rounding floor, which the
        # samples scaled by a decimal power, each rounded anew, move by up to 1e-3 of itself
        for name in ("delta_omega", "delta_log_omega", "uncertainty_product", "leakage"):
            assert getattr(big_report, name) == pytest.approx(getattr(report, name), rel=1e-12,
                                                              abs=1e-24 if name == "leakage" else 0.0)

    @pytest.mark.parametrize("scale", [1e153, 2.0**508, 1e-160, 1e-200, 2.0**-600])
    def test_squares_that_fit_a_plain_sum_but_not_its_moments(self, scale):
        # |a|^2 summed fits the float range on these coarse grids, but dOmega and
        # Omega^2 (or dx and x^2) times it do not: the spreads came out NaN.  Below
        # the range |a|^2 lost bits or underflowed: the leakage, 1/17, read 0.058763
        # at 1e-160, and at 1e-200 the pair had "zero norm"
        x = np.linspace(-700.0, 700.0, 64)
        grid = np.linspace(0.0, 1000.0, 64)
        weight, shape = np.exp(-((x - 100.0) / 300.0) ** 2), np.exp(-((grid - 300.0) / 200.0) ** 2)
        f, big_f = MinkowskiSmearing(x, weight), MinkowskiSmearing(x, weight * scale)
        pair = UnruhSmearingPair(grid, shape, 0.25 * shape)
        big_pair = UnruhSmearingPair(grid, shape * scale, 0.25 * shape * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, big_report = peaking_report_from_pair(f, pair), peaking_report_from_pair(big_f, big_pair)
            norms = big_f.norm_squared(), big_pair.norm_squared()
        assert norms == (math.inf, math.inf) if scale > 1.0 else max(norms) < 1e-300
        assert report.leakage == pytest.approx(1.0 / 17.0, rel=1e-15)
        if math.frexp(scale)[0] == 0.5:
            assert big_report == report
        for name in ("delta_omega", "delta_log_omega", "uncertainty_product", "leakage"):
            assert getattr(big_report, name) == pytest.approx(getattr(report, name), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 2.0**532, 1e-200, 2.0**-600])
    def test_l2_distance_of_weights_whose_squares_leave_the_float_range(self, scale):
        # the squared difference warned of an overflow in square at 1e160 and
        # underflowed to a distance of 0 at 1e-200
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        g = f_log_gaussian(LogGaussianParams(1.0, 8.5), x_grid=f.x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            distance = MinkowskiSmearing(f.x, f.weight * scale).l2_distance(MinkowskiSmearing(g.x, g.weight * scale))
        if math.frexp(scale)[0] == 0.5:
            assert distance == f.l2_distance(g) * scale
        assert distance == pytest.approx(f.l2_distance(g) * scale, rel=1e-12, abs=0.0)


class TestMassive:
    def test_rapidity_gaussian_normalized(self):
        f = rapidity_gaussian(1.0, 5.0, 1.0)
        assert abs(f.norm_squared() - 1.0) < 1e-12

    def test_matches_massless_pipeline_under_variable_map(self):
        # identical profiles in x = ln(omega l) and x = rapidity give identical
        # Unruh images; this is the content of the massless -> massive map
        lam, mu = 1.0, 5.0
        massless = f_log_gaussian(LogGaussianParams(lam, mu, omega0=1.0))
        massive = rapidity_gaussian(lam, mu, 1.0)
        assert np.allclose(massless.x, massive.x)
        pair_a = g_from_f(massless, BogoliubovKernel(epsilon=1))
        pair_b = g_from_f(massive, omega_grid=pair_a.omega_grid)
        assert np.max(np.abs(pair_a.g_r - pair_b.g_r)) < 1e-6
        assert np.max(np.abs(pair_a.g_l - pair_b.g_l)) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.01, 100.0), mu=st.floats(-20.0, 20.0), mass=st.floats(1e-3, 1e3))
    @example(lam=1.0, mu=5.0, mass=1.0)
    def test_rapidity_gaussian_is_the_log_gaussian_with_a_mass(self, lam, mu, mass):
        # one Gaussian builder serves both fields: the same grid and weight bit for bit, only the mass differs
        massive = rapidity_gaussian(lam, mu, mass)
        massless = f_log_gaussian(LogGaussianParams(lam, mu))
        assert (massive.mass, massless.mass) == (mass, None)
        assert massive.x.tobytes() == massless.x.tobytes()
        assert massive.weight.tobytes() == massless.weight.tobytes()

    def test_parseval_and_round_trip(self):
        f = rapidity_gaussian(1.0, 4.0, 2.0)
        pair = g_from_f(f)
        assert abs(f.norm_squared() - pair.norm_squared()) < 1e-6
        back = f_from_g(pair, f.x)
        assert f.l2_distance(back) < 1e-6

    def test_peaked_at_chirp_frequency(self):
        f = rapidity_gaussian(1.0, 6.0, 1.0)
        report = peaking_report_from_pair(f, g_from_f(f))
        assert abs(report.peak_omega - 6.0) < 0.1
        assert report.sma_valid

    def test_no_chirp_symmetry(self):
        pair = g_from_f(rapidity_gaussian(1.0, 0.0, 1.0))
        assert np.max(np.abs(np.abs(pair.g_r) - np.abs(pair.g_l))) < 1e-12

    def test_momentum_and_frequency_grids(self):
        f = rapidity_gaussian(1.0, 0.0, 2.0)
        assert np.allclose(f.omega, np.hypot(2.0, 2.0 * np.sinh(f.x)))
        assert f.omega.min() >= 2.0

    def test_massless_profile_maps_by_the_exponential(self):
        f = f_log_gaussian(LogGaussianParams(1.0, 0.0))
        assert f.mass is None
        assert np.array_equal(f.omega, np.exp(f.x))

    @pytest.mark.parametrize("mass", [None, 2.5])
    def test_the_weight_is_the_data(self, mass):
        # the profile keeps its L2 weight as given, bit for bit, and derives f from it
        x = np.linspace(-3.0, 3.0, 32)
        weight = np.exp(-x * x - 2j * x)
        f = MinkowskiSmearing(x, weight, mass)
        assert f.weight.tobytes() == weight.tobytes() and f.mass == mass
        assert np.array_equal(f.samples, weight / np.sqrt(f.omega))
        assert f.norm_squared() == float(np.sum(np.abs(weight) ** 2) * f.dx)
        with pytest.raises(ValueError):
            f.weight[0] = 0.0

    def test_inverse_takes_the_mass_of_the_pair(self):
        # without the pair's mass the inverse would divide by sqrt(e^x), not
        # sqrt(m cosh x), and miss the profile by 0.47 while its L2 weight,
        # and so the round-trip distance, still matched
        f = rapidity_gaussian(1.0, 4.0, 1.7)
        pair = g_from_f(f)
        assert pair.mass == 1.7
        back = f_from_g(pair, x_grid=f.x)
        assert back.mass == 1.7
        assert np.allclose(back.omega, np.hypot(1.7, 1.7 * np.sinh(back.x)), rtol=1e-14, atol=0.0)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-6

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), math.inf])
    def test_profile_rejects_a_bad_mass(self, mass):
        x = np.linspace(-3.0, 3.0, 32)
        with pytest.raises(ValueError, match="mass must be > 0"):
            MinkowskiSmearing(x, np.ones_like(x, dtype=complex), mass)
        with pytest.raises(ValueError, match="mass must be > 0"):
            rapidity_gaussian(1.0, 5.0, mass)

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), math.inf])
    def test_profile_and_pair_reject_a_bad_mass_before_any_array_work(self, mass, monkeypatch):
        # a profile took mass = inf, with NaN weights and an infinite norm, and a
        # pair took any mass, so f_from_g ran its inverse transform and then
        # stopped on a numpy divide or sqrt warning
        def grid_check(x):
            raise AssertionError("the grid was checked before the mass")

        monkeypatch.setattr(wavepacket, "_check_uniform", grid_check)
        x = np.linspace(-3.0, 3.0, 32)
        with pytest.raises(ValueError, match=f"mass must be > 0 and finite, got {mass}"):
            MinkowskiSmearing(x, np.ones_like(x, dtype=complex), mass)
        grid = np.linspace(0.0, 8.0, 64)
        g_r = np.exp(-((grid - 3.0) ** 2)).astype(complex)
        with pytest.raises(ValueError, match=f"mass must be > 0 and finite, got {mass}"):
            UnruhSmearingPair(grid, g_r, 0.0 * g_r, mass)

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), math.inf])
    def test_rapidity_gaussian_rejects_a_bad_mass_before_sampling(self, mass, monkeypatch):
        # sampled, a bad mass was misreported as "omega(x) leaves the floating-point range"
        def sample(*args, **kwargs):
            raise AssertionError("the profile was sampled")

        monkeypatch.setattr(wavepacket, "_packet_from_weight", sample)
        with pytest.raises(ValueError, match="mass must be > 0"):
            rapidity_gaussian(1.0, 5.0, mass)

    def test_inverse_of_a_hand_built_massive_pair(self):
        # one inverse transform, two maps omega(x): the L2 weights agree and the
        # samples differ by sqrt(omega)
        grid = np.linspace(0.0, 8.0, 400)
        g_r = np.exp(-((grid - 3.0) ** 2)).astype(complex)
        x = np.linspace(-4.0, 4.0, 200)
        massless = f_from_g(UnruhSmearingPair(grid, g_r, 0.0 * g_r), x)
        massive = f_from_g(UnruhSmearingPair(grid, g_r, 0.0 * g_r, 2.0), x)
        assert massless.mass is None and massive.mass == 2.0
        assert np.allclose(massive.weight, massless.weight, rtol=1e-14, atol=0.0)
        ratio = np.sqrt(np.exp(x) / (2.0 * np.cosh(x)))
        assert np.allclose(massive.samples, ratio * massless.samples, rtol=1e-14, atol=0.0)


def build_container(kind, grid, value, mass=None):
    """A profile on ``grid`` with L2 weight ``value``, or a pair on it with g_R = g_L = ``value``."""
    if kind == "profile":
        return MinkowskiSmearing(grid, value, mass)
    return UnruhSmearingPair(grid, value, value, mass)


@pytest.mark.parametrize("kind", ["profile", "pair"])
class TestConstructionRule:
    def test_arrays_are_read_only_copies_of_fixed_dtype(self, kind):
        grid = np.arange(64)  # integers: the container holds floats
        value = np.exp(-((grid - 30.0) ** 2) / 50.0)  # real: the container holds complex numbers
        held = build_container(kind, grid, value)
        arrays = [held.x, held.weight] if kind == "profile" else [held.omega_grid, held.g_r, held.g_l]
        assert [a.dtype for a in arrays] == [np.float64] + [np.complex128] * (len(arrays) - 1)
        assert all(not a.flags.writeable for a in arrays)
        expected = value.copy()
        grid[1] = 7  # the caller's arrays change, the container's copies do not
        value[0] = 5.0
        assert np.array_equal(arrays[0], np.arange(64.0))
        assert all(np.array_equal(a, expected) for a in arrays[1:])
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_shapes_must_match(self, kind):
        message = {"profile": "weight and grid", "pair": "g_R, g_L and the grid"}[kind]
        grid = np.linspace(0.0, 8.0, 64)
        with pytest.raises(GridError, match=f"^{message} must have matching shapes$"):
            build_container(kind, grid, np.ones(63))
        if kind == "pair":
            with pytest.raises(GridError, match=f"^{message} must have matching shapes$"):
                UnruhSmearingPair(grid, np.ones(64), np.ones((64, 1)))

    @pytest.mark.parametrize("mass", [0.0, float("nan")])
    def test_the_mass_is_checked_before_the_grid(self, kind, mass):
        # a grid that fails every grid test, and values of another shape
        with pytest.raises(ValueError, match="mass must be > 0 and finite"):
            build_container(kind, np.zeros((2, 2)), np.ones(3), mass)


class TestGridValidation:
    def test_nonuniform_grid_rejected(self):
        x = np.concatenate([np.linspace(-5, 0, 50), np.linspace(0.1, 5, 60)])
        with pytest.raises(GridError):
            MinkowskiSmearing(x, np.zeros_like(x, dtype=complex))

    def test_fine_grid_far_from_zero_is_uniform(self):
        # at |x| ~ 3e5 the steps of a linspace differ by up to 2 ulp(3e5) ~ 1.2e-10,
        # far more than rtol dx = 1e-12; the grid is uniform all the same
        for x in (np.linspace(3e5, 3e5 + 0.05, 51), np.linspace(-3e5 - 0.05, -3e5, 51)):
            steps = np.diff(x)
            assert np.ptp(steps) > 1e-9 * steps[0]
            _check_uniform(x)
        bent = np.linspace(3e5, 3e5 + 0.05, 51)
        bent[25] += 1e-6
        with pytest.raises(GridError, match="uniformly spaced"):
            _check_uniform(bent)

    @pytest.mark.parametrize("grids", [
        [],
        # the argv of the packet_explicit_grids golden case: the builders tested the
        # given x and Omega grids that the profile and the pair then tested again, 5 tests
        ["--x-min", "-6", "--x-max", "6", "--x-points", "3000", "--omega-max", "40", "--omega-points", "2000"],
    ], ids=["default-grids", "explicit-grids"])
    def test_inverse_tests_each_grid_once(self, grids, monkeypatch, tmp_path, capsys):
        # f_from_g tested its x grid for uniformity, and the profile it built
        # tested the same grid again: 4 tests per packet where 3 grids exist
        from unruhkit.cli import main

        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return _check_uniform(x)

        monkeypatch.setattr(wavepacket, "_check_uniform", counted)
        argv = ["packet", "--family", "log-gaussian", "--lam", "1", "--mu", "8", *grids,
                "--out", str(tmp_path / "p.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == 3  # the profile's x grid, the pair's Omega grid, the inverse's x grid

    @pytest.mark.parametrize("kind", ["2-d", "short", "non-uniform", "nan", "inf", "-inf"])
    def test_given_grids_fail_before_sampling_or_transform(self, kind, monkeypatch):
        # a builder checks what it reads before its container exists, the shape and
        # the two ends, and leaves the spacing to the container: only a non-uniform
        # grid with finite ends is sampled or transformed before its GridError
        def bad(grid):
            if kind in ("nan", "inf", "-inf"):
                grid = grid.copy()
                grid[-1] = float(kind)
                return grid
            half = grid.size // 2
            return {"2-d": grid[:64].reshape(4, 16), "short": grid[:15],
                    "non-uniform": np.concatenate([grid[:half], grid[half:] + 0.5 * (grid[1] - grid[0])])}[kind]

        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        samples, transforms = [], []
        build_packet, forward = wavepacket._packet_from_weight, wavepacket._forward_transform

        def sampling(weight, *args, **kwargs):
            def sampled(x):
                samples.append(x.size)
                return weight(x)

            return build_packet(sampled, *args, **kwargs)

        def transform(*args):
            transforms.append(kind)
            return forward(*args)

        monkeypatch.setattr(wavepacket, "_packet_from_weight", sampling)
        monkeypatch.setattr(wavepacket, "_forward_transform", transform)
        match = "at least 16 points" if kind in ("2-d", "short") else "uniformly spaced"
        reached = [kind] if kind == "non-uniform" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                f_log_gaussian(LogGaussianParams(1.0, 8.0), x_grid=bad(np.linspace(-6.0, 6.0, 3000)))
            assert samples == [3000] * len(reached)
            with pytest.raises(GridError, match=match):
                g_from_f(f, omega_grid=bad(np.linspace(0.0, 40.0, 2000)))
            assert transforms == reached
            with pytest.raises(GridError, match=match):
                closed_form_g(LogGaussianParams(1.0, 8.0), omega_grid=bad(np.linspace(0.0, 40.0, 2000)))

    @pytest.mark.parametrize("build", [
        lambda f, pair: g_from_f(f, omega_grid=np.linspace(0.0, -40.0, 2000)),
        lambda f, pair: closed_form_g(LogGaussianParams(1.0, 8.0), omega_grid=np.linspace(0.0, -40.0, 2000)),
        lambda f, pair: f_from_g(pair, f.x[::-1]),
        lambda f, pair: f_from_g(pair, np.zeros(100)),
        lambda f, pair: UnruhSmearingPair(np.zeros(64), np.zeros(64), np.zeros(64)),
        lambda f, pair: MinkowskiSmearing(f.x[::-1], f.weight),
        lambda f, pair: f_log_gaussian(LogGaussianParams(1.0, 8.0), x_grid=f.x[::-1]),
    ], ids=["forward", "closed-form", "inverse", "inverse-constant", "pair-constant", "profile", "packet"])
    def test_a_grid_that_does_not_increase_is_rejected(self, build):
        # a decreasing Omega grid gave a pair of norm -1 and peak_omega -32.8, a
        # reversed x grid a profile of norm -1, and a constant grid one of norm 0
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        with pytest.raises(GridError, match=r"grid must increase, got step -?\d"):
            build(f, g_from_f(f))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("omega_grid", [None, np.linspace(0.0, 40.0, 2000)], ids=["default", "given"])
    def test_a_profile_that_is_not_finite_is_a_grid_error(self, bad, omega_grid):
        # the default Omega grid stopped on "cannot convert float NaN to integer" after
        # a numpy warning, and a given one returned an all-NaN pair with no error
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        for i in (0, f.x.size // 2, -1):
            weight = f.weight.copy()
            weight[i] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(GridError, match="profile that is not finite"):
                    g_from_f(MinkowskiSmearing(f.x, weight), omega_grid=omega_grid)

    @pytest.mark.parametrize("kind", ["2-d", "short", "non-uniform", "nan", "inf", "-inf"])
    def test_inverse_rejects_a_bad_grid(self, kind, monkeypatch):
        # f_from_g checks what its transform reads, the shape and the two ends,
        # and the profile it builds tests the spacing: only a non-uniform grid
        # with finite ends is transformed before its GridError
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        pair = g_from_f(f)
        x = f.x.copy()
        if kind in ("nan", "inf", "-inf"):
            x[-1] = float(kind)
        else:
            x = {"2-d": x[:64].reshape(4, 16), "short": x[:15],
                 "non-uniform": np.concatenate([np.linspace(-5, 0, 50), np.linspace(0.1, 5, 60)])}[kind]
        transforms = []

        def inverse(*args):
            transforms.append(kind)
            return _inverse_transform(*args)

        monkeypatch.setattr(wavepacket, "_inverse_transform", inverse)
        match = "at least 16 points" if kind in ("2-d", "short") else "uniformly spaced"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=match):
                f_from_g(pair, x)
        assert transforms == ([kind] if kind == "non-uniform" else [])

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
        massive = rapidity_gaussian(1.0, 2.0, 1.0)
        messages = []
        for f in (massless, massive):
            grid = np.linspace(0.0, 3.0 * math.pi / f.dx, 512)
            with pytest.raises(GridError, match="Nyquist limit") as err:
                g_from_f(f, omega_grid=grid)
            messages.append(str(err.value))
        # the two profiles share their grid, so the messages must agree
        assert massless.dx == massive.dx
        assert messages[0] == messages[1]

    def test_auto_grid_rejects_a_non_finite_density_at_once(self):
        # widening cannot mend an overflow and costs 1.5x the memory per step,
        # so a second call fails the test before memory runs out
        calls = []

        def weight(x):
            calls.append(x.size)
            assert len(calls) == 1, "the grid was widened around a non-finite profile"
            return np.full(x.size, np.nan)

        with pytest.raises(GridError, match=r"not finite on \[-10, 10\]"):
            _auto_x_grid(weight, 0.0, 10.0, 0.1, None)

    @pytest.mark.parametrize("mass", [None, 1.0])
    def test_auto_grid_rejects_a_window_past_the_float_range_unsampled(self, mass):
        # omega(x) over- or underflows past |x| ~ 710, so no profile there is
        # finite; the window fails with its point count before it is allocated
        def weight(x):
            raise AssertionError("a window past the float range of omega(x) was sampled")

        # the caller, _packet_from_weight, silences the overflow as here
        with np.errstate(all="ignore"), pytest.raises(GridError, match=r"needs 1\.6e\+04 points"):
            _auto_x_grid(weight, 0.0, 800.0, 0.1, mass)

    @pytest.mark.parametrize("build, steps", [
        (lambda: f_log_gaussian(LogGaussianParams(1.0, 8.0)), 1),
        (lambda: alternate_packets("gamma", LogGaussianParams(0.3, 8.0)), 3),
        (lambda: alternate_packets("bessel", LogGaussianParams(0.2, 8.0)), 1),
        (lambda: rapidity_gaussian(0.05, 5.0, 1.0), 1),
    ], ids=["log-gaussian", "gamma", "bessel", "rapidity-gaussian"])
    def test_auto_grid_samples_the_profile_once_per_step(self, build, steps, monkeypatch):
        # each widening step samples a wider window, and the packet keeps the
        # samples of the last one instead of taking them again
        sizes = []
        build_packet = wavepacket._packet_from_weight

        def counting(weight, *args, **kwargs):
            def counted(x):
                sizes.append(x.size)
                return weight(x)

            return build_packet(counted, *args, **kwargs)

        monkeypatch.setattr(wavepacket, "_packet_from_weight", counting)
        f = build()
        assert len(sizes) == steps
        assert sizes == sorted(set(sizes)) and sizes[-1] == f.x.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_point_rejected(self, bad):
        # np.allclose warned of a NaN tolerance where an end of the grid was not finite
        for i in (0, 20, -1):
            x = np.linspace(-5.0, 5.0, 64)
            x[i] = bad
            with pytest.raises(GridError, match="uniformly spaced"):
                _check_uniform(x)

    def test_l2_distance_needs_the_same_grid_to_rounding(self):
        # a grid 1e-7 off in its spacing once passed as "identical" (np.allclose's
        # default rtol 1e-5), and the distance compared samples at different x
        f = f_log_gaussian(LogGaussianParams(1.0, 8.0))
        assert f.l2_distance(MinkowskiSmearing(f.x.copy(), f.weight)) == 0.0
        moved = MinkowskiSmearing(f.x * (1.0 + 1e-7), f.weight)
        with pytest.raises(GridError, match="identical grids"):
            f.l2_distance(moved)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: f_log_gaussian(LogGaussianParams(1e-4, 8.0)),
            lambda: alternate_packets("bessel", LogGaussianParams(0.04, 8.0)),
            lambda: rapidity_gaussian(1e-4, 8.0, 1.0),
        ],
        ids=["log-gaussian", "bessel", "rapidity-gaussian"],
    )
    def test_profiles_past_the_float_range_raise_grid_error(self, build):
        # e^x or cosh x overflows or underflows on the automatic grid, so the
        # norm is NaN, which a plain "deficit > tol" lets through; numpy must
        # not warn on the way there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="not finite"):
                build()
