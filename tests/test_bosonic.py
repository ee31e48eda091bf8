"""Bosonic Minkowski-Unruh state construction and negativity engine."""

import cmath
import functools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unruhkit import bosonic
from unruhkit.bosonic import (
    ALICE,
    EXTREMAL_TOL,
    N_MAX_CAP,
    REGION_I,
    REGION_II,
    bosonic_curve,
    bosonic_negativity_pair,
    joint_state,
    squeezing_from_acceleration,
    vacuum_coefficients,
    _block_series,
    _bracket_widths,
    _dense_pair,
    _gauss_legendre,
    _panel_edges,
    _principal_block,
    _qops_pair,
    _sector_bands,
    _series_terms,
)
from unruhkit.qops import negativity, partial_transpose, reduced_density
from unruhkit.weights import UnruhWeights


def point(r, q_abs, phase=0.0):
    return r, UnruhWeights.from_abs(q_abs, phase)


def dense_pair(r, weights):
    """The dense engine on one point, whatever the weight."""
    return next(bosonic._dense_pairs(np.array([r]), weights))


def closed_form_r0(q_abs):
    # 2x2 partial-transpose block of the r = 0 state, solved by hand:
    # N = (sqrt(|q_L|^4 + 4 |q_R|^2) - |q_L|^2) / 4
    ql2 = 1.0 - q_abs * q_abs
    return (math.sqrt(ql2 * ql2 + 4.0 * q_abs * q_abs) - ql2) / 4.0


class TestUnruhWeights:
    def test_norm_constraint_enforced(self):
        with pytest.raises(ValueError):
            UnruhWeights(0.9, 0.9)
        UnruhWeights(0.6, 0.8)  # exactly normalized

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, math.nan),
                                     complex(math.inf, math.nan)])
    @pytest.mark.parametrize("side", ["q_r", "q_l"])
    def test_non_finite_weights_rejected(self, bad, side):
        # a NaN norm compares false against any tolerance; it must fail the check anyway
        other = {"q_r": "q_l", "q_l": "q_r"}[side]
        with pytest.raises(ValueError, match="is not 1"):
            UnruhWeights(**{side: bad, other: 1.0})

    def test_from_abs_range(self):
        with pytest.raises(ValueError):
            UnruhWeights.from_abs(1.1)
        with pytest.raises(ValueError):
            UnruhWeights.from_abs(-0.2)

    def test_from_abs_phase(self):
        w = UnruhWeights.from_abs(0.8, phase=0.5)
        assert abs(w.q_r - 0.8 * np.exp(0.5j)) < 1e-15
        assert abs(w.q_l - 0.6) < 1e-15

    def test_minor_weight(self):
        w = UnruhWeights.from_abs(0.8)
        assert abs(w.minor_weight() - 0.6) < 1e-15
        assert UnruhWeights.from_abs(1.0).minor_weight() == 0.0


class TestSqueezing:
    def test_derived_value(self):
        # oracle: direct scalar evaluation of artanh(e^{-pi})
        r = squeezing_from_acceleration(1.0, 1.0)
        assert abs(r - math.atanh(math.exp(-math.pi))) < 1e-15

    def test_small_acceleration_limit(self):
        assert squeezing_from_acceleration(1.0, 1e-3) < 1e-100

    @pytest.mark.parametrize("a,r", [(1e12, 13.589719205319547), (1e15, 17.043596844810615)])
    def test_large_acceleration_matches_mpmath(self, a, r):
        # artanh(e^{-pi/a}) to 50 digits (mpmath), rounded to double; no cap
        assert squeezing_from_acceleration(1.0, a) == r

    def test_large_acceleration_pair_is_that_of_the_exact_r(self):
        # the r = 10 cap used to report 2.458e-9 here, 1312 times the value
        weights = UnruhWeights.from_abs(1.0)
        pair = bosonic_negativity_pair(squeezing_from_acceleration(1.0, 1e12), weights)
        exact = bosonic_negativity_pair(13.589719205319547, weights)
        assert pair == exact
        assert pair.report.converged and 1.8e-12 < pair.n_ar < 1.9e-12

    def test_infinite_acceleration_is_infinite_squeezing(self):
        # pi omega_a / (2a) underflows to 0; the block series returns 0 there
        r = squeezing_from_acceleration(1e-300, 1e300)
        assert r == math.inf
        pair = bosonic_negativity_pair(r, UnruhWeights.from_abs(1.0))
        assert (pair.n_ar, pair.n_aar) == (0.0, 0.0)

    @pytest.mark.parametrize("omega_a,a", [
        (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.nan, -1.0),
        (math.inf, math.inf),
    ])
    def test_nonpositive_inputs_rejected(self, omega_a, a):
        # a NaN input, or inf / inf = NaN, used to pass the check and come back as r = inf
        with pytest.raises(ValueError, match="omega_a and a must be > 0"):
            squeezing_from_acceleration(omega_a, a)

    def test_one_sided_infinite_limits(self):
        assert squeezing_from_acceleration(1.0, math.inf) == math.inf
        assert squeezing_from_acceleration(math.inf, 1.0) == 0.0

    @pytest.mark.parametrize("omega_a,a,ratio", [(1e308, 1e308, 1.0), (5e-324, 5e-324, 1.0),
                                                  (1.7e308, 1e308, 1.7)])
    def test_extreme_inputs_take_their_ratio(self, omega_a, a, ratio):
        # pi omega_a was formed first: it overflowed to r = inf at 1e308 and
        # lost digits below the normals (r = 0.0498 at 5e-324)
        r = squeezing_from_acceleration(omega_a, a)
        assert r == pytest.approx(squeezing_from_acceleration(ratio, 1.0), rel=1e-14)
        if ratio == 1.0:
            assert r == pytest.approx(0.0432408, abs=1e-7)

    @pytest.mark.parametrize("omega_a,a,bits", [
        (1.0, 1.0, "0x1.623aa1a755ddbp-5"), (1.0, 1e-3, "0x0.0p+0"), (1.0, 1e12, "0x1.b2defacf95754p+3"),
        (1.0, 1e15, "0x1.10b2929aeab9ep+4"), (1e-300, 1e300, "inf"), (1.0, math.inf, "inf"),
        (math.inf, 1.0, "0x0.0p+0"), (1e308, 1e308, "0x1.623aa1a755ddbp-5"),
        (5e-324, 5e-324, "0x1.623aa1a755ddbp-5"), (1.7e308, 1e308, "0x1.3a151135a25cbp-8"),
        (1.7, 1.0, "0x1.3a151135a25cbp-8"),
    ])
    def test_bits_are_pinned(self, omega_a, a, bits):
        # r to the last bit on the inputs above, extreme ones included
        assert squeezing_from_acceleration(omega_a, a).hex() == bits

    @pytest.mark.parametrize("bad", [-0.1, -1e-300, math.nan, -math.inf])
    def test_bad_r_rejected(self, bad):
        # the scalar pair shares the curve's r check
        message = f"squeezing parameter must be >= 0, got {bad}"
        for q_abs in (0.8, 1.0):
            with pytest.raises(ValueError, match=re.escape(message)):
                bosonic_negativity_pair(*point(bad, q_abs))
        with pytest.raises(ValueError, match=re.escape(message)):
            bosonic_curve(0.8, [0.5, bad])


class TestVacuumCoefficients:
    def test_zero_squeezing(self):
        f = vacuum_coefficients(0.0, 6)
        assert f[0] == 1.0
        assert np.all(f[1:] == 0.0)

    def test_geometric_sum_tends_to_one(self):
        f = vacuum_coefficients(0.8, 200)
        assert abs(np.sum(f**2) - 1.0) < 1e-12

    def test_scalar_value(self):
        f = vacuum_coefficients(1.0, 4)
        assert abs(f[2] - math.tanh(1.0) ** 2 / math.cosh(1.0)) < 1e-15

    def test_monotone_decreasing(self):
        f = vacuum_coefficients(0.6, 40)
        assert np.all(np.diff(f) < 0.0)

    def test_cut_is_checked(self):
        # a float cut silently gave n = 0..3 for 2.5, and a negative one an empty array
        with pytest.raises(TypeError, match="n_max must be an integer, got 2.5"):
            vacuum_coefficients(0.5, 2.5)
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            vacuum_coefficients(0.5, -1)
        assert vacuum_coefficients(0.5, 0).shape == (1,)
        assert np.array_equal(vacuum_coefficients(0.5, np.int64(3)), vacuum_coefficients(0.5, 3))


def branches(r, weights, n_max):
    """Vacuum (|0>_M) and excitation (|1>_M) amplitude tables of the raw joint state.

    Each is scaled by sqrt(2), which undoes the 1/sqrt(2) of the superposition.
    """
    d = n_max + 1
    amp = joint_state(r, weights, n_max).amplitudes.reshape(2, d, d) * math.sqrt(2.0)
    return amp[0], amp[1]


def reduced(r, weights, n_max, wedge=REGION_I):
    """Alice-``wedge`` reduction of the raw joint state cut at n_max."""
    return reduced_density(joint_state(r, weights, n_max), (ALICE, wedge))


class TestStateBuilders:
    def test_vacuum_at_zero_squeezing(self):
        vac = branches(*point(0.0, 1.0), 8)[0]
        assert vac[0, 0] == 1.0
        assert np.count_nonzero(vac) == 1
        assert np.linalg.norm(vac) == 1.0

    def test_vacuum_schmidt_coefficients(self):
        vac = branches(*point(0.7, 1.0), 12)[0]
        f = vacuum_coefficients(0.7, 12)
        assert np.allclose(np.diag(vac).real, f, atol=1e-14)
        # the raw branch keeps the untruncated coefficients: its norm^2 misses the tail
        tail = math.tanh(0.7) ** (2 * 13)
        assert abs(np.linalg.norm(vac) ** 2 - (1.0 - tail)) < 1e-12

    def test_vacuum_truncation_deficit(self):
        vac = branches(*point(0.5, 1.0), 20)[0]
        assert 1.0 - np.linalg.norm(vac) ** 2 < 1e-6

    def test_excitation_at_zero_squeezing(self):
        exc = branches(*point(0.0, 1.0), 30)[1]
        assert abs(exc[1, 0] - 1.0) < 1e-14

    def test_excitation_general_weights_at_zero_squeezing(self):
        exc = branches(0.0, UnruhWeights(0.6j, 0.8), 10)[1]
        assert abs(exc[1, 0] - 0.6j) < 1e-14  # q_R |1>_I |0>_II
        assert abs(exc[0, 1] - 0.8) < 1e-14   # q_L |0>_I |1>_II

    def test_excitation_raw_norm_deficit(self):
        exc = branches(*point(0.5, 0.8), 40)[1]
        assert abs(1.0 - np.linalg.norm(exc) ** 2) < 1e-8

    def test_joint_state_is_bell_at_zero_squeezing(self):
        amp = joint_state(*point(0.0, 1.0), 5).amplitudes.reshape(2, 6, 6)
        assert abs(amp[0, 0, 0] - 1.0 / math.sqrt(2.0)) < 1e-14
        assert abs(amp[1, 1, 0] - 1.0 / math.sqrt(2.0)) < 1e-14
        assert np.count_nonzero(amp) == 2

    def test_joint_state_normalized(self):
        # the raw state is normalised once the cut holds it: short of 1 by the
        # cut's weight at n_max = 30, within 1e-12 of 1 at n_max = 120
        assert np.linalg.norm(joint_state(*point(0.9, 0.8), 30).amplitudes) < 1.0 - 1e-9
        assert abs(np.linalg.norm(joint_state(*point(0.9, 0.8), 120).amplitudes) - 1.0) < 1e-12

    def test_joint_state_checks_its_cut(self):
        # the cut is an integer >= 1; a float one would index the amplitude table
        r, weights = point(0.1, 0.9)
        with pytest.raises(TypeError, match="n_max must be an integer"):
            joint_state(r, weights, 30.0)
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            joint_state(r, weights, 0)
        assert np.array_equal(joint_state(r, weights, np.int64(30)).amplitudes,
                              joint_state(r, weights, 30).amplitudes)

    def test_joint_raw_amplitude_coefficient(self):
        # amplitude at (M=1, I=n+1, II=n) is q_R f(n) sqrt(n+1) / (sqrt(2) cosh r)
        r, q_abs, phase = 0.6, 0.8, 0.9
        amp = joint_state(*point(r, q_abs, phase), 20).amplitudes.reshape(2, 21, 21)
        f = vacuum_coefficients(r, 20)
        q_r = q_abs * np.exp(1j * phase)
        for n in (0, 3, 7):
            expected = q_r * f[n] * math.sqrt(n + 1.0) / (math.sqrt(2.0) * math.cosh(r))
            assert abs(amp[1, n + 1, n] - expected) < 1e-14


class TestReducedMatrices:
    def test_bell_density_at_zero_squeezing(self):
        rho = reduced(*point(0.0, 1.0), 4)
        assert abs(negativity(rho, "M").value - 0.5) < 1e-12

    def test_hand_traced_two_term_state(self):
        # at r = 0 the joint state has two branches; tracing region II by hand
        # gives (1/2)[|00><00| + 0.64 |11><11| + 0.36 |10><10| + (q_R |11><00| + h.c.)]
        rho = reduced(*point(0.0, 0.8), 3).matrix
        d = 4
        expected = np.zeros((8, 8))
        expected[0, 0] = 0.5
        expected[d + 1, d + 1] = 0.5 * 0.64
        expected[d + 0, d + 0] = 0.5 * 0.36
        expected[d + 1, 0] = 0.5 * 0.8
        expected[0, d + 1] = 0.5 * 0.8
        assert np.allclose(rho, expected, atol=1e-14)

    def test_diagonal_coefficient_matches_read_off(self):
        # the term-by-term structure puts f(n)^2 (n+1) |q_R|^2 / (2 cosh^2 r)
        # on |1, n+1><1, n+1| and f(n)^2 (n+1) |q_L|^2 / (2 cosh^2 r) on
        # |1, n><1, n|; a diagonal element at occupation m collects both
        r, q_abs, n_max = 0.7, 0.9, 25
        mat = reduced(*point(r, q_abs), n_max).matrix
        f = vacuum_coefficients(r, n_max)
        ql2 = 1.0 - q_abs * q_abs
        cosh2 = math.cosh(r) ** 2
        d = n_max + 1
        for m in (1, 5, 10):
            idx = d + m  # (M=1, I=m)
            expected = (
                f[m - 1] ** 2 * m * q_abs**2 + f[m] ** 2 * (m + 1) * ql2
            ) / (2.0 * cosh2)
            assert abs(mat[idx, idx] - expected) < 1e-14

    def test_diagonal_coefficient_pure_right_weight(self):
        # with q_L = 0 the |1, n+1> diagonal is exactly the single read-off term
        r, n_max = 0.7, 25
        mat = reduced(*point(r, 1.0), n_max).matrix
        f = vacuum_coefficients(r, n_max)
        d = n_max + 1
        for n in (0, 4, 9):
            expected = f[n] ** 2 * (n + 1) / (2.0 * math.cosh(r) ** 2)
            assert abs(mat[d + n + 1, d + n + 1] - expected) < 1e-14

    def test_traces_are_unit(self):
        for wedge in (REGION_I, REGION_II):
            rho = _principal_block(*point(0.5, 0.7), 30, wedge)[1]
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10

    def test_antirob_is_product_at_extremal_weights(self):
        rho = reduced(*point(0.0, 1.0), 4, REGION_II)
        assert negativity(rho, "M").value < 1e-14

    def test_swap_rule(self):
        q_r, q_l = 0.6 * np.exp(0.3j), math.sqrt(1 - 0.36) * np.exp(-1.1j)
        weights, swapped = UnruhWeights(q_r, q_l), UnruhWeights(q_l, q_r)
        gap = reduced(0.8, weights, 25, REGION_II).matrix - reduced(0.8, swapped, 25).matrix
        assert np.max(np.abs(gap)) < 1e-12

    def test_positivity(self):
        for wedge in (REGION_I, REGION_II):
            rho = _principal_block(*point(0.9, 0.75), 30, wedge)[1].matrix
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_full_matrix_against_term_series_oracle(self):
        # independent oracle: assemble rho_AR from its explicit term-by-term
        # series (1/2) sum_n f(n)^2 [ |0n><0n|
        #   + (n+1)/cosh^2 (|q_R|^2 |1,n+1><1,n+1| + |q_L|^2 |1n><1n|)
        #   + sqrt(n+1)/cosh (q_R |1,n+1><0n| + q_L tanh |1n><0,n+1|)
        #   + sqrt((n+1)(n+2))/cosh^2 q_R q_L* tanh |1,n+2><1n| + h.c. ]
        # with each term kept only while its occupations fit the truncation
        r, n_max = 0.65, 9
        q_r = 0.8 * np.exp(0.4j)
        q_l = 0.6 * np.exp(-1.3j)
        actual = reduced(r, UnruhWeights(q_r, q_l), n_max).matrix

        d = n_max + 1
        f = vacuum_coefficients(r, n_max)
        c, t = math.cosh(r), math.tanh(r)
        oracle = np.zeros((2 * d, 2 * d), dtype=complex)

        def add(i, n, j, m, value):
            oracle[i * d + n, j * d + m] += value
            if (i, n) != (j, m):
                oracle[j * d + m, i * d + n] += np.conj(value)

        for n in range(d):
            add(0, n, 0, n, f[n] ** 2 / 2.0)
        for n in range(n_max):
            pref = f[n] ** 2 / 2.0
            add(1, n + 1, 1, n + 1, pref * (n + 1) * abs(q_r) ** 2 / c**2)
            add(1, n, 1, n, pref * (n + 1) * abs(q_l) ** 2 / c**2)
            add(1, n + 1, 0, n, pref * math.sqrt(n + 1) * q_r / c)
            add(1, n, 0, n + 1, pref * math.sqrt(n + 1) * t * q_l / c)
        for n in range(n_max - 1):
            pref = f[n] ** 2 / 2.0
            add(1, n + 2, 1, n, pref * math.sqrt((n + 1) * (n + 2)) * t * q_r * np.conj(q_l) / c**2)

        assert np.max(np.abs(actual - oracle)) < 1e-14


class TestBlockStructure:
    def test_sigma_ar_blocks_at_extremal_weight(self):
        # for q_R = 1 the only off-diagonal couplings of the Alice-Rob partial
        # transpose connect |0, n+1> with |1, n>; {|0, 0>} sits alone
        n_max = 12
        sigma = partial_transpose(reduced(*point(0.8, 1.0), n_max), "M")
        d = n_max + 1

        def block_id(i, n):
            return n if i == 0 else n + 1

        for i in range(2):
            for n in range(d):
                for j in range(2):
                    for m in range(d):
                        if block_id(i, n) != block_id(j, m):
                            assert abs(sigma[i * d + n, j * d + m]) < 1e-14

    def test_sigma_antirob_blocks_at_extremal_weight(self):
        # the Alice-AntiRob partial transpose at q_R = 1 has the mirrored
        # pairing {|0, n>, |1, n+1>} (it equals the Alice-Rob matrix at q_L = 1)
        n_max = 12
        sigma = partial_transpose(reduced(*point(0.8, 1.0), n_max, REGION_II), "M")
        d = n_max + 1

        def block_id(i, n):
            return n if i == 0 else n - 1

        for i in range(2):
            for n in range(d):
                for j in range(2):
                    for m in range(d):
                        if block_id(i, n) != block_id(j, m):
                            assert abs(sigma[i * d + n, j * d + m]) < 1e-14


class TestNegativityPair:
    def test_extremal_weights_at_zero_squeezing(self):
        pair = bosonic_negativity_pair(*point(0.0, 1.0))
        assert abs(pair.n_ar - 0.5) < 1e-12
        assert pair.n_aar == 0.0
        assert pair.report.method == "blocks"
        assert pair.report.converged

    @pytest.mark.parametrize("q_abs", [1.0, 0.9, 0.8, 0.7])
    def test_zero_squeezing_closed_form(self, q_abs):
        pair = bosonic_negativity_pair(*point(0.0, q_abs))
        assert abs(pair.n_ar - closed_form_r0(q_abs)) < 1e-10

    def test_example_value_at_08(self):
        pair = bosonic_negativity_pair(*point(0.0, 0.8))
        assert abs(pair.n_ar - 0.32) < 1e-12

    def test_blocks_agree_with_dense_engine(self):
        for r in (0.3, 0.8, 1.2):
            blocks = bosonic._pair_blocks(*point(r, 1.0))
            dense = dense_pair(*point(r, 1.0))
            assert dense.report.converged
            assert abs(blocks.n_ar - dense.n_ar) < 1e-7
            assert dense.n_aar < 1e-7  # exactly zero up to truncation noise

    def test_large_squeezing_through_blocks(self):
        pair = bosonic_negativity_pair(*point(3.0, 1.0))
        assert pair.report.method == "blocks"
        assert pair.report.converged
        assert pair.n_ar < 0.01
        assert pair.n_ar > 0.001

    @pytest.mark.parametrize("r", [0.9, 1.2])
    def test_dense_convergence_report(self, r):
        # each value is its lower end and the bracket width past it gives the
        # upper one; tail_weight is the farthest a value lies from its ends
        r, w = point(r, 0.8)
        pair = bosonic_negativity_pair(r, w)
        rep = pair.report
        assert rep.method == "dense"
        assert rep.converged
        widths = _bracket_widths(r, w.abs_r, w.abs_l, rep.n_max_used)
        assert rep.lo == (pair.n_ar, pair.n_aar)
        assert rep.hi == upper_ends(r, w, (pair.n_ar, pair.n_aar), widths)
        assert rep.tail_weight == max(rep.hi[0] - pair.n_ar, rep.hi[1] - pair.n_aar) <= 1e-7

    @pytest.mark.parametrize("r", [400.0, 800.0, 1e4])
    def test_dense_route_at_extreme_squeezing_is_clean_and_unconverged(self, r):
        # cosh r overflows past r ~ 710 and the state's entries underflow past
        # r ~ 355; the route must flag the row, not raise or warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(*point(r, 0.8))
        assert (pair.n_ar, pair.n_aar) == (0.0, 0.0)
        assert pair.report.method == "dense"
        assert not pair.report.converged
        assert (pair.report.lo, pair.report.hi) == ((0.0, 0.0), (math.inf, math.inf))

    def test_phase_invariance(self):
        for r in (0.2, 0.7):
            base = bosonic_negativity_pair(*point(r, 0.8))
            for phase in (math.pi / 7, math.pi / 3, 1.0):
                rotated = bosonic_negativity_pair(*point(r, 0.8, phase=phase))
                assert abs(rotated.n_ar - base.n_ar) < 1e-10
                assert abs(rotated.n_aar - base.n_aar) < 1e-10

    def test_swap_symmetry_of_pair(self):
        pair = bosonic_negativity_pair(*point(0.6, 0.8))
        mirror = bosonic_negativity_pair(*point(0.6, 0.6))
        assert abs(pair.n_ar - mirror.n_aar) < 1e-12
        assert abs(pair.n_aar - mirror.n_ar) < 1e-12

    def test_truncation_deltas_shrink(self):
        deltas = []
        for n in (15, 25, 35):
            a = _dense_pair(*point(1.0, 0.8), n)[0]
            b = _dense_pair(*point(1.0, 0.8), n + 5)[0]
            deltas.append(abs(a - b))
        assert deltas[0] > deltas[1] > deltas[2]


class TestCurve:
    def test_first_row_values(self):
        rows = bosonic_curve(1.0, [0.0, 0.5])
        assert abs(rows[0].n_ar - 0.5) < 1e-12
        assert rows[0].n_aar == 0.0

    def test_monotone_decay_for_canonical_weights(self):
        rows = bosonic_curve(1.0, np.linspace(0.0, 1.5, 12))
        values = [row.n_ar for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.1

    def test_both_columns_decay_for_generic_weights(self):
        rows = bosonic_curve(0.8, [0.0, 0.75, 1.5])
        assert rows[-1].report.converged
        assert rows[-1].n_ar < rows[1].n_ar < rows[0].n_ar
        assert rows[-1].n_ar < 0.1
        assert rows[-1].n_aar < rows[0].n_aar

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            bosonic_curve(0.8, [-0.1])

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bosonic_curve(1.2, [0.0])

    @pytest.mark.parametrize("q_abs", [0.3, 0.9])
    @pytest.mark.parametrize("chunk", [bosonic._CHUNK_ELEMENTS, 100, 7])
    def test_batched_rows_equal_single_point_pairs(self, q_abs, chunk, monkeypatch):
        # the curve builds its bands once per chunk of rows at the chunk's top
        # level (with a budget of 100 or 7 elements, one row per chunk); every
        # field must have the same bits as a point evaluated on its own
        monkeypatch.setattr(bosonic, "_CHUNK_ELEMENTS", chunk)
        grid = np.append(np.linspace(0.0, 3.0, 25), 25.0)
        rows = bosonic_curve(q_abs, grid)
        assert {row.report.n_max_used for row in rows} == {1, 8, 16, 32, 64, 120}
        for x, row in zip(grid, rows):
            pair = bosonic_negativity_pair(*point(float(x), q_abs))
            assert (row.r, row.n_ar, row.n_aar, row.report) == (float(x), pair.n_ar, pair.n_aar, pair.report)
        # tanh 25 rounds to 1: returned unevaluated, with ends 0 and inf
        assert (rows[-1].n_ar, rows[-1].n_aar, rows[-1].report.converged) == (0.0, 0.0, False)
        assert (rows[-1].report.lo, rows[-1].report.hi) == ((0.0, 0.0), (math.inf, math.inf))

    def test_long_curve_builds_its_bands_in_chunks(self, monkeypatch):
        # 4000 rows at n = 120 would need 46 MB for both sides' bands at once;
        # past r ~ 1.35 every row of q = 0.9 reaches the cap.
        # LAPACK is stubbed out: the memory in question is the band build's.
        monkeypatch.setattr(bosonic, "_lapack", lambda: lambda band: (np.zeros(band.shape[1]), 0))
        grid = np.linspace(1.5, 3.0, 4000)
        tracemalloc.start()
        try:
            rows = bosonic_curve(0.9, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 4000 and {row.report.n_max_used for row in rows} == {120}
        assert peak < 10e6

    def test_a_curve_builds_its_bands_once_per_chunk(self, monkeypatch):
        # 150 rows at levels 1 to the cap, the last 36 past tanh r = 1 and left
        # unevaluated: one engine call for the curve, and one band build per
        # chunk of rows, at the chunk's top level and of at most 0.8 MB
        builds, engine_calls = [], []
        sector_bands, principal_negativities = bosonic._sector_bands, bosonic._principal_negativities

        def bands(r, abs_r, abs_l, n_max):
            out = sector_bands(r, abs_r, abs_l, n_max)
            builds.append((r.size, n_max, out.nbytes))
            return out

        def engine(r, n_max, abs_r, abs_l):
            engine_calls.append(n_max)
            return principal_negativities(r, n_max, abs_r, abs_l)

        monkeypatch.setattr(bosonic, "_sector_bands", bands)
        monkeypatch.setattr(bosonic, "_principal_negativities", engine)
        rows = bosonic_curve(0.4, np.linspace(0.0, 25.0, 150))
        solved = [row.report.n_max_used for row in rows if math.tanh(row.r) < 1.0]
        assert len(solved) == 114 and engine_calls == [solved]
        step = bosonic._CHUNK_ELEMENTS // (N_MAX_CAP + 1)
        chunks = [solved[i : i + step] for i in range(0, len(solved), step)]
        assert [(size, n) for size, n, _ in builds] == [(len(c), max(c)) for c in chunks]
        assert len(builds) == 2 and max(nbytes for *_, nbytes in builds) <= 0.8e6

    @pytest.mark.parametrize("chunk", [bosonic._CHUNK_ELEMENTS, 100, 1])
    @settings(max_examples=25, deadline=None)
    @given(q_abs=st.floats(0.01, 0.99),
           rows=st.lists(st.tuples(st.floats(0.0, 4.0), st.integers(1, N_MAX_CAP)), min_size=1, max_size=12))
    def test_rows_at_their_own_levels_have_the_bits_of_one_level_solves(self, chunk, q_abs, rows):
        # a chunk solves each row on the leading columns of bands built at the
        # chunk's top level; each row must match a build at exactly its level
        w = UnruhWeights.from_abs(q_abs)
        r, levels = np.array([x for x, _ in rows]), [n for _, n in rows]
        with mock.patch.object(bosonic, "_CHUNK_ELEMENTS", chunk):
            values = bosonic._principal_negativities(r, levels, w.abs_r, w.abs_l).tolist()
        for x, n, pair in zip(r, levels, values):
            alone = bosonic._principal_negativities(np.array([x]), [n], w.abs_r, w.abs_l)[0].tolist()
            assert [v.hex() for v in pair] == [v.hex() for v in alone]


def block_terms(r, n):
    """-lambda_min of the n-th 2x2 sector for q_R = 1, straight from its entries.

    The sector [[a, b], [b, d]] (units of the 1/2 prefactor) has determinant
    -T^{2n} / (4 cosh^6 r); dividing it by the larger eigenvalue avoids the
    cancellation in (a + d)/2 - sqrt(((a - d)/2)^2 + b^2).  T^n is taken as
    e^{-kn} with k = -ln tanh^2 r = 2 ln((1 + u)/(1 - u)), u = e^{-2r}.
    """
    u = math.exp(-2.0 * r)
    k = 2.0 * (math.log1p(u) - math.log1p(-u))
    c = math.cosh(r)
    n = np.asarray(n, dtype=float)
    t_n = np.exp(-k * n)
    a = t_n * math.exp(-k) / (2.0 * c**2)
    b = t_n * np.sqrt(n + 1.0) / (2.0 * c**3)
    d = n * t_n * math.exp(k) / (2.0 * c**4)
    lam_max = 0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return t_n * t_n / (4.0 * c**6 * lam_max), k


def long_sum_reference(r, head=1 << 16, steps=1 << 16):
    """Block series as a direct sum of ``head`` terms plus a trapezoid tail.

    The tail sum_{n >= M} h(n) is int_M^inf h + h(M)/2 - h'(M)/12 (M = head),
    with h' by central differences; the integral runs over t = ln(x/M) until
    e^{-kx} < e^-80 with the trapezoid rule at two step sizes, extrapolated.
    """
    terms, k = block_terms(r, np.arange(head))
    t_max = math.log(max(80.0 / (k * head), 2.0))

    def trapezoid(n):
        t = np.linspace(0.0, t_max, n + 1)
        x = head * np.exp(t)
        y = block_terms(r, x)[0] * x
        return (t_max / n) * (math.fsum(y) - 0.5 * (y[0] + y[-1]))

    integral = (4.0 * trapezoid(2 * steps) - trapezoid(steps)) / 3.0
    h_m, h_lo, h_hi = block_terms(r, [head, head - 1, head + 1])[0]
    return math.fsum(terms) + integral + 0.5 * h_m - (h_hi - h_lo) / 24.0


def series_rate(r):
    """k = -ln tanh^2 r as the block series forms it."""
    return -2.0 * math.log(math.tanh(r)) if r < 0.5 else 4.0 * math.atanh(math.exp(-2.0 * r))


def series_head(k):
    """N as the block series takes it: 64 where a head of 4096 would not reach k N >= 60, else min(4096, 60/k)."""
    return 64 if k * 4096 < 60.0 else min(4096, math.ceil(60.0 / k))


def loop_panel_edges(n_head, k, s2):
    """The tail panel edges built one at a time: e + min(e + s2, 4/k) until k e >= 60, at most the largest float."""
    edges = [float(n_head)]
    while k * edges[-1] < 60.0:
        edges.append(min(edges[-1] + min(edges[-1] + s2, 4.0 / k), sys.float_info.max))
    return np.array(edges)


def hypot_terms(x, s, k):
    """The block series' terms with nu = (s + x/s)/2 + hypot((s - x/s)/2, sqrt(x + 1)), the form before m."""
    nu = 0.5 * (s + x / s) + np.hypot(0.5 * (s - x / s), np.sqrt(x + 1.0))
    return np.exp(-k * x) * (s / nu)


def fsum_block_series(r):
    """The block series with its head and tail nodes summed by math.fsum, its edges by the loop.

    Returns (value, N, count of tail nodes), from the same terms
    (``_series_terms``), panels and nodes as ``_block_series``, and the end
    terms h(N)/2 - h'(N)/12, plus h'''(N)/720 (``third_derivative``) after
    a 64-term head.
    """
    t, k = math.tanh(r), series_rate(r)
    c, s = math.cosh(r), math.sinh(r) * t
    n_head = series_head(k)
    edges = loop_panel_edges(n_head, k, s * s)
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes, weights = _gauss_legendre()
    h = _series_terms(0.5 * (hi - lo) * nodes + (0.5 * hi + 0.5 * lo), s, k) * (0.5 * (hi - lo) * weights)
    w = math.hypot(0.5 * (s * s - n_head), s * math.sqrt(n_head + 1.0))
    h_n = float(_series_terms(np.array([float(n_head)]), s, k)[0])
    slope = h_n * (k + 0.5 / w)
    third = third_derivative(r, n_head) if n_head == 64 else 0.0
    tail = math.fsum(h.ravel().tolist()) + 0.5 * h_n + slope / 12.0 + third / 720.0
    total = math.fsum(_series_terms(np.arange(n_head, dtype=float), s, k).tolist() + [tail])
    return total / (2.0 * s) / c / c / c, n_head, h.size


def third_derivative(r, x):
    """h'''(x) of the block series' terms h = s e^{-kx} g(m), g = sqrt(m^2 + 1) - m = 1/nu, m = (s + x/s)/2.

    With a = m' = 1/(2s), q = sqrt(m^2 + 1), g' = -g/q, g'' = q^-3 and
    g''' = -3m q^-5: h''' = s e^{-kx} (-k^3 g + 3k^2 a g' - 3k a^2 g'' + a^3 g'''),
    each term <= 0, formed with 1/q so that no power overflows.
    """
    k, s = series_rate(r), math.sinh(r) * math.tanh(r)
    m, a = 0.5 * (s + x / s), 0.5 / s
    inv_q = 1.0 / math.sqrt(m * m + 1.0)
    g = 1.0 / (m + 1.0 / inv_q)
    inner = k**3 * g + 3.0 * k * k * a * g * inv_q + 3.0 * k * a * a * inv_q**3 + 3.0 * a**3 * m * inv_q**5
    return -s * math.exp(-k * x) * inner


class TestBlockSeries:
    @pytest.mark.parametrize("r", [0.5, 3.0, 5.0])
    def test_matches_direct_sum(self, r):
        # far enough that the dropped terms sit below 1e-35 of the first
        _, k = block_terms(r, 0)
        direct = math.fsum(block_terms(r, np.arange(math.ceil(80.0 / k)))[0])
        value = _block_series(r)[0]
        assert abs(value - direct) <= 1e-14 * direct

    # a 4096-term head stops short of e^-60 from r ~ 2.81, and the row sums 64 terms
    @pytest.mark.parametrize("r", [3.5, 4.5, 6.0, 8.0, 10.0])
    def test_bound_covers_long_sum_reference(self, r):
        pair = bosonic_negativity_pair(*point(r, 1.0))
        rep = pair.report
        reference = long_sum_reference(r)
        assert rep.n_max_used <= 4096
        assert rep.lo[0] <= reference <= rep.hi[0]
        assert rep.tail_weight <= 1e-6 * pair.n_ar

    @given(st.floats(0.5, 25.0))
    @settings(max_examples=200, deadline=None)
    def test_panel_edges_have_the_bits_of_the_loop(self, r):
        k, s = series_rate(r), math.sinh(r) * math.tanh(r)
        n_head = series_head(k)
        assert np.array_equal(_panel_edges(n_head, k, s * s), loop_panel_edges(n_head, k, s * s))

    @pytest.mark.parametrize("n_head", [1, 7, 4096])
    @pytest.mark.parametrize("j", [0, 1, 5, 13, 40])
    def test_panel_edges_at_exact_powers_and_at_60(self, n_head, j):
        # with s^2 = 0 the panels double: 4/k = N 2^j lands on 4/k itself, then the
        # steps of 4/k on k e = 60; k = 60/(N 2^j) lands on k e = 60.  With s^2 = 1/k,
        # as on the series' tail rows, e + s^2 doubles instead
        for k in (4.0 / (n_head * 2.0**j), 60.0 / (n_head * 2.0**j)):
            for s2 in (0.0, 1.0 / k):
                edges = _panel_edges(n_head, k, s2)
                assert np.array_equal(edges, loop_panel_edges(n_head, k, s2))
                assert k * edges[-1] >= 60.0 and (edges.size == 1 or k * edges[-2] < 60.0)

    @given(st.floats(1e-12, 2.0), st.integers(1, 4096), st.floats(0.0, 1e30))
    @settings(max_examples=200, deadline=None)
    def test_panel_edges_for_any_rate(self, k, n_head, s2):
        assert np.array_equal(_panel_edges(n_head, k, s2), loop_panel_edges(n_head, k, s2))

    @given(st.floats(0.01, 25.0))
    @example(0.5)
    @example(3.0)
    @example(3.2)
    @example(4.85)
    @example(10.0)
    @settings(max_examples=60, deadline=None)
    def test_pairwise_sums_stay_within_the_rounding_term(self, r):
        value, bound, n_used = _block_series(r)
        reference, n_head, nodes = fsum_block_series(r)
        rounding = (16 + n_head + nodes) * sys.float_info.epsilon * value
        assert n_used == n_head
        assert abs(value - reference) <= rounding <= bound

    def test_the_series_takes_no_per_term_python_sum(self, monkeypatch):
        def fsum(_):
            raise AssertionError("math.fsum called by the block series")

        monkeypatch.setattr(math, "fsum", fsum)
        value, bound, n_used = _block_series(7.0)
        assert n_used == 64 and 0.0 < bound <= 1e-9 * value

    @given(st.floats(1e-3, 3.0))
    @example(2.81)
    @settings(max_examples=100, deadline=None)
    def test_a_head_that_reaches_e60_builds_no_tail(self, r):
        # k N >= 60: _panel_edges would return the single edge N, so no panel
        # or node is made, and h(X) is h(N)
        k = series_rate(r)
        n_head = series_head(k)

        def tail_machinery(*args):
            raise AssertionError("tail panels built for a head that reaches e^-60")

        with mock.patch.object(bosonic, "_panel_edges", tail_machinery), \
                mock.patch.object(bosonic, "_gauss_legendre", tail_machinery):
            if k * n_head < 60.0:
                with pytest.raises(AssertionError, match="tail panels"):
                    _block_series(r)
                return
            value, bound, n_used = _block_series(r)
        reference, _, nodes = fsum_block_series(r)
        assert nodes == 0 and n_used == n_head
        assert abs(value - reference) <= (16 + n_head) * sys.float_info.epsilon * value <= bound

    @pytest.mark.parametrize("r", [0.0, 1e-300])
    def test_vanishing_squeezing_gives_one_half(self, r):
        assert math.tanh(r) ** 2 == 0.0  # at r = 1e-300 it underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(*point(r, 1.0))
        assert pair.n_ar == 0.5 and pair.n_aar == 0.0
        assert pair.report.method == "blocks" and pair.report.converged

    def test_converged_means_bound_within_relative_tolerance(self, monkeypatch):
        pair = bosonic_negativity_pair(*point(5.0, 1.0))
        rep = pair.report
        assert rep.converged and 0.0 < rep.tail_weight <= 1e-6 * pair.n_ar
        monkeypatch.setattr(bosonic, "DELTA_TOL", 0.5 * rep.tail_weight / pair.n_ar)
        loose = bosonic_negativity_pair(*point(5.0, 1.0))
        assert loose.n_ar == pair.n_ar
        assert not loose.report.converged

    def test_left_weight_mirrors_the_pair(self):
        right = bosonic_negativity_pair(*point(7.0, 1.0))
        left = bosonic_negativity_pair(*point(7.0, 0.0))
        assert (left.n_ar, left.n_aar) == (right.n_aar, right.n_ar)
        assert (left.report.lo, left.report.hi) == (right.report.lo[::-1], right.report.hi[::-1])
        # the series value lies within its bound of both ends; the zero side is exact
        value, bound, _ = _block_series(7.0)
        assert right.report.lo == (value - bound, 0.0) and right.report.hi == (value + bound, 0.0)

    @given(st.floats(1e-3, 353.1))
    @example(1e-150)  # below r ~ 1e-75, N = 1 and m = (s + 1/s)/2 passes 1e150, where q stops
    @example(1e-100)
    @example(1e-77)
    @example(1e-14)
    @example(352.2)  # the tail reaches m ~ 1e155, whose square overflows
    @example(352.7)
    @example(353.1)
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_the_hypot_form_term_by_term(self, r):
        # one kernel call takes the head 0..N-1, then N, the tail nodes and X.
        # To first order in u = eps/2, nu = m + sqrt(m^2 + 1) lies within 5u of
        # the exact nu and the hypot form within 6.5u; a division and a product
        # on the same e^{-kx} bits follow, so the two terms lie within 8 eps
        calls = []

        def spy(x, s, k):
            calls.append((x, s, k, _series_terms(x, s, k)))
            return calls[-1][-1]

        with mock.patch.object(bosonic, "_series_terms", spy):
            _block_series(r)
        (x, s, k, h), = calls
        n_head = series_head(k)
        edges = loop_panel_edges(n_head, k, s * s)
        lo, hi = edges[:-1, None], edges[1:, None]
        nodes = (0.5 * (hi - lo) * _gauss_legendre()[0] + (0.5 * hi + 0.5 * lo)).ravel()
        assert np.array_equal(x[: n_head + 1], np.arange(n_head + 1.0)) and x[-1] == edges[-1]
        assert np.array_equal(x[n_head + 1 : -1], nodes) and x.size == n_head + 1 + nodes.size + (edges.size > 1)
        reference = hypot_terms(x, s, k)
        assert np.all(np.abs(h - reference) <= 8.0 * (sys.float_info.epsilon * reference + math.ulp(0.0)))

    @pytest.mark.parametrize("r", [7.0, 2.0])  # with tail panels, and with the head alone
    def test_one_kernel_evaluation_per_row(self, r, monkeypatch):
        _gauss_legendre()  # built and cached before the count
        calls, exp = [], np.exp

        def counted_exp(*args, **kwargs):
            calls.append(args[0].size)
            return exp(*args, **kwargs)

        def hypot(*args, **kwargs):
            raise AssertionError("np.hypot called by the block series")

        monkeypatch.setattr(np, "exp", counted_exp)
        monkeypatch.setattr(np, "hypot", hypot)
        value, bound, n_used = _block_series(r)
        assert len(calls) == 1 and calls[0] > n_used == series_head(series_rate(r))
        assert 0.0 < bound <= 1e-6 * value

    @pytest.mark.parametrize("r", [353.2, 353.3, 353.5, 353.53, 353.537])
    def test_rows_at_the_float_range_edge(self, r):
        # from r = 353.183 the last panel's hi + lo passes the float range, and from
        # 353.513 the last edge 60/k + O(4/k) does; the early return starts at 353.538
        k, s = series_rate(r), math.sinh(r) * math.tanh(r)
        edges = _panel_edges(64, k, s * s)
        assert np.isfinite(edges).all() and np.array_equal(edges, loop_panel_edges(64, k, s * s))
        pair = bosonic_negativity_pair(*point(r, 1.0))  # warnings are errors in this suite
        assert math.isfinite(pair.n_ar) and pair.report.lo[0] < pair.n_ar < pair.report.hi[0]
        assert pair.report.converged
        value, bound, _ = _block_series(r)
        assert abs(value - fsum_block_series(r)[0]) <= bound

    @pytest.mark.parametrize("r", [19.5, 25.0, 150.0, 353.4, 353.6, 400.0, 1e300])
    def test_rows_near_and_past_the_float_range_edge_are_quiet(self, r):
        # warnings are errors in this suite: no h' or h''' factor overflows or warns.
        # Past r ~ 353.538 the series is 0 with bound k (k = 0 once tanh r = 1), as before
        pair = bosonic_negativity_pair(*point(r, 1.0))
        value, bound, n_used = _block_series(r)
        assert (pair.n_ar, pair.report.lo[0], pair.report.hi[0]) == (value, value - bound, value + bound)
        assert pair.report.converged and (pair.n_aar, pair.report.lo[1], pair.report.hi[1]) == (0.0, 0.0, 0.0)
        if series_rate(r) * sys.float_info.max < 60.0:
            assert (value, bound, n_used) == (0.0, series_rate(r), 0)
        else:
            assert n_used == 64 and 0.0 < bound <= 1e-9 * value
            assert abs(value - fsum_block_series(r)[0]) <= bound

    @given(st.floats(2.81, 30.0))
    @example(2.81)
    @example(3.0)
    @example(30.0)
    @settings(max_examples=30, deadline=None)
    def test_tail_rows_lie_within_their_bound_of_the_long_sum(self, r):
        # the reference's head stops by 40/k, before its terms' squares underflow
        head = min(1 << 16, 1 << int(math.log2(40.0 / series_rate(r))))
        value, bound, n_used = _block_series(r)
        assert n_used == 64 and abs(value - long_sum_reference(r, head=head)) <= bound

    @pytest.mark.parametrize("r", [2.81, 3.0, 3.25, 3.5])
    def test_two_term_tail_from_64_matches_a_direct_sum(self, r):
        # sum_{n >= N} h(n) = int_N^X h + h(N)/2 - h'(N)/12 + h'''(N)/720 + R, |R| <= |h'''(N)|/720,
        # against an fsum of 2^20 terms from N = 64 (past 60/k the rest is below e^-60)
        k, s = series_rate(r), math.sinh(r) * math.tanh(r)
        edges = loop_panel_edges(64, k, s * s)
        lo, hi = edges[:-1, None], edges[1:, None]
        nodes, weights = _gauss_legendre()
        integral = _series_terms(0.5 * (hi - lo) * nodes + (0.5 * hi + 0.5 * lo), s, k) * (0.5 * (hi - lo) * weights)
        h_n = float(_series_terms(np.array([64.0]), s, k)[0])
        m = 0.5 * (s + 64.0 / s)
        slope = -h_n * (k + 0.5 / (s * math.sqrt(m * m + 1.0)))  # h'(N) = -h (k + a/q)
        one_term = math.fsum(integral.ravel().tolist() + [0.5 * h_n, -slope / 12.0])
        rest = third_derivative(r, 64.0) / 720.0
        direct = math.fsum(_series_terms(np.arange(64.0, 64.0 + (1 << 20)), s, k).tolist())
        rounding = 20 * sys.float_info.epsilon * direct  # 8 eps a term (the hypot test), 10 a weighted node
        assert k * (1 << 20) > 60.0 and abs(direct - (one_term + rest)) <= abs(rest) + rounding
        assert abs(direct - one_term) > rounding  # the h''' term is resolved: it is not below the rounding

    @given(st.floats(2.81, 353.5))
    @example(2.81)
    @example(10.0)
    @example(19.5)
    @example(353.5)
    @settings(max_examples=60, deadline=None)
    def test_tail_rows_evaluate_at_most_1024_points(self, r):
        # k 4096 < 60 from r = 2.81 on: each such row sums a 64-term head, and
        # its panels grow with the distance to the roots at -s^2, so a return
        # of the 4096-term head, or of panels that double from N, fails here
        calls = []

        def spy(x, s, k):
            calls.append(x.size)
            return _series_terms(x, s, k)

        with mock.patch.object(bosonic, "_series_terms", spy):
            value, bound, n_used = _block_series(r)
        assert series_rate(r) * 4096 < 60.0 and n_used == 64
        assert calls[0] <= 1024 and len(calls) == 1
        assert 0.0 < bound <= 1e-9 * value


#: the first r whose tanh rounds to 1, and the r one ulp below it
TANH_ONE, TANH_ONE_BELOW = 19.061547465398498, 19.061547465398494


def linear_ladder_level(r, w):
    """(n, widths) at the first of 1, 2, 4, ..., N_MAX_CAP whose widths meet 0.1 DELTA_TOL, scanned upwards."""
    n = 1
    while True:
        widths = _bracket_widths(r, w.abs_r, w.abs_l, n)
        if n == N_MAX_CAP or max(widths) <= 0.1 * bosonic.DELTA_TOL:
            return n, widths
        n = min(2 * n, N_MAX_CAP)


def sector_order(n_max, parity):
    """Flat (M, I) indices of the parity sector: |a_i, i> with a_i = (parity + i) mod 2."""
    d = n_max + 1
    return [((parity + i) % 2) * d + i for i in range(d)]


def stacked_sector_bands(r, abs_r, abs_l, n_max):
    """``_sector_bands`` built as two full-size selections between stacked empty and occupied tables."""
    d = n_max + 1
    f_all = vacuum_coefficients(r, n_max + 1)
    cosh = np.reshape([math.cosh(x) for x in np.ravel(r)], np.shape(r) + (1,))
    b = np.concatenate([np.zeros_like(cosh), f_all * np.sqrt(np.arange(d + 1) + 1.0) / cosh], axis=-1)
    f, f_next = f_all[..., None, :d], f_all[..., None, 1:]
    b_prev, b_i, b_next = b[..., None, :d], b[..., None, 1 : d + 1], b[..., None, 2:]
    x, x2 = np.array([[abs_r], [abs_l]]), np.array([[abs_r**2], [abs_l**2]])
    y, y2 = x[::-1], x2[::-1]
    empty = np.stack(np.broadcast_arrays(f * f, y * f_next * b_i, 0.0), axis=-2)
    occupied = np.stack(np.broadcast_arrays(
        x2 * b_prev**2 + y2 * b_i**2, x * f * b_i, abs_l * abs_r * b_i * b_next), axis=-2)
    odd = np.arange(d) % 2 == 1
    return 0.5 * np.stack([np.where(odd, occupied, empty), np.where(odd, empty, occupied)], axis=-3)


class TestParitySectors:
    def test_qops_partial_transpose_splits_into_banded_parity_sectors(self):
        # the dense qops partial transpose, with complex weights, has no entry
        # between sectors of different parity of (n_M + n_I), and inside each
        # sector (occupation order) nothing beyond the second off-diagonal
        n_max = 14
        weights = UnruhWeights(0.7 * np.exp(0.4j), math.sqrt(0.51) * np.exp(-1.2j))
        d = n_max + 1
        parity = np.add.outer(np.arange(2), np.arange(d)).ravel() % 2
        offset = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        for rho in (reduced(0.9, weights, n_max), reduced(0.9, weights, n_max, REGION_II)):
            sigma = partial_transpose(rho, "M")
            assert np.max(np.abs(sigma[np.not_equal.outer(parity, parity)])) == 0.0
            for p in (0, 1):
                idx = sector_order(n_max, p)
                block = sigma[np.ix_(idx, idx)]
                assert np.max(np.abs(block[offset > 2])) == 0.0
                assert np.max(np.abs(block[offset == 2])) > 0.0

    @pytest.mark.parametrize("r,q_abs,phase,n_max", [(0.0, 0.8, 0.0, 3), (0.9, 0.7, 1.1, 14),
                                                     (1.7, 0.35, -2.0, 40), (0.6, 1.0, 0.5, 9)])
    def test_band_entries_match_qops_partial_transpose(self, r, q_abs, phase, n_max):
        # oracle: the exact principal block of the qops partial transpose,
        # reordered into the two sectors; the weight phases only move the
        # phases of its entries
        weights = UnruhWeights.from_abs(q_abs, phase)
        bands = _sector_bands(r, weights.abs_r, weights.abs_l, n_max)[0]  # Alice-Rob
        weight, rho = _principal_block(r, weights, n_max, REGION_I)
        sigma = weight * partial_transpose(rho, ALICE)
        d = n_max + 1
        for p, band in enumerate(bands):
            idx = sector_order(n_max, p)
            block = np.abs(sigma[np.ix_(idx, idx)])
            for k in range(3):
                assert np.max(np.abs(band[k, : d - k] - np.diagonal(block, -k))) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(r=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=70), q_abs=st.floats(0.0, 1.0),
           n_max=st.integers(1, 200))
    def test_bands_written_in_place_have_the_bits_of_the_stacked_build(self, r, q_abs, n_max):
        # whole arrays, the padding past each block included; up to 70 rows,
        # more than the 67 of a chunk at the cap
        abs_l = math.sqrt(1.0 - q_abs * q_abs)
        for grid in (np.array(r), r[0]):
            bands = _sector_bands(grid, q_abs, abs_l, n_max)
            assert np.array_equal(bands, stacked_sector_bands(grid, q_abs, abs_l, n_max))

    def test_band_build_broadcasts_over_r_with_the_same_bits(self):
        grid = np.array([0.0, 0.3, 1.1, 2.9, 19.0])
        bands = _sector_bands(grid, 0.6, 0.8, 40)[:, 0]
        assert bands.shape == (5, 2, 3, 41)
        for x, band in zip(grid, bands):
            assert np.array_equal(band, _sector_bands(x, 0.6, 0.8, 40)[0])


@functools.cache
def deep_reference(r, q_abs):
    """(N_AR, N_AAR) of the d = 8000 principal block: a lower bound within 1e-15 at r <= 3."""
    return _dense_pair(*point(r, q_abs), 7999)


def bracket(r, q_abs, n_max):
    """(N_AR, N_AAR) of the principal block at n_max, and the two widths past it."""
    w = UnruhWeights.from_abs(q_abs)
    return _dense_pair(r, w, n_max), _bracket_widths(r, w.abs_r, w.abs_l, n_max)


def upper_ends(r, w, values, widths):
    """A dense row's upper ends: value + width, or 0 on a side that ``_zero_sides`` certifies."""
    zero = bosonic._zero_sides(r, w.abs_r, w.abs_l)
    return tuple(0.0 if z else v + width for v, width, z in zip(values, widths, zero))


class EigCounter:
    """Records the sizes of the banded eigensolves, wrapping the routine ``bosonic._lapack`` gives."""

    def __init__(self, monkeypatch):
        self.eig = []
        sbevd = bosonic._lapack()

        def eig(band):
            self.eig.append(band.shape[1])
            return sbevd(band)

        monkeypatch.setattr(bosonic, "_lapack", lambda: eig)


def scipy_sbevd():
    """``get_lapack_funcs``' ?sbevd with the engine routine's call and return: eigenvalues and info."""
    from scipy.linalg import get_lapack_funcs

    sbevd, = get_lapack_funcs(("sbevd",), dtype=np.float64)
    return lambda band: sbevd(band, compute_v=0, lower=1)[::2]


def lapack_results(sbevd):
    """Eigenvalues and info of random bands of sizes 1, 2, 3, 17, 121 and 500."""
    rng = np.random.default_rng(12)
    out = {}
    for d in (1, 2, 3, 17, 121, 500):
        band = rng.standard_normal((3, d))
        # the raw band is indefinite, the shifted one positive definite
        for name, b in (("raw", band), ("shifted", band + [[8.0], [0.0], [0.0]])):
            out[f"{name}{d}"] = np.append(*sbevd(b))
    return out


class TestLapackLoader:
    def test_path_loaded_routines_match_get_lapack_funcs(self, tmp_path):
        # a child loads the extension by path before anything imports scipy.linalg
        code = ("import sys, numpy as np, test_bosonic as t; from unruhkit import bosonic; "
                "sbevd = bosonic._lapack(); assert 'scipy.linalg' not in sys.modules; "
                f"np.savez({str(tmp_path / 'path.npz')!r}, **t.lapack_results(sbevd))")
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)
        expected = lapack_results(scipy_sbevd())
        with np.load(tmp_path / "path.npz") as loaded:
            assert sorted(loaded) == sorted(expected)
            for key, value in expected.items():
                assert np.array_equal(loaded[key], value), key

    def test_missing_extension_file_falls_back_to_get_lapack_funcs(self, monkeypatch):
        lookups = []
        monkeypatch.setattr(bosonic, "_flapack_path", lambda: lookups.append(1))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        bosonic._lapack.cache_clear()
        try:
            sbevd = bosonic._lapack()
        finally:
            bosonic._lapack.cache_clear()
        # the ctypes routine taken from the object get_lapack_funcs returns
        expected = lapack_results(scipy_sbevd())
        results = lapack_results(sbevd)
        assert lookups == [1] and sorted(results) == sorted(expected)
        for key, value in expected.items():
            assert np.array_equal(results[key], value), key


def cpus(k):
    """Patches the CPU count the dense engine reads to k."""
    return mock.patch.object(bosonic.os, "sched_getaffinity", lambda pid: set(range(k)), create=True)


def curve_fields(q_abs, grid):
    return [(row.r, row.n_ar, row.n_aar, row.report) for row in bosonic_curve(q_abs, grid)]


class TestRowSplit:
    """A chunk's rows solved on the calling thread and min(CPUs, rows) - 1 worker threads."""

    def record_threads(self, monkeypatch, fail=None):
        # the routine as _lapack gives it, recording the thread of each call;
        # fail=(size, info) makes it return that info at that size
        sbevd = bosonic._lapack()
        names, failed = [], []

        def call(band):
            names.append(threading.current_thread().name)
            w, info = sbevd(band)
            if fail and fail[0] == band.shape[1]:
                failed.append(threading.current_thread().name)
                return w, fail[1]
            return w, info

        monkeypatch.setattr(bosonic, "_lapack", lambda: call)
        return names, failed

    def test_no_thread_outlives_a_curve(self, monkeypatch):
        # a fork between calls inherits no worker
        names, _ = self.record_threads(monkeypatch)
        before = threading.active_count()
        with cpus(3):
            assert len(bosonic_curve(0.9, np.linspace(0.0, 3.0, 40))) == 40
        assert threading.active_count() == before
        assert len(set(names)) == 3 and threading.current_thread().name in names

    def test_a_worker_error_is_raised_after_every_thread_joins(self, monkeypatch):
        # with 2 CPUs row 0 (a low level) is the calling thread's and row 1 (the cap) the worker's,
        # so only the worker meets the failing size
        grid = [0.05, 2.0]
        levels = [row.report.n_max_used for row in bosonic_curve(0.9, grid)]
        assert levels[0] < N_MAX_CAP == levels[1]
        names, failed = self.record_threads(monkeypatch, (N_MAX_CAP + 1, 1))
        before = threading.active_count()
        with cpus(2), pytest.raises(np.linalg.LinAlgError, match=re.escape("sbevd failed with info=1")):
            bosonic_curve(0.9, grid)
        assert threading.active_count() == before
        caller = threading.current_thread().name
        assert caller in names and failed and caller not in failed

    def test_threads_solving_the_same_bands_match_the_serial_results(self):
        # 4 threads (more than the cores of a small host) solve the same 200 bands at once,
        # with a short switch interval; every spectrum must keep its serial bits
        sbevd = bosonic._lapack()
        rng = np.random.default_rng(40)
        bands = [rng.standard_normal((3, d)) + [[s], [0.0], [0.0]]
                 for d, s in zip(rng.integers(1, 200, 200), rng.choice([0.0, 8.0], 200))]

        def solve_all():
            return [np.append(*sbevd(band)) for band in bands]

        serial, results = solve_all(), [None] * 4
        start = threading.Barrier(4, timeout=60)

        def work(i):
            start.wait()
            results[i] = solve_all()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert len(result) == len(serial)
            assert all(np.array_equal(a, b) for a, b in zip(result, serial))

    @settings(max_examples=15, deadline=None)
    @given(q_abs=st.floats(0.05, 0.95), grid=st.lists(st.floats(0.0, 3.0), max_size=140))
    @example(q_abs=0.9, grid=[3.0 * i / 139 for i in range(140)])
    def test_split_rows_equal_one_thread(self, q_abs, grid):
        # the row past tanh r = 1 stays unevaluated; at n = 120 a chunk holds 67 rows, so up to
        # 140 rows span up to three chunks
        grid = grid + [25.0]
        with cpus(1):
            alone = curve_fields(q_abs, grid)
        for k in (2, 3):
            with cpus(k):
                assert curve_fields(q_abs, grid) == alone


class TestPrincipalBlockBracket:
    @pytest.mark.parametrize("q_abs", [0.4, 0.8, 0.95])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_bracket_holds_against_deep_reference(self, r, q_abs):
        # the reported value is the lower end and value + delta the upper end
        ref = deep_reference(r, q_abs)
        for n in (30, 60, 120):
            values, widths = bracket(r, q_abs, n)
            for value, width, exact in zip(values, widths, ref):
                assert value <= exact + 1e-14
                assert exact <= value + width + 1e-14

    @pytest.mark.parametrize("q_abs", [0.0, 0.4, 0.95, 1.0])
    @pytest.mark.parametrize("r,n", [(0.05, 1), (0.5, 10), (1.5, 60), (3.0, 1), (3.0, 120)])
    def test_width_is_the_closed_form_of_the_entries_past_the_cut(self, r, q_abs, n):
        # direct sum of |entry| over the upper triangle entries that reach a
        # level past n, read off bands 6000 levels longer (T^6000 < e^-60);
        # the closed form may only exceed it by its Cauchy-Schwarz slack
        w = UnruhWeights.from_abs(q_abs)
        widths = _bracket_widths(r, w.abs_r, w.abs_l, n)
        for width, bands in zip(widths, _sector_bands(r, w.abs_r, w.abs_l, n + 6000)):
            direct = sum(np.abs(band[1, n:]).sum() + np.abs(band[2, n - 1 :]).sum() for band in bands)
            assert direct <= width <= 1.15 * direct

    def test_deep_reference_is_itself_certified(self):
        for q_abs in (0.4, 0.8, 0.95):
            w = UnruhWeights.from_abs(q_abs)
            assert max(_bracket_widths(3.0, w.abs_r, w.abs_l, 7999)) < 1e-15

    def test_lower_bound_rises_monotonically_in_n(self):
        # a principal compression can only lower the sum of negative eigenvalues
        for q_abs in (0.4, 0.9):
            values = np.array([_dense_pair(*point(3.0, q_abs), n) for n in range(4, 200, 7)])
            assert np.all(np.diff(values, axis=0) >= 0.0)
            assert np.all(np.diff(values.max(axis=1)) > 0.0)

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_minor_side_is_certified_zero_by_the_closed_form(self, r, monkeypatch):
        counter = EigCounter(monkeypatch)
        pair = bosonic_negativity_pair(*point(r, 0.9))
        d = pair.report.n_max_used + 1
        assert pair.n_aar == 0.0 and pair.n_ar > 0.0
        # tanh r >= |q_L|/|q_R| = 0.484, so the minor side is 0 with ends (0, 0), unsolved:
        # only the two major-side sectors are eigensolved, once each and at n_max_used only
        assert (pair.report.lo[1], pair.report.hi[1]) == (0.0, 0.0)
        assert counter.eig == [d, d]

    def test_one_solve_per_sector_at_n_max_used(self, monkeypatch):
        counter = EigCounter(monkeypatch)
        pair = bosonic_negativity_pair(*point(0.2, 0.6))  # both sides entangled at small r
        d = pair.report.n_max_used + 1
        assert pair.n_ar > 0.0 and pair.n_aar > 0.0
        # the minor side (|q_R| < |q_L|) is entangled here (tanh r < 0.75), so
        # the closed form certifies nothing and each of the four sectors is solved
        assert counter.eig == [d] * 4

    @settings(max_examples=40, deadline=None)
    @given(q_abs=st.floats(0.01, 0.99), r=st.floats(0.0, 3.0), n_max=st.integers(1, 125))
    def test_bracket_contains_a_deeper_principal_block(self, q_abs, r, n_max):
        # the block 200 levels deeper lies between the value and the exact
        # negativity, so it must fall inside [N, N + delta]
        values, widths = bracket(r, q_abs, n_max)
        deeper = _dense_pair(*point(r, q_abs), n_max + 200)
        for value, width, deep in zip(values, widths, deeper):
            assert value <= deep + 1e-14
            assert deep <= value + width + 1e-14

    @settings(max_examples=40, deadline=None)
    @given(q_abs=st.floats(0.05, 0.95), r=st.lists(st.floats(0.0, 1.6), min_size=1, max_size=6))
    def test_curve_row_ends_contain_a_deeper_principal_block(self, q_abs, r):
        # the ends each converged curve row carries hold the block 200 levels
        # deeper than its own, which lies between the value and the exact one
        w = UnruhWeights.from_abs(q_abs)
        for row in bosonic_curve(q_abs, r):
            rep = row.report
            if rep.converged:
                deeper = _dense_pair(row.r, w, rep.n_max_used + 200)
                for lo, deep, hi in zip(rep.lo, deeper, rep.hi):
                    assert lo - 1e-14 <= deep <= hi + 1e-14

    @pytest.mark.parametrize("q_abs", [0.01, 0.4, 0.9, 0.99])
    def test_level_is_the_first_on_the_ladder_whose_widths_meet_the_floor(self, q_abs):
        # n_max_used is the cap, or the first of 1, 2, 4, ... whose two widths
        # are <= 1e-7; every level before it fails that.  The report carries
        # that level's widths, and converged judges them against the values.
        ladder = (1, 2, 4, 8, 16, 32, 64, N_MAX_CAP)
        levels = set()
        for r in np.linspace(0.0, 3.0, 61):
            pair = bosonic_negativity_pair(*point(r, q_abs))
            rep = pair.report
            n = rep.n_max_used
            levels.add(n)
            assert all(max(bracket(r, q_abs, m)[1]) > 1e-7 for m in ladder[: ladder.index(n)])
            widths = bracket(r, q_abs, n)[1]
            assert n == N_MAX_CAP or max(widths) <= 1e-7
            values = (pair.n_ar, pair.n_aar)
            assert rep.lo == values and rep.hi == upper_ends(r, point(r, q_abs)[1], values, widths)
            assert rep.converged == all(
                hi - v <= 1e-6 * max(v, 0.1) for v, hi in zip(values, rep.hi))
        assert {1, N_MAX_CAP} < levels

    @settings(max_examples=60, deadline=None)
    @given(q_abs=st.floats(0.01, 0.99), r=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=8))
    @example(q_abs=0.5, r=[0.0, 1e-300, TANH_ONE_BELOW, TANH_ONE, math.nextafter(TANH_ONE, 30.0)])
    def test_bisected_level_is_the_linear_scan_level(self, q_abs, r):
        # the widths fall strictly with n, so bisecting the ladder finds the
        # level (and the widths) that scanning it from 1 upwards finds
        w = UnruhWeights.from_abs(q_abs)
        for x, pair in zip(r, bosonic._dense_pairs(np.array(r), w)):
            rep = pair.report
            if math.tanh(x) == 1.0:
                assert (rep.n_max_used, rep.hi, rep.converged) == (N_MAX_CAP, (math.inf, math.inf), False)
            else:
                n, widths = linear_ladder_level(x, w)
                assert (rep.n_max_used, rep.hi) == (n, upper_ends(x, w, (pair.n_ar, pair.n_aar), widths))

    def test_tanh_one_examples_straddle_the_threshold(self):
        assert math.tanh(TANH_ONE_BELOW) < 1.0 == math.tanh(TANH_ONE)
        assert math.nextafter(TANH_ONE_BELOW, 30.0) == TANH_ONE

    @pytest.mark.parametrize("q_abs", [0.01, 0.4, 0.9, 0.99])
    def test_at_most_four_width_evaluations_per_row(self, q_abs, monkeypatch):
        calls = []
        widths = bosonic._bracket_widths

        def counted(r, *args):
            calls.append(r)
            return widths(r, *args)

        monkeypatch.setattr(bosonic, "_bracket_widths", counted)
        grid = np.linspace(0.0, 25.0, 301)
        rows = bosonic_curve(q_abs, grid)
        per_row = [calls.count(x) for x in grid.tolist()]
        assert max(per_row) <= 4 and len(calls) <= 4 * len(rows)
        # a row past tanh r = 1 forms no width at all
        assert all(n == 0 for x, n in zip(grid.tolist(), per_row) if math.tanh(x) == 1.0)

    def test_converged_zero_is_certified_by_the_absolute_floor(self, monkeypatch):
        # 400 ulps below tanh r = |q_L|/|q_R| the minor side is not certified by the closed
        # form: its principal value reads 0 (no eigenvalue below the cutoff), with the width
        r, w = point(0.0, 0.74)
        r = math.atanh(w.abs_l / w.abs_r) - 400 * math.ulp(1.5)
        pair = bosonic_negativity_pair(r, w)
        rep = pair.report
        assert rep.converged and pair.n_aar == 0.0 and bosonic._zero_sides(r, w.abs_r, w.abs_l) == (False, False)
        assert rep.lo[1] == 0.0 < rep.hi[1] <= 1e-7
        # the point sits at the cap, so a tighter floor buys no deeper level:
        # the same 0 is judged against it and fails
        assert rep.n_max_used == N_MAX_CAP
        monkeypatch.setattr(bosonic, "DELTA_TOL", 0.5 * rep.hi[1] / 0.1)
        tight = bosonic_negativity_pair(r, w)
        assert (tight.n_ar, tight.n_aar) == (pair.n_ar, pair.n_aar)
        assert not tight.report.converged

    @pytest.mark.parametrize("r", [5.0, 10.0, 18.0])
    def test_deep_dense_rows_are_prompt_and_unconverged(self, r, monkeypatch):
        counter = EigCounter(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(*point(r, 0.8))
        rep = pair.report
        assert not rep.converged
        assert rep.n_max_used == N_MAX_CAP
        assert max(counter.eig) == N_MAX_CAP + 1
        assert 0.0 <= pair.n_ar <= 0.5 and 0.0 <= pair.n_aar <= 0.5
        assert rep.lo == (pair.n_ar, pair.n_aar) and all(map(math.isfinite, rep.hi))


class TestSchurZeros:
    """A side is exactly 0 iff |q_major|^2 tanh^2 r >= |q_minor|^2; ``_zero_sides`` certifies it with a margin."""

    @settings(max_examples=60, deadline=None)
    @given(q_abs=st.floats(0.05, 0.95), r=st.floats(0.0, 3.0))
    @example(q_abs=0.9, r=0.0)
    @example(q_abs=math.sqrt(0.5), r=2.0)
    @example(q_abs=0.9, r=0.4)  # tanh r in place of tanh^2 r would certify this nonzero minor side
    @example(q_abs=0.9, r=3.0)
    def test_a_side_is_zero_with_ends_zero_iff_the_closed_form_test_holds(self, q_abs, r):
        r, w = point(r, q_abs)
        pair = bosonic_negativity_pair(r, w)
        rep, values, weights = pair.report, (pair.n_ar, pair.n_aar), (w.abs_r, w.abs_l)
        # the principal blocks with every side solved by ?sbevd, as before the closed form
        with mock.patch.object(bosonic, "_zero_sides", lambda *args: (False, False)):
            solved = _dense_pair(r, w, rep.n_max_used)
        widths = _bracket_widths(r, w.abs_r, w.abs_l, rep.n_max_used)
        oracle = _qops_pair(r, w, rep.n_max_used)
        for side, zero in enumerate(bosonic._zero_sides(r, w.abs_r, w.abs_l)):
            row = (values[side], rep.lo[side], rep.hi[side])
            if zero:  # only a minor side, and one that ?sbevd reads as 0 too
                assert weights[side] < weights[1 - side]
                assert row == (0.0, 0.0, 0.0) and solved[side] == 0.0
            else:
                assert row == (solved[side], solved[side], solved[side] + widths[side])
            assert abs(values[side] - oracle[side]) <= 1e-12

    @pytest.mark.parametrize("q_abs", [0.05, 0.3, 0.6, 0.8, 0.9, 0.95])
    def test_rows_either_side_of_the_float_threshold(self, q_abs):
        # 121 rows within 60 ulps of artanh(|q_minor|/|q_major|): the minor side reads 0 on each,
        # and is certified only where fl(y^2 t^2) clears fl(x^2) by the margin, which leaves
        # y^2 t^2 > x^2 (1 + 2^-49) in exact arithmetic on the float t = math.tanh(r)
        w = UnruhWeights.from_abs(q_abs)
        minor = 0 if w.abs_r < w.abs_l else 1
        x, y = (w.abs_r, w.abs_l)[minor], (w.abs_r, w.abs_l)[1 - minor]
        threshold = math.atanh(x / y)
        grid = [threshold + k * math.ulp(threshold) for k in range(-60, 61)]
        certified = []
        for r, row in zip(grid, bosonic_curve(q_abs, grid)):
            value, lo, hi = (row.n_ar, row.n_aar)[minor], row.report.lo[minor], row.report.hi[minor]
            assert value == lo == 0.0 < row.report.hi[1 - minor]
            if hi == 0.0:
                certified.append(r)
                t = Fraction(math.tanh(r))
                assert Fraction(y) ** 2 * t * t > Fraction(x) ** 2 * (1 + Fraction(1, 2**49))
        # the cut lies inside the window, with the rows past it certified and none before
        assert 0 < len(certified) < len(grid) and certified == grid[len(grid) - len(certified):]

    def test_rows_that_need_no_rule_of_their_own(self):
        # r = 0: T = 0, so the test fails for every weight the dense engine takes
        for q_abs in (0.05, 0.3, 0.9, 0.95):
            r, w = point(0.0, q_abs)
            pair = bosonic_negativity_pair(r, w)
            assert bosonic._zero_sides(r, w.abs_r, w.abs_l) == (False, False)
            assert pair.report.hi == (pair.n_ar, pair.n_aar) and min(pair.n_ar, pair.n_aar) > 0.0
        # |q_R| = |q_L|: neither side is minor, and fl(t t) <= 1 fails the test up to tanh r = 1
        grid = np.append(np.linspace(0.0, 3.0, 31), TANH_ONE_BELOW)
        w = UnruhWeights(math.sqrt(0.5), math.sqrt(0.5))
        for r, pair in zip(grid.tolist(), bosonic._dense_pairs(grid, w)):
            assert bosonic._zero_sides(r, w.abs_r, w.abs_l) == (False, False)
            assert pair.n_ar == pair.n_aar and pair.report.hi[0] == pair.report.hi[1] >= pair.n_ar
        # past tanh r = 1 the test would certify the minor side, but the row stays unevaluated
        for r in (TANH_ONE, 25.0):
            r, w = point(r, 0.9)
            assert bosonic._zero_sides(r, w.abs_r, w.abs_l) == (False, True)
            rep = bosonic_negativity_pair(r, w).report
            assert (rep.lo, rep.hi, rep.converged) == ((0.0, 0.0), (math.inf, math.inf), False)


@settings(max_examples=30, deadline=None)
@given(
    q_abs=st.floats(0.0, 1.0),
    r=st.floats(0.0, 3.0),
    phase_r=st.floats(-math.pi, math.pi),
    phase_l=st.floats(-math.pi, math.pi),
    n_max=st.integers(1, 125),
)
# r where squares of the oracle's entries underflow; without its amplitude floor it read up to 9.6e-6 off
@example(q_abs=0.875, r=1e-72, phase_r=0.0, phase_l=0.0, n_max=16)
@example(q_abs=0.875, r=3.04e-72, phase_r=0.0, phase_l=0.0, n_max=16)
@example(q_abs=0.75, r=3.04e-72, phase_r=0.0, phase_l=0.0, n_max=16)
@example(q_abs=0.875, r=1e-80, phase_r=0.0, phase_l=0.0, n_max=16)
def test_sector_engine_matches_qops_route(q_abs, r, phase_r, phase_l, n_max):
    weights = UnruhWeights(
        q_abs * np.exp(1j * phase_r), math.sqrt(1.0 - q_abs * q_abs) * np.exp(1j * phase_l)
    )
    fast, oracle = _dense_pair(r, weights, n_max), _qops_pair(r, weights, n_max)
    assert abs(fast[0] - oracle[0]) <= 1e-12
    assert abs(fast[1] - oracle[1]) <= 1e-12
    # swap rule: exchanging the weights exchanges the bipartitions, here
    # checked against the oracle's own Alice-AntiRob trace
    mirror = _dense_pair(r, UnruhWeights(weights.q_l, weights.q_r), n_max)
    assert abs(mirror[0] - oracle[1]) <= 1e-12
    assert abs(mirror[1] - oracle[0]) <= 1e-12
    for value in fast:
        assert 0.0 <= value <= 0.5


@pytest.mark.parametrize("e", [-320, -100] + list(range(-81, -69)) + [-60, -8, 0])
def test_qops_route_agrees_down_to_the_float_floor(e):
    # r = 10^e down to the subnormals, where squares of the oracle's entries underflow
    r = float(f"1e{e}")
    for q_abs in (0.3, 0.6, 0.75, 0.875, 0.95):
        weights = UnruhWeights.from_abs(q_abs)
        for n_max in (4, 16, 60):
            fast, oracle = _dense_pair(r, weights, n_max), _qops_pair(r, weights, n_max)
            assert max(abs(fast[0] - oracle[0]), abs(fast[1] - oracle[1])) <= 1e-12, (q_abs, n_max)


@settings(max_examples=30, deadline=None)
@given(q_abs=st.floats(0.0, 1.0), r=st.floats(0.0, 3.0), phase=st.floats(-math.pi, math.pi))
def test_pair_swap_rule_and_range(q_abs, r, phase):
    weights = UnruhWeights.from_abs(q_abs, phase)
    pair = bosonic_negativity_pair(r, weights)
    mirror = bosonic_negativity_pair(r, UnruhWeights(weights.q_l, weights.q_r))
    assert abs(pair.n_ar - mirror.n_aar) <= 1e-12
    assert abs(pair.n_aar - mirror.n_ar) <= 1e-12
    assert 0.0 <= pair.n_ar <= 0.5
    assert 0.0 <= pair.n_aar <= 0.5


@settings(max_examples=30, deadline=None)
@given(
    q_abs=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
    r=st.floats(0.0, 3.0),
    phase_r=st.floats(-math.pi, math.pi),
    phase_l=st.floats(-math.pi, math.pi),
)
def test_pair_phase_invariance(q_abs, r, phase_r, phase_l):
    # random local phases on both weights leave the pair unchanged, on the
    # dense engine for every weight and on the block series for extremal ones
    plain = UnruhWeights.from_abs(q_abs)
    turned = UnruhWeights(plain.q_r * cmath.exp(1j * phase_r), plain.q_l * cmath.exp(1j * phase_l))
    engines = {"dense": dense_pair}
    if plain.minor_weight() <= EXTREMAL_TOL:
        engines["blocks"] = bosonic._pair_blocks
    for method, engine in engines.items():
        base, rotated = engine(r, plain), engine(r, turned)
        assert abs(rotated.n_ar - base.n_ar) <= 1e-12
        assert abs(rotated.n_aar - base.n_aar) <= 1e-12
        assert rotated.report.method == method
        assert rotated.report.converged == base.report.converged
