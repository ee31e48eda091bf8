"""Bosonic Minkowski-Unruh state construction and negativity engine."""

import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruhkit.bosonic import (
    ALICE,
    EXTREMAL_TOL,
    N_MAX_CAP,
    REGION_I,
    BosonScenario,
    BosonSqueezing,
    BosonTruncation,
    bosonic_curve,
    bosonic_negativity_pair,
    joint_state,
    rho_alice_antirob,
    rho_alice_rob,
    unruh_excitation_ket,
    unruh_vacuum_ket,
    vacuum_coefficients,
    _block_series,
    _bracket_width,
    _dense_pair,
    _principal_block,
    _qops_pair,
    _sector_bands,
)
from unruhkit.errors import ConvergenceError
from unruhkit.qops import partial_transpose
from unruhkit.weights import UnruhWeights


def scenario(r, q_abs, n_max=30, phase=0.0):
    return BosonScenario(
        BosonSqueezing(r), UnruhWeights.from_abs(q_abs, phase), BosonTruncation(n_max)
    )


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

    def test_from_abs_range(self):
        with pytest.raises(ValueError):
            UnruhWeights.from_abs(1.1)
        with pytest.raises(ValueError):
            UnruhWeights.from_abs(-0.2)

    def test_from_abs_phase(self):
        w = UnruhWeights.from_abs(0.8, phase=0.5)
        assert abs(w.q_r - 0.8 * np.exp(0.5j)) < 1e-15
        assert abs(w.q_l - 0.6) < 1e-15

    def test_swapped_and_minor_weight(self):
        w = UnruhWeights.from_abs(0.8)
        assert w.swapped().abs_r == w.abs_l
        assert abs(w.minor_weight() - 0.6) < 1e-15
        assert UnruhWeights.from_abs(1.0).minor_weight() == 0.0


class TestSqueezing:
    def test_derived_value(self):
        # oracle: direct scalar evaluation of artanh(e^{-pi})
        sq = BosonSqueezing.from_acceleration(1.0, 1.0)
        assert abs(sq.r - math.atanh(math.exp(-math.pi))) < 1e-15
        assert not sq.capped

    def test_small_acceleration_limit(self):
        assert BosonSqueezing.from_acceleration(1.0, 1e-3).r < 1e-100

    def test_large_acceleration_caps(self):
        sq = BosonSqueezing.from_acceleration(1.0, 1e9)
        assert sq.capped
        assert sq.r == 10.0

    @pytest.mark.parametrize("omega_a,a", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_nonpositive_inputs_rejected(self, omega_a, a):
        with pytest.raises(ValueError):
            BosonSqueezing.from_acceleration(omega_a, a)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            BosonSqueezing(-0.1)


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

    def test_tail_weight_matches_brute_force(self):
        r, n_max = 0.9, 25
        tail = BosonTruncation(n_max).tail_weight(r)
        n = np.arange(n_max + 1, n_max + 4000)
        brute = np.sum(np.tanh(r) ** (2 * n) / math.cosh(r) ** 2)
        assert abs(tail - brute) < 1e-14


class TestStateBuilders:
    def test_vacuum_at_zero_squeezing(self):
        built = unruh_vacuum_ket(0.0, 8)
        assert built.ket.amplitudes[0] == 1.0
        assert np.count_nonzero(built.ket.amplitudes) == 1
        assert built.raw_norm == 1.0

    def test_vacuum_schmidt_coefficients(self):
        built = unruh_vacuum_ket(0.7, 12)
        f = vacuum_coefficients(0.7, 12)
        amp = built.ket.amplitudes.reshape(13, 13)
        assert np.allclose(np.diag(amp).real, f / np.linalg.norm(f), atol=1e-14)
        assert abs(built.ket.norm() - 1.0) < 1e-12

    def test_vacuum_truncation_deficit(self):
        built = unruh_vacuum_ket(0.5, 20)
        assert built.deficit < 1e-6

    def test_excitation_at_zero_squeezing(self):
        built = unruh_excitation_ket(scenario(0.0, 1.0))
        amp = built.ket.amplitudes.reshape(31, 31)
        assert abs(amp[1, 0] - 1.0) < 1e-14

    def test_excitation_general_weights_at_zero_squeezing(self):
        sc = BosonScenario(
            BosonSqueezing(0.0), UnruhWeights(0.6j, 0.8), BosonTruncation(10)
        )
        amp = unruh_excitation_ket(sc).ket.amplitudes.reshape(11, 11)
        assert abs(amp[1, 0] - 0.6j) < 1e-14  # q_R |1>_I |0>_II
        assert abs(amp[0, 1] - 0.8) < 1e-14   # q_L |0>_I |1>_II

    def test_excitation_raw_norm_deficit(self):
        built = unruh_excitation_ket(scenario(0.5, 0.8, n_max=40))
        assert abs(1.0 - built.raw_norm**2) < 1e-8

    def test_joint_state_is_bell_at_zero_squeezing(self):
        built = joint_state(scenario(0.0, 1.0, n_max=5))
        amp = built.ket.amplitudes.reshape(2, 6, 6)
        assert abs(amp[0, 0, 0] - 1.0 / math.sqrt(2.0)) < 1e-14
        assert abs(amp[1, 1, 0] - 1.0 / math.sqrt(2.0)) < 1e-14
        assert np.count_nonzero(amp) == 2

    def test_joint_state_normalized(self):
        assert abs(joint_state(scenario(0.9, 0.8)).ket.norm() - 1.0) < 1e-12

    def test_joint_raw_amplitude_coefficient(self):
        # amplitude at (M=1, I=n+1, II=n) is q_R f(n) sqrt(n+1) / (sqrt(2) cosh r)
        # before renormalization
        r, q_abs, phase = 0.6, 0.8, 0.9
        built = joint_state(scenario(r, q_abs, n_max=20, phase=phase))
        amp = built.ket.amplitudes.reshape(2, 21, 21) * built.raw_norm
        f = vacuum_coefficients(r, 20)
        q_r = q_abs * np.exp(1j * phase)
        for n in (0, 3, 7):
            expected = q_r * f[n] * math.sqrt(n + 1.0) / (math.sqrt(2.0) * math.cosh(r))
            assert abs(amp[1, n + 1, n] - expected) < 1e-14


class TestReducedMatrices:
    def test_bell_density_at_zero_squeezing(self):
        rho = rho_alice_rob(scenario(0.0, 1.0, n_max=4))
        from unruhkit.qops import negativity

        assert abs(negativity(rho, "M").value - 0.5) < 1e-12

    def test_hand_traced_two_term_state(self):
        # at r = 0 the joint state has two branches; tracing region II by hand
        # gives (1/2)[|00><00| + 0.64 |11><11| + 0.36 |10><10| + (q_R |11><00| + h.c.)]
        rho = rho_alice_rob(scenario(0.0, 0.8, n_max=3)).matrix
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
        built = joint_state(scenario(r, q_abs, n_max))
        rho = rho_alice_rob(scenario(r, q_abs, n_max))
        mat = rho.matrix * built.raw_norm**2
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
        built = joint_state(scenario(r, 1.0, n_max))
        mat = rho_alice_rob(scenario(r, 1.0, n_max)).matrix * built.raw_norm**2
        f = vacuum_coefficients(r, n_max)
        d = n_max + 1
        for n in (0, 4, 9):
            expected = f[n] ** 2 * (n + 1) / (2.0 * math.cosh(r) ** 2)
            assert abs(mat[d + n + 1, d + n + 1] - expected) < 1e-14

    def test_traces_are_unit(self):
        for builder in (rho_alice_rob, rho_alice_antirob):
            assert abs(builder(scenario(0.5, 0.7)).trace() - 1.0) < 1e-10

    def test_antirob_is_product_at_extremal_weights(self):
        from unruhkit.qops import negativity

        rho = rho_alice_antirob(scenario(0.0, 1.0, n_max=4))
        assert negativity(rho, "M").value < 1e-14

    def test_swap_rule(self):
        q_r, q_l = 0.6 * np.exp(0.3j), math.sqrt(1 - 0.36) * np.exp(-1.1j)
        sc = BosonScenario(BosonSqueezing(0.8), UnruhWeights(q_r, q_l), BosonTruncation(25))
        swapped = BosonScenario(
            BosonSqueezing(0.8), UnruhWeights(q_l, q_r), BosonTruncation(25)
        )
        assert np.max(np.abs(rho_alice_antirob(sc).matrix - rho_alice_rob(swapped).matrix)) < 1e-12

    def test_positivity(self):
        rho_alice_rob(scenario(0.9, 0.75)).validate()

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
        sc = BosonScenario(BosonSqueezing(r), UnruhWeights(q_r, q_l), BosonTruncation(n_max))
        built = joint_state(sc)
        actual = rho_alice_rob(sc).matrix * built.raw_norm**2

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
        sigma = partial_transpose(rho_alice_rob(scenario(0.8, 1.0, n_max)), "M")
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
        sigma = partial_transpose(rho_alice_antirob(scenario(0.8, 1.0, n_max)), "M")
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
        pair = bosonic_negativity_pair(scenario(0.0, 1.0))
        assert abs(pair.n_ar - 0.5) < 1e-12
        assert pair.n_aar == 0.0
        assert pair.report.method == "blocks"
        assert pair.report.converged

    @pytest.mark.parametrize("q_abs", [1.0, 0.9, 0.8, 0.7])
    def test_zero_squeezing_closed_form(self, q_abs):
        pair = bosonic_negativity_pair(scenario(0.0, q_abs))
        assert abs(pair.n_ar - closed_form_r0(q_abs)) < 1e-10

    def test_example_value_at_08(self):
        pair = bosonic_negativity_pair(scenario(0.0, 0.8))
        assert abs(pair.n_ar - 0.32) < 1e-12

    def test_blocks_agree_with_dense_engine(self):
        for r in (0.3, 0.8, 1.2):
            blocks = bosonic_negativity_pair(scenario(r, 1.0), method="blocks")
            dense = bosonic_negativity_pair(scenario(r, 1.0), method="dense")
            assert dense.report.converged
            assert abs(blocks.n_ar - dense.n_ar) < 1e-7
            assert dense.n_aar < 1e-7  # exactly zero up to truncation noise

    def test_large_squeezing_through_blocks(self):
        pair = bosonic_negativity_pair(scenario(3.0, 1.0))
        assert pair.report.method == "blocks"
        assert pair.report.converged
        assert pair.n_ar < 0.01
        assert pair.n_ar > 0.001

    def test_blocks_method_rejects_generic_weights(self):
        with pytest.raises(ValueError):
            bosonic_negativity_pair(scenario(0.5, 0.8), method="blocks")

    def test_dense_convergence_report(self):
        pair = bosonic_negativity_pair(scenario(1.2, 0.8))
        rep = pair.report
        assert rep.method == "dense"
        assert rep.converged
        assert rep.tail_weight < 1e-8
        assert rep.delta_ar < 1e-6 and rep.delta_aar < 1e-6

    def test_strict_raises_on_unconverged(self):
        # the tail bound cannot be met at this cap for r = 2
        with pytest.raises(ConvergenceError):
            bosonic_negativity_pair(scenario(2.0, 0.8), n_max_cap=40, strict=True)

    @pytest.mark.parametrize("r", [400.0, 800.0, 1e4])
    def test_dense_route_at_extreme_squeezing_is_clean_and_unconverged(self, r):
        # cosh r overflows past r ~ 710 and the state's entries underflow past
        # r ~ 355; the route must flag the row, not raise or warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(scenario(r, 0.8))
        assert (pair.n_ar, pair.n_aar) == (0.0, 0.0)
        assert pair.report.method == "dense"
        assert not pair.report.converged

    def test_phase_invariance(self):
        for r in (0.2, 0.7):
            base = bosonic_negativity_pair(scenario(r, 0.8))
            for phase in (math.pi / 7, math.pi / 3, 1.0):
                rotated = bosonic_negativity_pair(scenario(r, 0.8, phase=phase))
                assert abs(rotated.n_ar - base.n_ar) < 1e-10
                assert abs(rotated.n_aar - base.n_aar) < 1e-10

    def test_swap_symmetry_of_pair(self):
        sc = BosonScenario(
            BosonSqueezing(0.6), UnruhWeights.from_abs(0.8), BosonTruncation(30)
        )
        swapped = BosonScenario(
            BosonSqueezing(0.6), UnruhWeights.from_abs(0.6), BosonTruncation(30)
        )
        pair = bosonic_negativity_pair(sc)
        mirror = bosonic_negativity_pair(swapped)
        assert abs(pair.n_ar - mirror.n_aar) < 1e-12
        assert abs(pair.n_aar - mirror.n_ar) < 1e-12

    def test_truncation_deltas_shrink(self):
        sc = scenario(1.0, 0.8)
        deltas = []
        for n in (15, 25, 35):
            a = _dense_pair(sc, n)[0]
            b = _dense_pair(sc, n + 5)[0]
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
        assert rows[-1].converged
        assert rows[-1].n_ar < rows[1].n_ar < rows[0].n_ar
        assert rows[-1].n_ar < 0.1
        assert rows[-1].n_aar < rows[0].n_aar

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            bosonic_curve(0.8, [-0.1])

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bosonic_curve(1.2, [0.0])


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


class TestBlockSeries:
    @pytest.mark.parametrize("r", [0.5, 3.0, 5.0])
    def test_matches_direct_sum(self, r):
        # far enough that the dropped terms sit below 1e-35 of the first
        _, k = block_terms(r, 0)
        direct = math.fsum(block_terms(r, np.arange(math.ceil(80.0 / k)))[0])
        value = _block_series(r)[0]
        assert abs(value - direct) <= 1e-14 * direct

    @pytest.mark.parametrize("r", [6.0, 8.0, 10.0])
    def test_bound_covers_long_sum_reference(self, r):
        value, bound, n_used, _ = _block_series(r)
        reference = long_sum_reference(r)
        assert n_used <= 4096
        assert abs(value - reference) <= bound
        assert bound <= 1e-6 * value

    @pytest.mark.parametrize("r", [0.0, 1e-300])
    def test_vanishing_squeezing_gives_one_half(self, r):
        assert math.tanh(r) ** 2 == 0.0  # at r = 1e-300 it underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(scenario(r, 1.0))
        assert pair.n_ar == 0.5 and pair.n_aar == 0.0
        assert pair.report.method == "blocks" and pair.report.converged

    def test_converged_means_bound_within_relative_tolerance(self):
        pair = bosonic_negativity_pair(scenario(5.0, 1.0))
        rep = pair.report
        assert rep.converged and 0.0 < rep.tail_weight <= 1e-6 * pair.n_ar
        tight = 0.5 * rep.tail_weight / pair.n_ar
        loose = bosonic_negativity_pair(scenario(5.0, 1.0), delta_tol=tight)
        assert loose.n_ar == pair.n_ar
        assert not loose.report.converged
        with pytest.raises(ConvergenceError):
            bosonic_negativity_pair(scenario(5.0, 1.0), delta_tol=tight, strict=True)

    def test_left_weight_mirrors_the_pair(self):
        right = bosonic_negativity_pair(scenario(7.0, 1.0))
        left = bosonic_negativity_pair(scenario(7.0, 0.0))
        assert (left.n_ar, left.n_aar) == (right.n_aar, right.n_ar)
        assert (left.report.delta_ar, left.report.delta_aar) == (
            right.report.delta_aar, right.report.delta_ar)


def sector_order(n_max, parity):
    """Flat (M, I) indices of the parity sector: |a_i, i> with a_i = (parity + i) mod 2."""
    d = n_max + 1
    return [((parity + i) % 2) * d + i for i in range(d)]


class TestParitySectors:
    def test_qops_partial_transpose_splits_into_banded_parity_sectors(self):
        # the dense qops partial transpose, with complex weights, has no entry
        # between sectors of different parity of (n_M + n_I), and inside each
        # sector (occupation order) nothing beyond the second off-diagonal
        n_max = 14
        sc = BosonScenario(
            BosonSqueezing(0.9),
            UnruhWeights(0.7 * np.exp(0.4j), math.sqrt(0.51) * np.exp(-1.2j)),
            BosonTruncation(n_max),
        )
        d = n_max + 1
        parity = np.add.outer(np.arange(2), np.arange(d)).ravel() % 2
        offset = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        for rho in (rho_alice_rob(sc), rho_alice_antirob(sc)):
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
        sc = scenario(r, q_abs, n_max, phase)
        bands = _sector_bands(r, sc.weights.abs_r, sc.weights.abs_l, n_max)
        weight, rho = _principal_block(sc, n_max, REGION_I)
        sigma = weight * partial_transpose(rho, ALICE)
        d = n_max + 1
        for p, band in enumerate(bands):
            idx = sector_order(n_max, p)
            block = np.abs(sigma[np.ix_(idx, idx)])
            for k in range(3):
                assert np.max(np.abs(band[k, : d - k] - np.diagonal(block, -k))) < 1e-15


@functools.cache
def deep_reference(r, q_abs):
    """(N_AR, N_AAR) of the d = 8000 principal block: a lower bound within 1e-15 at r <= 3."""
    return _dense_pair(scenario(r, q_abs), 7999)


def dense_report(r, q_abs, n_max, **kwargs):
    sc = scenario(r, q_abs, n_max)
    return bosonic_negativity_pair(sc, method="dense", n_max_cap=n_max, **kwargs)


class EigCounter:
    """Records the sizes of scipy's banded eigensolves and Cholesky attempts (size, success)."""

    def __init__(self, monkeypatch):
        import scipy.linalg

        self.eig, self.cholesky = [], []
        eig_banded, cholesky_banded = scipy.linalg.eig_banded, scipy.linalg.cholesky_banded

        def eig(band, *args, **kwargs):
            self.eig.append(band.shape[1])
            return eig_banded(band, *args, **kwargs)

        def cholesky(band, *args, **kwargs):
            try:
                factor = cholesky_banded(band, *args, **kwargs)
            except np.linalg.LinAlgError:
                self.cholesky.append((band.shape[1], False))
                raise
            self.cholesky.append((band.shape[1], True))
            return factor

        monkeypatch.setattr(scipy.linalg, "eig_banded", eig)
        monkeypatch.setattr(scipy.linalg, "cholesky_banded", cholesky)


class TestPrincipalBlockBracket:
    @pytest.mark.parametrize("q_abs", [0.4, 0.8, 0.95])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_bracket_holds_against_deep_reference(self, r, q_abs):
        # the reported value is the lower end and value + delta the upper end
        ref = deep_reference(r, q_abs)
        for n in (30, 60, 120):
            pair = dense_report(r, q_abs, n)
            rep = pair.report
            assert rep.n_max_used == n
            sides = ((pair.n_ar, rep.delta_ar, ref[0]), (pair.n_aar, rep.delta_aar, ref[1]))
            for value, width, exact in sides:
                assert value <= exact + 1e-14
                assert exact <= value + width + 1e-14

    @pytest.mark.parametrize("q_abs", [0.0, 0.4, 0.95, 1.0])
    @pytest.mark.parametrize("r,n", [(0.05, 1), (0.5, 10), (1.5, 60), (3.0, 1), (3.0, 120)])
    def test_width_is_the_closed_form_of_the_entries_past_the_cut(self, r, q_abs, n):
        # direct sum of |entry| over the upper triangle entries that reach a
        # level past n, read off bands 6000 levels longer (T^6000 < e^-60);
        # the closed form may only exceed it by its Cauchy-Schwarz slack
        w = UnruhWeights.from_abs(q_abs)
        bands = _sector_bands(r, w.abs_r, w.abs_l, n + 6000)
        direct = sum(np.abs(band[1, n:]).sum() + np.abs(band[2, n - 1 :]).sum() for band in bands)
        assert direct <= _bracket_width(r, w.abs_r, w.abs_l, n) <= 1.15 * direct

    def test_deep_reference_is_itself_certified(self):
        for q_abs in (0.4, 0.8, 0.95):
            w = UnruhWeights.from_abs(q_abs)
            assert _bracket_width(3.0, w.abs_r, w.abs_l, 7999) < 1e-15
            assert _bracket_width(3.0, w.abs_l, w.abs_r, 7999) < 1e-15

    def test_lower_bound_rises_monotonically_in_n(self):
        # a principal compression can only lower the sum of negative eigenvalues
        for q_abs in (0.4, 0.9):
            values = np.array([_dense_pair(scenario(3.0, q_abs), n) for n in range(4, 200, 7)])
            assert np.all(np.diff(values, axis=0) >= 0.0)
            assert np.all(np.diff(values.max(axis=1)) > 0.0)

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_minor_side_is_certified_zero_by_cholesky(self, r, monkeypatch):
        counter = EigCounter(monkeypatch)
        pair = bosonic_negativity_pair(scenario(r, 0.9))
        d = pair.report.n_max_used + 1
        assert pair.n_aar == 0.0 and pair.n_ar > 0.0
        # both minor-side sectors factor, so only the two major-side sectors
        # are eigensolved, once each and at n_max_used only
        assert counter.cholesky == [(d, True), (d, True)]
        assert counter.eig == [d, d]

    def test_one_solve_per_sector_at_n_max_used(self, monkeypatch):
        counter = EigCounter(monkeypatch)
        pair = bosonic_negativity_pair(scenario(0.2, 0.6))  # both sides entangled at small r
        d = pair.report.n_max_used + 1
        assert pair.n_ar > 0.0 and pair.n_aar > 0.0
        # the minor side (|q_R| < |q_L|) is entangled here: both its Cholesky
        # attempts fail and each sector falls back to one eigensolve
        assert counter.cholesky == [(d, False), (d, False)]
        assert counter.eig == [d] * 4

    @settings(max_examples=40, deadline=None)
    @given(q_abs=st.floats(0.01, 0.99), r=st.floats(0.0, 3.0), n_max=st.integers(1, 125))
    def test_bracket_contains_a_deeper_principal_block(self, q_abs, r, n_max):
        # the block 200 levels deeper lies between the value and the exact
        # negativity, so it must fall inside [N, N + delta]; a converged
        # point must also be within the tolerance of it
        pair = dense_report(r, q_abs, n_max)
        rep = pair.report
        deeper = _dense_pair(scenario(r, q_abs), n_max + 200)
        sides = zip((pair.n_ar, pair.n_aar), (rep.delta_ar, rep.delta_aar), deeper)
        for value, width, deep in sides:
            assert value <= deep + 1e-14
            assert deep <= value + width + 1e-14
            if rep.converged:
                assert deep - value <= 1e-6 * max(value, 0.1) + 1e-14

    def test_converged_zero_is_certified_by_the_absolute_floor(self):
        pair = bosonic_negativity_pair(scenario(1.5, 0.9))
        rep = pair.report
        assert rep.converged and pair.n_aar == 0.0
        assert 0.0 < rep.delta_aar <= 1e-7
        tight = dense_report(1.5, 0.9, rep.n_max_used, delta_tol=0.5 * rep.delta_aar / 0.1)
        assert (tight.n_ar, tight.n_aar) == (pair.n_ar, pair.n_aar)
        assert not tight.report.converged

    @pytest.mark.parametrize("r", [5.0, 10.0, 18.0])
    def test_deep_dense_rows_are_prompt_and_unconverged(self, r, monkeypatch):
        counter = EigCounter(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = bosonic_negativity_pair(scenario(r, 0.8))
        rep = pair.report
        assert not rep.converged
        assert rep.n_max_used == N_MAX_CAP
        assert max(counter.eig + [size for size, _ in counter.cholesky]) == N_MAX_CAP + 1
        assert 0.0 <= pair.n_ar <= 0.5 and 0.0 <= pair.n_aar <= 0.5
        assert math.isfinite(rep.delta_ar) and math.isfinite(rep.delta_aar)


@settings(max_examples=30, deadline=None)
@given(
    q_abs=st.floats(0.0, 1.0),
    r=st.floats(0.0, 3.0),
    phase_r=st.floats(-math.pi, math.pi),
    phase_l=st.floats(-math.pi, math.pi),
    n_max=st.integers(1, 125),
)
def test_sector_engine_matches_qops_route(q_abs, r, phase_r, phase_l, n_max):
    weights = UnruhWeights(
        q_abs * np.exp(1j * phase_r), math.sqrt(1.0 - q_abs * q_abs) * np.exp(1j * phase_l)
    )
    sc = BosonScenario(BosonSqueezing(r), weights, BosonTruncation(n_max))
    fast, oracle = _dense_pair(sc, n_max), _qops_pair(sc, n_max)
    assert abs(fast[0] - oracle[0]) <= 1e-12
    assert abs(fast[1] - oracle[1]) <= 1e-12
    # swap rule: exchanging the weights exchanges the bipartitions, here
    # checked against the oracle's own Alice-AntiRob trace
    swapped = BosonScenario(BosonSqueezing(r), weights.swapped(), BosonTruncation(n_max))
    mirror = _dense_pair(swapped, n_max)
    assert abs(mirror[0] - oracle[1]) <= 1e-12
    assert abs(mirror[1] - oracle[0]) <= 1e-12
    for value in fast:
        assert 0.0 <= value <= 0.5


@settings(max_examples=30, deadline=None)
@given(q_abs=st.floats(0.0, 1.0), r=st.floats(0.0, 3.0), phase=st.floats(-math.pi, math.pi))
def test_pair_swap_rule_and_range(q_abs, r, phase):
    weights = UnruhWeights.from_abs(q_abs, phase)
    pair = bosonic_negativity_pair(BosonScenario(BosonSqueezing(r), weights))
    mirror = bosonic_negativity_pair(BosonScenario(BosonSqueezing(r), weights.swapped()))
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
    # dense route for every weight and on the blocks route for extremal ones
    plain = UnruhWeights.from_abs(q_abs)
    turned = UnruhWeights(plain.q_r * cmath.exp(1j * phase_r), plain.q_l * cmath.exp(1j * phase_l))
    methods = ["dense"] + (["blocks"] if plain.minor_weight() <= EXTREMAL_TOL else [])
    for method in methods:
        base = bosonic_negativity_pair(BosonScenario(BosonSqueezing(r), plain), method=method)
        rotated = bosonic_negativity_pair(BosonScenario(BosonSqueezing(r), turned), method=method)
        assert abs(rotated.n_ar - base.n_ar) <= 1e-12
        assert abs(rotated.n_aar - base.n_aar) <= 1e-12
        assert rotated.report.method == method
        assert rotated.report.converged == base.report.converged
